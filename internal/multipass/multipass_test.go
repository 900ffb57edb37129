package multipass

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/entity"
	"repro/internal/er"
)

// twoPass blocks on the prefix of two different attributes.
func twoPass() []Pass {
	return []Pass{
		{Name: "title", Attr: "title", Key: blocking.Prefix(3)},
		{Name: "brand", Attr: "brand", Key: blocking.Prefix(3)},
	}
}

func mkProd(id, title, brand string) entity.Entity {
	return entity.New(id, "title", title).WithAttr("brand", brand)
}

func sampleCatalog() []entity.Entity {
	return []entity.Entity{
		mkProd("p1", "alpha widget", "acme"),
		mkProd("p2", "alpha widget v2", "acme"),  // shares both blocks with p1
		mkProd("p3", "beta widget", "acme"),      // shares only brand with p1/p2
		mkProd("p4", "alpha gadget", "bolt"),     // shares only title with p1/p2
		mkProd("p5", "gamma thing", "corp"),      // shares nothing
		mkProd("p6", "beta widget max", "boltx"), // title with p3, brand with p4
	}
}

func TestKeys(t *testing.T) {
	keys := Keys(mkProd("x", "alpha", "acme"), twoPass())
	want := []string{"acm", "alp"}
	if !reflect.DeepEqual(keys, want) {
		t.Errorf("Keys = %v, want %v", keys, want)
	}
	// Duplicate keys across passes collapse.
	dup := Keys(mkProd("x", "acme roadster", "acme"), twoPass())
	if !reflect.DeepEqual(dup, []string{"acm"}) {
		t.Errorf("duplicate keys = %v, want [acm]", dup)
	}
	// Empty keys are dropped.
	none := Keys(mkProd("x", "", ""), twoPass())
	if len(none) != 0 {
		t.Errorf("empty attrs gave keys %v", none)
	}
}

func TestExpandReplication(t *testing.T) {
	parts := entity.Partitions{{mkProd("p1", "alpha", "acme"), mkProd("p2", "acme x", "acme")}}
	out := Expand(parts, twoPass())
	// p1 has keys {alp, acm} → 2 replicas; p2 has {acm} only → 1.
	if len(out[0]) != 3 {
		t.Fatalf("expanded to %d replicas, want 3", len(out[0]))
	}
	for _, rep := range out[0] {
		if rep.Attr(AttrKey) == "" || rep.Attr(AttrAllKeys) == "" {
			t.Fatalf("replica missing multipass attrs: %v", rep)
		}
	}
}

func TestLeastCommonKey(t *testing.T) {
	tests := []struct {
		a, b []string
		want string
	}{
		{[]string{"acm", "alp"}, []string{"acm", "alp"}, "acm"},
		{[]string{"alp"}, []string{"acm", "alp"}, "alp"},
		{[]string{"aaa", "zzz"}, []string{"bbb", "zzz"}, "zzz"},
		{[]string{"aaa"}, []string{"bbb"}, ""},
	}
	for _, tc := range tests {
		a := joinKeys(tc.a)
		b := joinKeys(tc.b)
		if got := LeastCommonKey(a, b); got != tc.want {
			t.Errorf("LeastCommonKey(%v, %v) = %q, want %q", tc.a, tc.b, got, tc.want)
		}
	}
}

func joinKeys(ks []string) string {
	s := ""
	for i, k := range ks {
		if i > 0 {
			s += keySep
		}
		s += k
	}
	return s
}

func alwaysMatch(pairs *map[core.MatchPair]int, mu *sync.Mutex) core.Matcher {
	return func(a, b entity.Entity) (float64, bool) {
		mu.Lock()
		(*pairs)[core.NewMatchPair(a.ID, b.ID)]++
		mu.Unlock()
		return 1, true
	}
}

// TestRunMatchesSerialReference: the pipeline compares every pair that
// shares ≥1 block exactly once (inner-matcher invocations), for all
// three strategies.
func TestRunMatchesSerialReference(t *testing.T) {
	es := sampleCatalog()
	wantPairs, wantCandidates := SerialMatch(es, twoPass(), func(entity.Entity, entity.Entity) (float64, bool) { return 1, true })
	if wantCandidates == 0 {
		t.Fatal("sample catalog has no candidates")
	}
	for _, strat := range []core.Strategy{core.Basic{}, core.BlockSplit{}, core.PairRange{}} {
		var mu sync.Mutex
		got := make(map[core.MatchPair]int)
		res, err := RunPipeline(t.Context(), er.FromPartitions(entity.SplitRoundRobin(es, 2)), Config{
			Passes:          twoPass(),
			Strategy:        strat,
			PreparedMatcher: alwaysMatch(&got, &mu),
			R:               4,
		})
		if err != nil {
			t.Fatalf("%s: %v", strat.Name(), err)
		}
		if int64(len(got)) != wantCandidates {
			t.Errorf("%s: inner matcher saw %d distinct pairs, want %d", strat.Name(), len(got), wantCandidates)
		}
		for p, n := range got {
			if n != 1 {
				t.Errorf("%s: pair %v evaluated %d times, want once", strat.Name(), p, n)
			}
		}
		if len(res.Matches) != len(wantPairs) {
			t.Errorf("%s: %d matches, want %d", strat.Name(), len(res.Matches), len(wantPairs))
		}
		if len(wantPairs) > 0 && !reflect.DeepEqual(res.Matches, wantPairs) {
			t.Errorf("%s: matches = %v, want %v", strat.Name(), res.Matches, wantPairs)
		}
	}
}

// TestRunFuzz compares against the serial multi-pass reference on
// random catalogs.
func TestRunFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 12; trial++ {
		n := rng.Intn(80) + 5
		es := make([]entity.Entity, n)
		for i := range es {
			es[i] = mkProd(
				fmt.Sprintf("e%03d", i),
				fmt.Sprintf("ti%d tail", rng.Intn(6)),
				fmt.Sprintf("br%d", rng.Intn(5)),
			)
		}
		match := func(a, b entity.Entity) (float64, bool) {
			// Arbitrary but deterministic predicate.
			return 1, (len(a.Attr("title"))+len(b.Attr("title")))%3 == 0
		}
		want, _ := SerialMatch(es, twoPass(), match)
		for _, strat := range []core.Strategy{core.BlockSplit{}, core.PairRange{}} {
			res, err := RunPipeline(t.Context(), er.FromPartitions(entity.SplitRoundRobin(es, rng.Intn(3)+1)), Config{
				Passes:          twoPass(),
				Strategy:        strat,
				PreparedMatcher: core.Matcher(match),
				R:               rng.Intn(6) + 1,
			})
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, strat.Name(), err)
			}
			if len(res.Matches) != len(want) || (len(want) > 0 && !reflect.DeepEqual(res.Matches, want)) {
				t.Fatalf("trial %d %s: %d matches, want %d", trial, strat.Name(), len(res.Matches), len(want))
			}
		}
	}
}

func TestRunValidation(t *testing.T) {
	parts := entity.Partitions{{mkProd("p", "t", "b")}}
	if _, err := RunPipeline(t.Context(), er.FromPartitions(parts), Config{Strategy: core.Basic{}, R: 2}); err == nil {
		t.Error("no passes: want error")
	}
	if _, err := RunPipeline(t.Context(), er.FromPartitions(parts), Config{Passes: twoPass(), R: 2}); err == nil {
		t.Error("no strategy: want error")
	}
}

func TestOverhead(t *testing.T) {
	// p1/p2 share both blocks → 1 redundant co-occurrence.
	es := []entity.Entity{
		mkProd("p1", "alpha x", "acme"),
		mkProd("p2", "alpha y", "acme"),
	}
	if got := Overhead(es, twoPass()); got != 2.0 {
		t.Errorf("Overhead = %g, want 2.0 (pair shares 2 blocks)", got)
	}
	// Disjoint entities: no candidates → overhead defined as 1.
	es2 := []entity.Entity{mkProd("a", "x1", "y1"), mkProd("b", "x2", "y2")}
	if got := Overhead(es2, twoPass()); got != 1.0 {
		t.Errorf("empty Overhead = %g, want 1", got)
	}
}

// TestWrapPreparedMatcherSkipsRedundant: within the non-minimal shared
// block the wrapped matcher refuses without invoking the inner matcher;
// with a nil inner matcher it filters and counts without matching.
func TestWrapPreparedMatcherSkipsRedundant(t *testing.T) {
	inner := 0
	counting := core.Matcher(func(entity.Entity, entity.Entity) (float64, bool) {
		inner++
		return 1, true
	})
	a := mkProd("a", "alpha", "acme").WithAttr(AttrAllKeys, joinKeys([]string{"acm", "alp"}))
	b := mkProd("b", "alpha", "acme").WithAttr(AttrAllKeys, joinKeys([]string{"acm", "alp"}))
	for _, tc := range []struct {
		name      string
		inner     core.PreparedMatcher
		wantMatch bool // in the minimal block
		wantCalls int
	}{
		{name: "counting", inner: counting, wantMatch: true, wantCalls: 1},
		{name: "nil", inner: nil, wantMatch: false, wantCalls: 0},
	} {
		inner = 0
		wrapped := WrapPreparedMatcher(tc.inner)
		match := func(block string) bool {
			_, ok := wrapped.MatchPrepared(wrapped.Prepare(a.WithAttr(AttrKey, block)), wrapped.Prepare(b.WithAttr(AttrKey, block)))
			return ok
		}
		if match("alp") {
			t.Errorf("%s: non-minimal block should be skipped", tc.name)
		}
		if inner != 0 {
			t.Errorf("%s: inner matcher invoked on redundant candidate", tc.name)
		}
		if got := match("acm"); got != tc.wantMatch {
			t.Errorf("%s: minimal block matched = %v, want %v", tc.name, got, tc.wantMatch)
		}
		if inner != tc.wantCalls {
			t.Errorf("%s: inner invoked %d times, want %d", tc.name, inner, tc.wantCalls)
		}
	}
}
