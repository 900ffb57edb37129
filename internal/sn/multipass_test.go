package sn

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/entity"
	"repro/internal/er"
)

func reverseKey(v string) string {
	r := []rune(v)
	for i, j := 0, len(r)-1; i < j; i, j = i+1, j-1 {
		r[i], r[j] = r[j], r[i]
	}
	return string(r)
}

func multiPasses() []Pass {
	return []Pass{
		{Name: "forward", Attr: "k", Key: identityKey},
		{Name: "reverse", Attr: "k", Key: reverseKey},
	}
}

func TestRunMultiPassAgainstSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(109))
	match := func(a, b entity.Entity) (float64, bool) {
		// Match when the keys share a first or last letter.
		ka, kb := a.Attr("k"), b.Attr("k")
		return 1, ka[0] == kb[0] || ka[len(ka)-1] == kb[len(kb)-1]
	}
	for trial := 0; trial < 10; trial++ {
		n := rng.Intn(80) + 5
		es := make([]entity.Entity, n)
		for i := range es {
			es[i] = mk(fmt.Sprintf("e%03d", i), randWord(rng))
		}
		w := rng.Intn(5) + 2
		want := SerialMultiPass(es, multiPasses(), w, match)
		res, err := RunMultiPassPipeline(t.Context(), er.FromPartitions(entity.SplitRoundRobin(es, rng.Intn(3)+1)), MultiConfig{
			Passes:          multiPasses(),
			Window:          w,
			R:               rng.Intn(6) + 1,
			PreparedMatcher: core.Matcher(match),
		})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(res.Matches) != len(want) || (len(want) > 0 && !reflect.DeepEqual(res.Matches, want)) {
			t.Fatalf("trial %d (n=%d w=%d): %d matches, want %d", trial, n, w, len(res.Matches), len(want))
		}
		if len(res.PerPass) != 2 {
			t.Fatalf("trial %d: %d per-pass results", trial, len(res.PerPass))
		}
		if res.Comparisons != res.PerPass[0].Comparisons+res.PerPass[1].Comparisons {
			t.Fatalf("trial %d: comparison accounting broken", trial)
		}
	}
}

func randWord(rng *rand.Rand) string {
	var b strings.Builder
	l := rng.Intn(6) + 2
	for i := 0; i < l; i++ {
		b.WriteByte(byte('a' + rng.Intn(5)))
	}
	return b.String()
}

func TestRunMultiPassRecoversCrossPassDuplicates(t *testing.T) {
	// "abc*" and "*abc" sort far apart forward but adjacent reversed.
	es := []entity.Entity{
		mk("a", "abcx"), mk("b", "zzzx"), // share suffix 'x' reversed
		mk("c", "mmmm"), mk("d", "nnnn"),
	}
	match := func(x, y entity.Entity) (float64, bool) {
		kx, ky := x.Attr("k"), y.Attr("k")
		return 1, kx[len(kx)-1] == ky[len(ky)-1]
	}
	forwardOnly, err := RunPipeline(t.Context(), er.FromPartitions(entity.SplitRoundRobin(es, 1)), Config{
		Attr: "k", Key: identityKey, Window: 2, R: 2, PreparedMatcher: core.Matcher(match),
	})
	if err != nil {
		t.Fatal(err)
	}
	multi, err := RunMultiPassPipeline(t.Context(), er.FromPartitions(entity.SplitRoundRobin(es, 1)), MultiConfig{
		Passes: multiPasses(), Window: 2, R: 2, PreparedMatcher: core.Matcher(match),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(multi.Matches) <= len(forwardOnly.Matches) {
		t.Errorf("multi-pass found %d matches, single pass %d — expected a gain",
			len(multi.Matches), len(forwardOnly.Matches))
	}
}

func TestRunMultiPassValidation(t *testing.T) {
	if _, err := RunMultiPassPipeline(t.Context(), er.FromPartitions(entity.Partitions{{mk("a", "x")}}), MultiConfig{Window: 3, R: 2}); err == nil {
		t.Error("no passes: want error")
	}
}
