package er

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/entity"
	"repro/internal/match"
	"repro/internal/similarity"
)

// randEntities builds a dataset of random short titles over a small
// alphabet, so blocks collide and near-duplicates occur naturally.
func randEntities(rng *rand.Rand, n int) []entity.Entity {
	es := make([]entity.Entity, n)
	for i := range es {
		ln := 3 + rng.Intn(10)
		var b strings.Builder
		for j := 0; j < ln; j++ {
			if rng.Intn(7) == 0 {
				b.WriteByte(' ')
			} else {
				b.WriteByte(byte('a' + rng.Intn(4)))
			}
		}
		es[i] = entity.New(idFor(i), "title", b.String())
	}
	return es
}

func idFor(i int) string {
	return string([]byte{'e', byte('0' + i/100), byte('0' + (i/10)%10), byte('0' + i%10)})
}

// plainEditDistance is the hand-written plain Matcher semantically
// equivalent to match.EditDistance: same decisions, same similarity
// floats (both sides compute 1 - dist/longest in float64).
func plainEditDistance(attr string, threshold float64) core.Matcher {
	return func(a, b entity.Entity) (float64, bool) {
		if !similarity.LevenshteinAtLeast(a.Attr(attr), b.Attr(attr), threshold) {
			return 0, false
		}
		return similarity.LevenshteinSimilarity(a.Attr(attr), b.Attr(attr)), true
	}
}

// TestPreparedMatcherDifferential: the prepared comparison kernel
// produces bit-identical Matches and Comparisons to the plain matcher
// (run through the same loop as core.Matcher) on random datasets across
// all three strategies and several (m, r) shapes.
func TestPreparedMatcherDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	strategies := []core.Strategy{core.Basic{}, core.BlockSplit{}, core.PairRange{}}
	for trial := 0; trial < 6; trial++ {
		es := randEntities(rng, 60+rng.Intn(120))
		m := 1 + rng.Intn(4)
		r := 1 + rng.Intn(8)
		th := []float64{0.5, 0.8, 0.6}[trial%3]
		parts := entity.SplitRoundRobin(es, m)
		key := blocking.NormalizedPrefix(2)

		serial, serialComps := SerialMatch(es, "title", key, plainEditDistance("title", th))
		for _, strat := range strategies {
			base := Config{
				Strategy: strat,
				Attr:     "title",
				BlockKey: key,
				R:        r,
			}
			plainCfg := base
			plainCfg.PreparedMatcher = plainEditDistance("title", th)
			preparedCfg := base
			preparedCfg.PreparedMatcher = match.EditDistance("title", th)

			plainRes, err := RunPipeline(t.Context(), FromPartitions(parts), plainCfg)
			if err != nil {
				t.Fatalf("%s plain: %v", strat.Name(), err)
			}
			preparedRes, err := RunPipeline(t.Context(), FromPartitions(parts), preparedCfg)
			if err != nil {
				t.Fatalf("%s prepared: %v", strat.Name(), err)
			}
			if !reflect.DeepEqual(plainRes.Matches, preparedRes.Matches) {
				t.Fatalf("%s m=%d r=%d th=%v: prepared Matches differ from plain\nplain:    %v\nprepared: %v",
					strat.Name(), m, r, th, plainRes.Matches, preparedRes.Matches)
			}
			if plainRes.Comparisons != preparedRes.Comparisons {
				t.Fatalf("%s m=%d r=%d th=%v: prepared Comparisons = %d, plain = %d",
					strat.Name(), m, r, th, preparedRes.Comparisons, plainRes.Comparisons)
			}
			if !reflect.DeepEqual(preparedRes.Matches, serial) || preparedRes.Comparisons != serialComps {
				t.Fatalf("%s m=%d r=%d th=%v: prepared result disagrees with serial reference",
					strat.Name(), m, r, th)
			}
		}
	}
}

// TestPreparedMatcherDifferentialTokenKernels repeats the differential
// for the token and n-gram kernels (sorted-slice intersections).
func TestPreparedMatcherDifferentialTokenKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(4096))
	es := randEntities(rng, 120)
	parts := entity.SplitRoundRobin(es, 3)
	key := blocking.NormalizedPrefix(1)
	cases := []struct {
		name     string
		prepared core.PreparedMatcher
		plain    core.Matcher
	}{
		{
			name:     "TokenJaccard",
			prepared: match.TokenJaccard("title", 0.5),
			plain: func(a, b entity.Entity) (float64, bool) {
				sim := similarity.TokenJaccard(a.Attr("title"), b.Attr("title"))
				return sim, sim >= 0.5
			},
		},
		{
			name:     "NGramJaccard",
			prepared: match.NGramJaccard("title", 2, 0.4),
			plain: func(a, b entity.Entity) (float64, bool) {
				sim := similarity.JaccardNGram(a.Attr("title"), b.Attr("title"), 2)
				return sim, sim >= 0.4
			},
		},
	}
	for _, tc := range cases {
		for _, strat := range []core.Strategy{core.Basic{}, core.BlockSplit{}, core.PairRange{}} {
			plainRes, err := RunPipeline(t.Context(), FromPartitions(parts), Config{
				Strategy: strat, Attr: "title", BlockKey: key, PreparedMatcher: tc.plain, R: 5,
			})
			if err != nil {
				t.Fatalf("%s/%s plain: %v", tc.name, strat.Name(), err)
			}
			preparedRes, err := RunPipeline(t.Context(), FromPartitions(parts), Config{
				Strategy: strat, Attr: "title", BlockKey: key, PreparedMatcher: tc.prepared, R: 5,
			})
			if err != nil {
				t.Fatalf("%s/%s prepared: %v", tc.name, strat.Name(), err)
			}
			if !reflect.DeepEqual(plainRes.Matches, preparedRes.Matches) ||
				plainRes.Comparisons != preparedRes.Comparisons {
				t.Fatalf("%s/%s: prepared (matches=%d comps=%d) != plain (matches=%d comps=%d)",
					tc.name, strat.Name(), len(preparedRes.Matches), preparedRes.Comparisons,
					len(plainRes.Matches), plainRes.Comparisons)
			}
		}
	}
}

// TestPreparedMatcherDualDifferential covers both two-source strategies.
func TestPreparedMatcherDualDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7777))
	es := randEntities(rng, 150)
	rsrc, ssrc := es[:90], es[90:]
	key := blocking.NormalizedPrefix(2)
	for _, strat := range []core.DualStrategy{core.BlockSplitDual{}, core.PairRangeDual{}} {
		plainRes, err := RunDualPipeline(t.Context(), FromPartitions(entity.SplitRoundRobin(rsrc, 2)), FromPartitions(entity.SplitRoundRobin(ssrc, 3)),
			DualConfig{
				Strategy: strat, Attr: "title", BlockKey: key,
				PreparedMatcher: plainEditDistance("title", 0.6), R: 4,
			})
		if err != nil {
			t.Fatalf("%s plain: %v", strat.Name(), err)
		}
		preparedRes, err := RunDualPipeline(t.Context(), FromPartitions(entity.SplitRoundRobin(rsrc, 2)), FromPartitions(entity.SplitRoundRobin(ssrc, 3)),
			DualConfig{
				Strategy: strat, Attr: "title", BlockKey: key,
				PreparedMatcher: match.EditDistance("title", 0.6), R: 4,
			})
		if err != nil {
			t.Fatalf("%s prepared: %v", strat.Name(), err)
		}
		if !reflect.DeepEqual(plainRes.Matches, preparedRes.Matches) ||
			plainRes.Comparisons != preparedRes.Comparisons {
			t.Fatalf("%s: prepared dual result differs from plain", strat.Name())
		}
	}
}
