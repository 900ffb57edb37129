package er_test

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/entity"
	"repro/internal/er"
	"repro/internal/multipass"
	"repro/internal/sn"
)

// TestCountOnlyPipelines runs every pipeline without a matcher, once
// with PreparedMatcher nil and once with the nil core.Matcher: each run
// must find no match and count exactly the comparisons of its serial
// reference (the co-occurrence count for multi-pass, whose
// least-common-key filter counts redundant candidates too).
func TestCountOnlyPipelines(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	es := make([]entity.Entity, 90)
	for i := range es {
		var b strings.Builder
		for j := 0; j < 2+rng.Intn(6); j++ {
			b.WriteByte(byte('a' + rng.Intn(4)))
		}
		es[i] = entity.New(fmt.Sprintf("e%03d", i), "title", b.String())
	}
	parts := er.FromPartitions(entity.SplitRoundRobin(es, 3))
	key := blocking.NormalizedPrefix(2)
	// missingKey leaves every title starting with 'd' without a key.
	missingKey := func(v string) string {
		if strings.HasPrefix(v, "d") {
			return ""
		}
		return v[:1]
	}
	passes := []multipass.Pass{
		{Name: "prefix", Attr: "title", Key: blocking.Prefix(2)},
		{Name: "suffix", Attr: "title", Key: blocking.Suffix(2)},
	}
	rs, ss := es[:50], es[50:]

	_, serialComps := er.SerialMatch(es, "title", key, nil)
	_, dualComps := er.SerialMatchDual(rs, ss, "title", key, nil)
	_, snComps := sn.Serial(es, "title", sn.KeyFunc(key), 4, nil)
	var keyed, noKey int64
	var keyedEntities []entity.Entity
	for _, e := range es {
		if missingKey(e.Attr("title")) == "" {
			noKey++
		} else {
			keyedEntities = append(keyedEntities, e)
			keyed++
		}
	}
	_, missingComps := er.SerialMatch(keyedEntities, "title", missingKey, nil)
	missingComps += noKey*keyed + noKey*(noKey-1)/2
	blockSizes := make(map[string]int64)
	for _, e := range es {
		for _, k := range multipass.Keys(e, passes) {
			blockSizes[k]++
		}
	}
	var coOccurrences int64
	for _, n := range blockSizes {
		coOccurrences += n * (n - 1) / 2
	}
	if serialComps == 0 || dualComps == 0 || snComps == 0 || noKey == 0 || coOccurrences == 0 {
		t.Fatal("fixture yields an empty reference")
	}

	type run func(ctx context.Context, pm core.PreparedMatcher) (matches int, comparisons int64, err error)
	one := func(s core.Strategy) run {
		return func(ctx context.Context, pm core.PreparedMatcher) (int, int64, error) {
			res, err := er.RunPipeline(ctx, parts, er.Config{Strategy: s, Attr: "title", BlockKey: key, PreparedMatcher: pm, R: 4})
			if err != nil {
				return 0, 0, err
			}
			return len(res.Matches), res.Comparisons, nil
		}
	}
	dual := func(s core.DualStrategy) run {
		return func(ctx context.Context, pm core.PreparedMatcher) (int, int64, error) {
			res, err := er.RunDualPipeline(ctx, er.FromEntities(rs, 2), er.FromEntities(ss, 2),
				er.DualConfig{Strategy: s, Attr: "title", BlockKey: key, PreparedMatcher: pm, R: 4})
			if err != nil {
				return 0, 0, err
			}
			return len(res.Matches), res.Comparisons, nil
		}
	}
	cases := []struct {
		name string
		run  run
		want int64
	}{
		{"Basic", one(core.Basic{}), serialComps},
		{"BlockSplit", one(core.BlockSplit{}), serialComps},
		{"PairRange", one(core.PairRange{}), serialComps},
		{"BlockSplitDual", dual(core.BlockSplitDual{}), dualComps},
		{"PairRangeDual", dual(core.PairRangeDual{}), dualComps},
		{"MissingKeys", func(ctx context.Context, pm core.PreparedMatcher) (int, int64, error) {
			res, err := er.RunWithMissingKeysPipeline(ctx, parts, er.Config{
				Strategy: core.BlockSplit{}, Attr: "title", BlockKey: missingKey, PreparedMatcher: pm, R: 4,
			})
			if err != nil {
				return 0, 0, err
			}
			return len(res.Matches), res.Comparisons, nil
		}, missingComps},
		{"SortedNeighborhood", func(ctx context.Context, pm core.PreparedMatcher) (int, int64, error) {
			res, err := sn.RunPipeline(ctx, parts, sn.Config{
				Attr: "title", Key: sn.KeyFunc(key), Window: 4, R: 3, PreparedMatcher: pm,
			})
			if err != nil {
				return 0, 0, err
			}
			return len(res.Matches), res.Comparisons, nil
		}, snComps},
		{"MultiPass", func(ctx context.Context, pm core.PreparedMatcher) (int, int64, error) {
			res, err := multipass.RunPipeline(ctx, parts, multipass.Config{
				Passes: passes, Strategy: core.PairRange{}, PreparedMatcher: pm, R: 4,
			})
			if err != nil {
				return 0, 0, err
			}
			return len(res.Matches), res.Comparisons, nil
		}, coOccurrences},
	}
	for _, tc := range cases {
		for _, m := range []struct {
			name string
			pm   core.PreparedMatcher
		}{{"nil", nil}, {"nil-Matcher", core.Matcher(nil)}} {
			matches, comps, err := tc.run(t.Context(), m.pm)
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, m.name, err)
			}
			if matches != 0 || comps != tc.want {
				t.Errorf("%s/%s: %d matches, %d comparisons; want 0 matches, %d comparisons",
					tc.name, m.name, matches, comps, tc.want)
			}
		}
	}
}
