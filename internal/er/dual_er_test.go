package er

import (
	"reflect"
	"testing"

	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/entity"
)

func TestRunDualAgainstSerial(t *testing.T) {
	es, _ := datagen.Generate(datagen.DS1Spec(0.003))
	r, s := datagen.TwoSources(es, 0.5, 5)
	want, wantComps := SerialMatchDual(r, s, datagen.AttrTitle, datagen.BlockKey(), titleMatcher(0.85))
	for _, strat := range []core.DualStrategy{core.BlockSplitDual{}, core.PairRangeDual{}} {
		res, err := RunDualPipeline(t.Context(), FromPartitions(entity.SplitRoundRobin(r, 2)), FromPartitions(entity.SplitRoundRobin(s, 2)),
			DualConfig{
				Strategy:        strat,
				Attr:            datagen.AttrTitle,
				BlockKey:        datagen.BlockKey(),
				PreparedMatcher: titleMatcher(0.85),
				R:               5,
			})
		if err != nil {
			t.Fatalf("%s: %v", strat.Name(), err)
		}
		if len(res.Matches) != len(want) || (len(want) > 0 && !reflect.DeepEqual(res.Matches, want)) {
			t.Errorf("%s: %d links, serial reference has %d", strat.Name(), len(res.Matches), len(want))
		}
		if res.Comparisons != wantComps {
			t.Errorf("%s: %d comparisons, want %d", strat.Name(), res.Comparisons, wantComps)
		}
		if res.BDM == nil {
			t.Errorf("%s: missing dual BDM", strat.Name())
		}
	}
}

func TestRunDualValidation(t *testing.T) {
	parts := entity.SplitRoundRobin(smallDataset(), 1)
	if _, err := RunDualPipeline(t.Context(), FromPartitions(parts), FromPartitions(parts), DualConfig{}); err == nil {
		t.Error("empty config: want error")
	}
	if _, err := RunDualPipeline(t.Context(), FromPartitions(parts), FromPartitions(parts), DualConfig{Strategy: core.BlockSplitDual{}, BlockKey: blocking.Prefix(3)}); err == nil {
		t.Error("R=0: want error")
	}
	if _, err := RunDualPipeline(t.Context(), FromPartitions(parts), FromPartitions(parts), DualConfig{Strategy: core.BlockSplitDual{}, R: 2}); err == nil {
		t.Error("nil BlockKey: want error")
	}
}

func TestSerialMatchDualCountsOnly(t *testing.T) {
	r := []entity.Entity{entity.New("r1", "title", "abc x"), entity.New("r2", "title", "xyz")}
	s := []entity.Entity{entity.New("s1", "title", "abc y"), entity.New("s2", "title", "abq")}
	// Blocks by 3-prefix: "abc": r1 × s1; others singleton per source.
	pairs, comps := SerialMatchDual(r, s, "title", blocking.Prefix(3), nil)
	if comps != 1 {
		t.Errorf("comparisons = %d, want 1", comps)
	}
	if len(pairs) != 0 {
		t.Errorf("nil matcher produced pairs: %v", pairs)
	}
}
