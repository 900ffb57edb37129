package mapreduce_test

// Strategy-matrix differential test: for every redistribution strategy
// of the paper (Basic, BlockSplit, PairRange) × 1..4 map partitions ×
// 1..8 reduce tasks, the full two-job pipeline must produce Results —
// match pairs, comparison counts, and every TaskMetrics field including
// MaxGroupRecords — that are byte-identical between the typed engine's
// streaming k-way merge shuffle and the reference dataflow's
// concatenate-and-stable-sort. BlockSplit
// is the critical case: its cross-product reduce function silently
// miscounts if equal keys ever arrive out of map-task order.

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/entity"
	"repro/internal/er"
	"repro/internal/mapreduce"
	"repro/internal/similarity"
)

// skewedEntities builds a small catalog whose prefix-3 blocking yields
// one dominant block, a few mid-size blocks, and singletons — the skew
// shape that forces BlockSplit to split and PairRange to range-straddle.
func skewedEntities() []entity.Entity {
	var es []entity.Entity
	add := func(n int, stem string) {
		for i := 0; i < n; i++ {
			es = append(es, entity.New(
				fmt.Sprintf("%s-%03d", stem, i),
				"title",
				fmt.Sprintf("%s model %d edition", stem, i%7),
			))
		}
	}
	add(40, "canon eos")  // dominant block ("can")
	add(14, "nikon d850") // mid block
	add(9, "sony alpha")  // mid block
	add(5, "fuji xt")     // small block
	add(1, "leica m11")   // singleton
	add(1, "pentax k3")   // singleton
	return es
}

func TestStrategyMatrixShuffleDifferential(t *testing.T) {
	es := skewedEntities()
	matcher := func(a, b entity.Entity) (float64, bool) {
		s := similarity.LevenshteinSimilarity(a.Attr("title"), b.Attr("title"))
		return s, s >= 0.85
	}
	strategies := []core.Strategy{core.Basic{}, core.BlockSplit{}, core.PairRange{}}
	for m := 1; m <= 4; m++ {
		parts := entity.SplitRoundRobin(es, m)
		for r := 1; r <= 8; r++ {
			for _, strat := range strategies {
				for _, combiner := range []bool{false, true} {
					name := fmt.Sprintf("%s/m=%d/r=%d/combiner=%v", strat.Name(), m, r, combiner)
					cfg := er.Config{
						Strategy:        strat,
						Attr:            "title",
						BlockKey:        blocking.NormalizedPrefix(3),
						PreparedMatcher: core.Matcher(matcher),
						R:               r,
						UseCombiner:     combiner,
					}

					cfg.Engine = &mapreduce.Engine{Parallelism: 2}
					merge, err := er.RunPipeline(t.Context(), er.FromPartitions(parts), cfg)
					if err != nil {
						t.Fatalf("%s: merge run: %v", name, err)
					}

					cfg.Engine = &mapreduce.Engine{Parallelism: 2, Dataflow: mapreduce.DataflowReference}
					oracle, err := er.RunPipeline(t.Context(), er.FromPartitions(parts), cfg)
					if err != nil {
						t.Fatalf("%s: oracle run: %v", name, err)
					}

					if !reflect.DeepEqual(merge.Matches, oracle.Matches) {
						t.Errorf("%s: match pairs diverge between typed and reference", name)
					}
					if merge.Comparisons != oracle.Comparisons {
						t.Errorf("%s: comparisons %d (merge) != %d (oracle)", name, merge.Comparisons, oracle.Comparisons)
					}
					if !reflect.DeepEqual(merge.BDMResult, oracle.BDMResult) {
						t.Errorf("%s: BDM job Result (incl. TaskMetrics) diverges between typed and reference", name)
					}
					if !reflect.DeepEqual(merge.MatchResult, oracle.MatchResult) {
						t.Errorf("%s: match job Result (incl. TaskMetrics) diverges between typed and reference", name)
					}
				}
			}
		}
	}
}

// TestShuffleMaxGroupRecordsMatchesBlockSizes pins the semantics of the
// streamed MaxGroupRecords metric on a concrete case: with Basic and one
// reduce task, the largest group is exactly the dominant block.
func TestShuffleMaxGroupRecordsMatchesBlockSizes(t *testing.T) {
	es := skewedEntities()
	res, err := er.RunPipeline(t.Context(), er.FromPartitions(entity.SplitRoundRobin(es, 3)), er.Config{
		Strategy:   core.Basic{},
		Attr:       "title",
		BlockKey:   blocking.NormalizedPrefix(3),
		R:          1,
		RunOptions: er.RunOptions{Engine: &mapreduce.Engine{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.MatchResult.ReduceMetrics[0].MaxGroupRecords; got != 40 {
		t.Errorf("MaxGroupRecords = %d, want 40 (the dominant block)", got)
	}
}
