package mapreduce_test

// External-dataflow differential test: every strategy of the paper must
// produce byte-identical Results on the out-of-core engine (disk-backed
// spill runs + external merge) and on the in-memory typed engine, with
// budgets tiny enough that every map task flushes several runs. The
// comparison covers the complete Result — match pairs, comparison
// counts, raw job outputs, side outputs, and every TaskMetrics field
// except the external-only spill counters — across Basic/BlockSplit/
// PairRange × 1..4 map partitions × 1..8 reduce tasks (combiner on) and
// both dual-source strategies, each with sequential and concurrent
// execution. This is the proof that moving the shuffle to disk changed
// the residency of the intermediate records and nothing else.

import (
	"fmt"
	"os"
	"reflect"
	"testing"

	"repro/internal/bdm"
	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/entity"
	"repro/internal/er"
	"repro/internal/mapreduce"
)

// tinySpillBudget forces a spill roughly every record or two: the
// smallest strategy-job map task in the matrix below emits ≥ 17 records
// of ≥ 25 encoded bytes, so every map task writes ≥ 4 runs (asserted).
const tinySpillBudget = 64

// assertSpilled checks every map task flushed at least minRuns runs.
func assertSpilled(t *testing.T, name string, ms []mapreduce.TaskMetrics, minRuns int64) {
	t.Helper()
	for i := range ms {
		if ms[i].SpillRuns < minRuns {
			t.Errorf("%s: map task %d spilled %d runs, want >= %d", name, i, ms[i].SpillRuns, minRuns)
		}
		if ms[i].SpillRuns > 0 && ms[i].SpillBytesWritten == 0 {
			t.Errorf("%s: map task %d has runs but no bytes written", name, i)
		}
	}
}

// clearResultSpillCounters zeroes the spill counters of a job result so
// the remainder compares byte-for-byte against the in-memory engine.
func clearResultSpillCounters(m *mapreduce.Metrics) {
	clearSpillCounters(m.MapMetrics)
	clearSpillCounters(m.ReduceMetrics)
}

func TestExternalDifferentialStrategies(t *testing.T) {
	es := skewedEntities()
	strategies := []core.Strategy{core.Basic{}, core.BlockSplit{}, core.PairRange{}}
	tmp := t.TempDir()
	for m := 1; m <= 4; m++ {
		parts := entity.SplitRoundRobin(es, m)
		for r := 1; r <= 8; r++ {
			for _, strat := range strategies {
				for _, par := range []int{1, 4} {
					name := fmt.Sprintf("%s/m=%d/r=%d/par=%d", strat.Name(), m, r, par)
					cfg := er.Config{
						Strategy:        strat,
						Attr:            "title",
						BlockKey:        blocking.NormalizedPrefix(3),
						PreparedMatcher: titleMatcher(0.85),
						R:               r,
						UseCombiner:     true,
					}

					cfg.Engine = &mapreduce.Engine{Parallelism: par}
					typed, err := er.RunPipeline(t.Context(), er.FromPartitions(parts), cfg)
					if err != nil {
						t.Fatalf("%s: typed run: %v", name, err)
					}

					cfg.Engine = &mapreduce.Engine{
						Parallelism: par,
						Dataflow:    mapreduce.DataflowExternal,
						SpillBudget: tinySpillBudget,
						TmpDir:      tmp,
					}
					ext, err := er.RunPipeline(t.Context(), er.FromPartitions(parts), cfg)
					if err != nil {
						t.Fatalf("%s: external run: %v", name, err)
					}

					assertSpilled(t, name+"/match", ext.MatchResult.MapMetrics, 4)
					if ext.BDMResult != nil {
						assertSpilled(t, name+"/bdm", ext.BDMResult.MapMetrics, 4)
						clearResultSpillCounters(&ext.BDMResult.Metrics)
					}
					clearResultSpillCounters(&ext.MatchResult.Metrics)

					if !reflect.DeepEqual(typed.Matches, ext.Matches) {
						t.Errorf("%s: match pairs diverge between dataflows", name)
					}
					if typed.Comparisons != ext.Comparisons {
						t.Errorf("%s: comparisons %d (typed) != %d (external)", name, typed.Comparisons, ext.Comparisons)
					}
					if !reflect.DeepEqual(typed.BDMResult, ext.BDMResult) {
						t.Errorf("%s: BDM job Result (incl. TaskMetrics) diverges between dataflows", name)
					}
					if !reflect.DeepEqual(typed.MatchResult, ext.MatchResult) {
						t.Errorf("%s: match job Result (incl. TaskMetrics) diverges between dataflows", name)
					}
				}
			}
		}
	}
	// Every Run removed its spill directory.
	if ents, err := os.ReadDir(tmp); err != nil || len(ents) != 0 {
		t.Fatalf("spill temp dir not empty after runs: %v (err %v)", ents, err)
	}
}

func TestExternalDifferentialDualStrategies(t *testing.T) {
	esR, esS := dualCatalog()
	strategies := []core.DualStrategy{core.BlockSplitDual{}, core.PairRangeDual{}}
	tmp := t.TempDir()
	for mR := 1; mR <= 2; mR++ {
		partsR := entity.SplitRoundRobin(esR, mR)
		for mS := 1; mS <= 2; mS++ {
			partsS := entity.SplitRoundRobin(esS, mS)
			for r := 1; r <= 8; r++ {
				for _, strat := range strategies {
					for _, par := range []int{1, 4} {
						name := fmt.Sprintf("%s/mR=%d/mS=%d/r=%d/par=%d", strat.Name(), mR, mS, r, par)
						cfg := er.DualConfig{
							Strategy:        strat,
							Attr:            "title",
							BlockKey:        blocking.NormalizedPrefix(3),
							PreparedMatcher: titleMatcher(0.85),
							R:               r,
						}

						cfg.Engine = &mapreduce.Engine{Parallelism: par}
						typed, err := er.RunDualPipeline(t.Context(), er.FromPartitions(partsR), er.FromPartitions(partsS), cfg)
						if err != nil {
							t.Fatalf("%s: typed run: %v", name, err)
						}

						cfg.Engine = &mapreduce.Engine{
							Parallelism: par,
							Dataflow:    mapreduce.DataflowExternal,
							SpillBudget: tinySpillBudget,
							TmpDir:      tmp,
						}
						ext, err := er.RunDualPipeline(t.Context(), er.FromPartitions(partsR), er.FromPartitions(partsS), cfg)
						if err != nil {
							t.Fatalf("%s: external run: %v", name, err)
						}

						assertSpilled(t, name, ext.MatchResult.MapMetrics, 4)
						clearResultSpillCounters(&ext.MatchResult.Metrics)

						if !reflect.DeepEqual(typed.Matches, ext.Matches) {
							t.Errorf("%s: match pairs diverge between dataflows", name)
						}
						if typed.Comparisons != ext.Comparisons {
							t.Errorf("%s: comparisons %d (typed) != %d (external)", name, typed.Comparisons, ext.Comparisons)
						}
						if !reflect.DeepEqual(typed.MatchResult, ext.MatchResult) {
							t.Errorf("%s: match job Result (incl. TaskMetrics) diverges between dataflows", name)
						}
					}
				}
			}
		}
	}
	if ents, err := os.ReadDir(tmp); err != nil || len(ents) != 0 {
		t.Fatalf("spill temp dir not empty after runs: %v (err %v)", ents, err)
	}
}

// TestExternalDifferentialSideOutput pins the side-output path (the BDM
// job's annotated entities, which never spill) to byte equality.
func TestExternalDifferentialSideOutput(t *testing.T) {
	parts := entity.SplitRoundRobin(skewedEntities(), 3)
	job := bdm.Job(bdm.JobOptions{
		Attr:           "title",
		KeyFunc:        blocking.NormalizedPrefix(3),
		NumReduceTasks: 4,
		UseCombiner:    true,
	})
	input := make([][]bdm.Annotated, len(parts))
	for i, p := range parts {
		input[i] = make([]bdm.Annotated, len(p))
		for k, e := range p {
			input[i][k] = bdm.Annotated{Value: e}
		}
	}
	typed, err := job.RunContext(t.Context(), &mapreduce.Engine{Parallelism: 2}, input)
	if err != nil {
		t.Fatalf("typed run: %v", err)
	}
	ext, err := job.RunContext(t.Context(), &mapreduce.Engine{
		Parallelism: 2,
		Dataflow:    mapreduce.DataflowExternal,
		SpillBudget: tinySpillBudget,
		TmpDir:      t.TempDir(),
	}, input)
	if err != nil {
		t.Fatalf("external run: %v", err)
	}
	assertSpilled(t, "bdm", ext.MapMetrics, 4)
	clearResultSpillCounters(&ext.Metrics)
	if !reflect.DeepEqual(typed, ext) {
		t.Errorf("BDM job Result (incl. SideOutput) diverges between dataflows\ntyped: %+v\nexternal: %+v", typed, ext)
	}
}
