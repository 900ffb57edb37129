package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bdm"
	"repro/internal/blocking"
	"repro/internal/entity"
	"repro/internal/mapreduce"
)

// Two-source example in the spirit of Figure 15: source R in one
// partition, source S in two, blocks w/x/y/z where y exists only in R
// (so it needs no processing) and z is the largest block.
func dualExample() (parts entity.Partitions, sources []bdm.Source) {
	mk := func(id, block string) entity.Entity { return entity.New(id, exAttr, block) }
	parts = entity.Partitions{
		// Π0 = R
		{mk("A", "w"), mk("B", "w"), mk("C", "z"), mk("D", "z"), mk("E", "y"), mk("F", "x")},
		// Π1 = S
		{mk("G", "w"), mk("H", "w"), mk("I", "z"), mk("J", "z")},
		// Π2 = S
		{mk("K", "x"), mk("L", "z")},
	}
	sources = []bdm.Source{bdm.SourceR, bdm.SourceS, bdm.SourceS}
	return parts, sources
}

func dualExampleBDM(t *testing.T) *bdm.DualMatrix {
	t.Helper()
	parts, sources := dualExample()
	x, err := bdm.FromDualPartitions(parts, sources, exAttr, blocking.Identity())
	if err != nil {
		t.Fatalf("FromDualPartitions: %v", err)
	}
	return x
}

func TestDualBDMExample(t *testing.T) {
	x := dualExampleBDM(t)
	// Blocks lexicographic: w, x, y, z.
	wantPairs := map[string]int64{"w": 4, "x": 1, "y": 0, "z": 6}
	var total int64
	for key, want := range wantPairs {
		k, ok := x.BlockIndex(key)
		if !ok {
			t.Fatalf("block %q missing", key)
		}
		if got := x.BlockPairs(k); got != want {
			t.Errorf("block %q pairs = %d, want %d", key, got, want)
		}
		total += want
	}
	if got := x.Pairs(); got != total {
		t.Errorf("Pairs = %d, want %d", got, total)
	}
	zk, _ := x.BlockIndex("z")
	if got := x.SourceSize(zk, bdm.SourceR); got != 2 {
		t.Errorf("|z,R| = %d, want 2", got)
	}
	if got := x.SourceSize(zk, bdm.SourceS); got != 3 {
		t.Errorf("|z,S| = %d, want 3", got)
	}
	// Entity offsets: L (partition 2, S) is the third S entity of z.
	if got := x.EntityOffset(zk, 2); got != 2 {
		t.Errorf("EntityOffset(z, Π2) = %d, want 2", got)
	}
}

// expectedDualPairs computes the cross-source pairs serially.
func expectedDualPairs(parts entity.Partitions, sources []bdm.Source) map[MatchPair]bool {
	blocksR := make(map[string][]entity.Entity)
	blocksS := make(map[string][]entity.Entity)
	for p, part := range parts {
		for _, e := range part {
			k := e.Attr(exAttr)
			if sources[p] == bdm.SourceR {
				blocksR[k] = append(blocksR[k], e)
			} else {
				blocksS[k] = append(blocksS[k], e)
			}
		}
	}
	want := make(map[MatchPair]bool)
	for k, rs := range blocksR {
		for _, er := range rs {
			for _, es := range blocksS[k] {
				want[NewMatchPair(er.ID, es.ID)] = true
			}
		}
	}
	return want
}

func runDualStrategy(t *testing.T, strat DualStrategy, x *bdm.DualMatrix, parts entity.Partitions, r int, match Matcher) *MatchJobResult {
	t.Helper()
	job, err := strat.JobPrepared(x, r, match)
	if err != nil {
		t.Fatalf("%s.JobPrepared: %v", strat.Name(), err)
	}
	res, err := job.RunContext(t.Context(), &mapreduce.Engine{}, annotatedInput(parts, exAttr))
	if err != nil {
		t.Fatalf("%s: Run: %v", strat.Name(), err)
	}
	return res
}

func TestDualExampleCompleteness(t *testing.T) {
	parts, sources := dualExample()
	x := dualExampleBDM(t)
	want := expectedDualPairs(parts, sources)
	for _, strat := range []DualStrategy{BlockSplitDual{}, PairRangeDual{}} {
		for _, r := range []int{1, 2, 3, 5, 11} {
			got := make(map[MatchPair]int)
			res := runDualStrategy(t, strat, x, parts, r, recordingMatcher(&got))
			if len(got) != len(want) {
				t.Fatalf("%s r=%d: %d distinct pairs, want %d", strat.Name(), r, len(got), len(want))
			}
			for p, c := range got {
				if !want[p] || c != 1 {
					t.Fatalf("%s r=%d: pair %v compared %d times (want once, expected=%v)", strat.Name(), r, p, c, want[p])
				}
			}
			if cmp := res.Counter(ComparisonsCounter); cmp != x.Pairs() {
				t.Errorf("%s r=%d: %d comparisons, want P=%d", strat.Name(), r, cmp, x.Pairs())
			}
		}
	}
}

func TestDualBlockSplitSplitsLargestBlock(t *testing.T) {
	x := dualExampleBDM(t)
	asg := buildDualAssignment(x, 3)
	// P=11, avg=11/3=3: w (4 pairs) and z (6 pairs) split; x (1) stays.
	if asg.avg != 3 {
		t.Fatalf("avg = %d, want 3", asg.avg)
	}
	zk, _ := x.BlockIndex("z")
	if _, ok := asg.tasks[dualTaskID{block: zk, rPart: -1, sPart: -1}]; ok {
		t.Error("block z was not split despite exceeding the average workload")
	}
	// Split tasks pair R partition 0 with S partitions 1 and 2.
	if task := asg.tasks[dualTaskID{block: zk, rPart: 0, sPart: 1}]; task == nil || task.comps != 4 {
		t.Errorf("task z.0x1 = %+v, want 4 comps", task)
	}
	if task := asg.tasks[dualTaskID{block: zk, rPart: 0, sPart: 2}]; task == nil || task.comps != 2 {
		t.Errorf("task z.0x2 = %+v, want 2 comps", task)
	}
	// Block y has no S entities: no task at all.
	yk, _ := x.BlockIndex("y")
	for id := range asg.tasks {
		if id.block == yk {
			t.Errorf("block y got match task %v despite empty S side", id)
		}
	}
}

func TestDualPlanMatchesExecution(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 15; trial++ {
		parts, sources := randomDualParts(rng, rng.Intn(120)+2, rng.Intn(3)+1, rng.Intn(3)+1, rng.Intn(6)+1)
		x, err := bdm.FromDualPartitions(parts, sources, exAttr, blocking.Identity())
		if err != nil {
			t.Fatalf("FromDualPartitions: %v", err)
		}
		r := rng.Intn(10) + 1
		for _, strat := range []DualStrategy{BlockSplitDual{}, PairRangeDual{}} {
			plan, err := strat.Plan(x, r)
			if err != nil {
				t.Fatalf("%s.Plan: %v", strat.Name(), err)
			}
			res := runDualStrategy(t, strat, x, parts, r, nil)
			for i := range res.MapMetrics {
				if got, want := res.MapMetrics[i].OutputRecords, plan.MapEmits[i]; got != want {
					t.Errorf("%s trial %d: map task %d emits %d, planned %d", strat.Name(), trial, i, got, want)
				}
			}
			for j := range res.ReduceMetrics {
				if got, want := res.ReduceMetrics[j].InputRecords, plan.ReduceRecords[j]; got != want {
					t.Errorf("%s trial %d: reduce task %d records %d, planned %d", strat.Name(), trial, j, got, want)
				}
				if got, want := res.ReduceMetrics[j].Counter(ComparisonsCounter), plan.ReduceComparisons[j]; got != want {
					t.Errorf("%s trial %d: reduce task %d comparisons %d, planned %d", strat.Name(), trial, j, got, want)
				}
			}
			if got := plan.TotalComparisons(); got != x.Pairs() {
				t.Errorf("%s trial %d: Σ comparisons = %d, want P=%d", strat.Name(), trial, got, x.Pairs())
			}
		}
	}
}

func TestDualCompletenessFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for trial := 0; trial < 15; trial++ {
		parts, sources := randomDualParts(rng, rng.Intn(100)+2, rng.Intn(3)+1, rng.Intn(3)+1, rng.Intn(5)+1)
		x, err := bdm.FromDualPartitions(parts, sources, exAttr, blocking.Identity())
		if err != nil {
			t.Fatalf("FromDualPartitions: %v", err)
		}
		want := expectedDualPairs(parts, sources)
		r := rng.Intn(8) + 1
		for _, strat := range []DualStrategy{BlockSplitDual{}, PairRangeDual{}} {
			got := make(map[MatchPair]int)
			runDualStrategy(t, strat, x, parts, r, recordingMatcher(&got))
			if len(got) != len(want) {
				t.Fatalf("%s trial %d r=%d: %d pairs, want %d", strat.Name(), trial, r, len(got), len(want))
			}
			for p, c := range got {
				if !want[p] || c != 1 {
					t.Fatalf("%s: pair %v count %d", strat.Name(), p, c)
				}
			}
		}
	}
}

func TestDualPairRangeBalanceBound(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 20; trial++ {
		parts, sources := randomDualParts(rng, rng.Intn(200)+2, 2, 2, rng.Intn(5)+1)
		x, err := bdm.FromDualPartitions(parts, sources, exAttr, blocking.Identity())
		if err != nil {
			t.Fatal(err)
		}
		r := rng.Intn(12) + 1
		plan, err := PairRangeDual{}.Plan(x, r)
		if err != nil {
			t.Fatal(err)
		}
		q := NewRanges(x.Pairs(), r).Q
		for j, c := range plan.ReduceComparisons {
			if c > q {
				t.Fatalf("reduce task %d: %d comparisons > ceil(P/r)=%d", j, c, q)
			}
		}
	}
}

func TestDualRejectsBadParams(t *testing.T) {
	x := dualExampleBDM(t)
	for _, strat := range []DualStrategy{BlockSplitDual{}, PairRangeDual{}} {
		if _, err := strat.JobPrepared(x, 0, nil); err == nil {
			t.Errorf("%s.JobPrepared(r=0) succeeded", strat.Name())
		}
		if _, err := strat.JobPrepared(nil, 3, nil); err == nil {
			t.Errorf("%s.JobPrepared(nil) succeeded", strat.Name())
		}
		if _, err := strat.Plan(nil, 3); err == nil {
			t.Errorf("%s.Plan(nil) succeeded", strat.Name())
		}
	}
}

// randomDualParts builds mr R-partitions and ms S-partitions with skewed
// block membership.
func randomDualParts(rng *rand.Rand, n, mr, ms, blocks int) (entity.Partitions, []bdm.Source) {
	parts := make(entity.Partitions, mr+ms)
	sources := make([]bdm.Source, mr+ms)
	for i := range sources {
		if i >= mr {
			sources[i] = bdm.SourceS
		}
	}
	for i := 0; i < n; i++ {
		b := int(float64(blocks) * rng.Float64() * rng.Float64())
		if b >= blocks {
			b = blocks - 1
		}
		e := entity.New(fmt.Sprintf("e%04d", i), exAttr, fmt.Sprintf("b%03d", b))
		p := rng.Intn(mr + ms)
		parts[p] = append(parts[p], e)
	}
	return parts, sources
}
