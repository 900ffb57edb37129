// Package experiments regenerates every table and figure of the paper's
// evaluation section (Section VI and Figure 8). Each Figure* function
// returns a report.Table whose rows are the series the corresponding
// figure plots. The cmd/erbench CLI and the repository's benchmarks are
// thin wrappers around this package.
//
// Execution-time figures use the analytic planners plus the cluster
// simulator (see DESIGN.md for the substitution argument); the planners
// are validated against the executing MapReduce engine by the test
// suites in internal/core and internal/er.
package experiments

import (
	"context"

	"fmt"

	"repro/internal/bdm"
	"repro/internal/blocking"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/entity"
	"repro/internal/er"
	"repro/internal/mapreduce"
	"repro/internal/report"
)

// Options tunes the harness. Scale shrinks the DS1/DS2 stand-ins for
// quick runs; 1.0 reproduces full-size datasets (planner mode keeps even
// those fast).
type Options struct {
	// RunOptions is the shared execution plumbing for executed-mode
	// runs: Parallelism bounds concurrently executing tasks per phase
	// (0 = the harness default of 8; cmd/erbench -parallelism),
	// SpillBudget > 0 selects the out-of-core external dataflow
	// (cmd/erbench -spill-budget) with TmpDir as the spill-directory
	// root (cmd/erbench -tmpdir).
	er.RunOptions

	Scale float64
	Cost  cluster.CostModel
	// Executed switches Figures 9 and 10 from the analytic planner to
	// real execution on the MapReduce engine: both jobs run, every
	// comparison is counted by the reduce functions, and the cluster
	// simulator consumes the *measured* per-task workloads. Because the
	// planners are exact, executed and planner mode produce identical
	// tables (a property the tests assert); executed mode exists to
	// demonstrate that, and is limited by real O(P) work.
	Executed bool
	// Dataset, when non-nil, replaces the generated DS1 stand-in with a
	// real dataset (cmd/erbench -in streams one from CSV via
	// entity.ScanCSV).
	Dataset []entity.Entity
}

// DefaultOptions uses a 5% scale — large enough for stable shapes,
// small enough for seconds-long runs.
func DefaultOptions() Options {
	return Options{Scale: 0.05, Cost: cluster.DefaultCostModel()}
}

func (o Options) scale() float64 {
	if o.Scale <= 0 {
		return 0.05
	}
	return o.Scale
}

func (o Options) parallelism() int {
	if o.Parallelism <= 0 {
		return 8
	}
	return o.Parallelism
}

// runOptions returns the executed-mode RunOptions with the harness's
// parallelism default applied; engine resolution and the out-of-core
// switch live in er.RunOptions.ResolveEngine.
func (o Options) runOptions() er.RunOptions {
	ro := o.RunOptions
	ro.Parallelism = o.parallelism()
	return ro
}

// engine builds the executed-mode engine: in-memory typed by default,
// the out-of-core external dataflow when a spill budget is set.
func (o Options) engine() *mapreduce.Engine {
	ro := o.runOptions()
	return ro.ResolveEngine()
}

// strategies in the order the paper plots them.
func allStrategies() []core.Strategy {
	return []core.Strategy{core.Basic{}, core.BlockSplit{}, core.PairRange{}}
}

// ds1 generates the DS1 stand-in, already shuffled (unsorted order) —
// or returns the caller-supplied real dataset when Options.Dataset is
// set (cmd/erbench -in).
func ds1(o Options) []entity.Entity {
	if o.Dataset != nil {
		return o.Dataset
	}
	es, _ := datagen.Generate(datagen.DS1Spec(o.scale()))
	return es
}

func ds2(o Options) []entity.Entity {
	es, _ := datagen.Generate(datagen.DS2Spec(o.scale()))
	return es
}

func buildBDM(es []entity.Entity, m int, key blocking.KeyFunc) (*bdm.Matrix, error) {
	parts := entity.SplitRoundRobin(es, m)
	return bdm.FromPartitions(parts, datagen.AttrTitle, key)
}

// strategyTime returns the simulated execution time of the full workflow
// for one strategy, using the analytic planner or — in executed mode —
// the measured workloads of a real engine run.
func strategyTime(ctx context.Context, o Options, parts entity.Partitions, x *bdm.Matrix, strat core.Strategy, attr string, key blocking.KeyFunc, r int, cfg cluster.Config) (float64, error) {
	if !o.Executed {
		t, _, err := er.SimulatedStrategyTime(x, strat, x.NumPartitions(), r, cfg, o.Cost)
		return t, err
	}
	res, err := er.RunPipeline(ctx, er.FromPartitions(parts), er.Config{
		RunOptions:  o.runOptions(),
		Strategy:    strat,
		Attr:        attr,
		BlockKey:    key,
		R:           r,
		UseCombiner: true,
	})
	if err != nil {
		return 0, err
	}
	return er.SimulateWorkloads(cfg, o.Cost, res.Workloads())
}

// Figure8 reproduces the dataset-statistics table: entities, blocks,
// size and pair share of the largest block, total pairs.
func Figure8(ctx context.Context, o Options) (*report.Table, error) {
	t := &report.Table{
		Title:   fmt.Sprintf("Figure 8: datasets (scale=%g)", o.scale()),
		Headers: []string{"dataset", "entities", "blocks", "largest block", "largest %ents", "pairs", "largest %pairs"},
	}
	for _, d := range []struct {
		name string
		es   []entity.Entity
	}{{"DS1", ds1(o)}, {"DS2", ds2(o)}} {
		st := datagen.ComputeStats(d.es, datagen.AttrTitle, datagen.BlockKey())
		t.AddRow(d.name, st.Entities, st.Blocks, st.LargestBlock,
			fmt.Sprintf("%.1f%%", 100*st.LargestBlockFrac),
			st.Pairs,
			fmt.Sprintf("%.1f%%", 100*st.LargestPairsFrac))
	}
	return t, nil
}

// Figure9 reproduces the robustness experiment: average execution time
// per 10^4 pairs for skew factors s ∈ [0, 1] with b=100 blocks, n=10
// nodes, m=20 map tasks, r=100 reduce tasks. Basic is fastest at s=0
// (no BDM job) and degrades steeply with skew; BlockSplit and PairRange
// stay flat.
func Figure9(ctx context.Context, o Options) (*report.Table, error) {
	const (
		nodes  = 10
		m      = 20
		r      = 100
		blocks = 100
	)
	nEntities := scaledCount(114000, o.scale())
	cfg := cluster.DefaultSlots(nodes)
	t := &report.Table{
		Title:   fmt.Sprintf("Figure 9: time per 10^4 pairs vs. data skew (n=%d entities, b=%d, nodes=%d, m=%d, r=%d)", nEntities, blocks, nodes, m, r),
		Headers: []string{"skew s", "pairs", "Basic", "BlockSplit", "PairRange"},
	}
	for _, s := range []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0} {
		es := datagen.Exponential(nEntities, blocks, s, 42)
		parts := entity.SplitRoundRobin(es, m)
		x, err := bdm.FromPartitions(parts, datagen.AttrBlock, blocking.Identity())
		if err != nil {
			return nil, err
		}
		pairs := x.Pairs()
		row := []any{s, pairs}
		for _, strat := range allStrategies() {
			tt, err := strategyTime(ctx, o, parts, x, strat, datagen.AttrBlock, blocking.Identity(), r, cfg)
			if err != nil {
				return nil, err
			}
			perPairs := tt / (float64(pairs) / 1e4)
			row = append(row, perPairs)
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Figure10 reproduces the reduce-task experiment on DS1: execution time
// for r ∈ {20..160}, nodes=10, m=20. Basic is bounded below by its
// largest block and shows peaks when several large blocks hash to the
// same reduce task; BlockSplit and PairRange improve with r.
func Figure10(ctx context.Context, o Options) (*report.Table, error) {
	const (
		nodes = 10
		m     = 20
	)
	es := ds1(o)
	parts := entity.SplitRoundRobin(es, m)
	x, err := bdm.FromPartitions(parts, datagen.AttrTitle, datagen.BlockKey())
	if err != nil {
		return nil, err
	}
	cfg := cluster.DefaultSlots(nodes)
	t := &report.Table{
		Title:   fmt.Sprintf("Figure 10: execution time vs. number of reduce tasks (DS1 scale=%g, nodes=%d, m=%d)", o.scale(), nodes, m),
		Headers: []string{"r", "Basic", "BlockSplit", "PairRange"},
	}
	for r := 20; r <= 160; r += 20 {
		row := []any{r}
		for _, strat := range allStrategies() {
			tt, err := strategyTime(ctx, o, parts, x, strat, datagen.AttrTitle, datagen.BlockKey(), r, cfg)
			if err != nil {
				return nil, err
			}
			row = append(row, tt)
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Figure11 reproduces the sorted-input experiment: BlockSplit and
// PairRange on DS1 partitioned in arbitrary (round-robin) order versus
// sorted by title and split contiguously. Sorting groups large blocks
// into few partitions, crippling BlockSplit's splitting; PairRange is
// unaffected.
func Figure11(ctx context.Context, o Options) (*report.Table, error) {
	const (
		nodes = 10
		m     = 20
	)
	es := ds1(o)
	cfg := cluster.DefaultSlots(nodes)

	unsortedBDM, err := bdm.FromPartitions(entity.SplitRoundRobin(es, m), datagen.AttrTitle, datagen.BlockKey())
	if err != nil {
		return nil, err
	}
	sorted := entity.SortByAttr(es, datagen.AttrTitle)
	sortedBDM, err := bdm.FromPartitions(entity.SplitContiguous(sorted, m), datagen.AttrTitle, datagen.BlockKey())
	if err != nil {
		return nil, err
	}

	t := &report.Table{
		Title:   fmt.Sprintf("Figure 11: sorted vs. unsorted input (DS1 scale=%g, nodes=%d, m=%d)", o.scale(), nodes, m),
		Headers: []string{"r", "BlockSplit unsorted", "BlockSplit sorted", "PairRange unsorted", "PairRange sorted"},
	}
	for r := 20; r <= 160; r += 20 {
		row := []any{r}
		for _, strat := range []core.Strategy{core.BlockSplit{}, core.PairRange{}} {
			for _, x := range []*bdm.Matrix{unsortedBDM, sortedBDM} {
				tt, _, err := er.SimulatedStrategyTime(x, strat, m, r, cfg, o.Cost)
				if err != nil {
					return nil, err
				}
				row = append(row, tt)
			}
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Figure12 reproduces the map-output experiment: number of key-value
// pairs emitted by the map phase of the matching job for r ∈ {20..160}.
// Basic always emits exactly one pair per entity; BlockSplit grows
// step-wise (splitting more blocks as r grows); PairRange grows almost
// linearly with r and eventually emits the most.
func Figure12(ctx context.Context, o Options) (*report.Table, error) {
	const m = 20
	es := ds1(o)
	x, err := buildBDM(es, m, datagen.BlockKey())
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title:   fmt.Sprintf("Figure 12: map output key-value pairs vs. r (DS1 scale=%g, m=%d)", o.scale(), m),
		Headers: []string{"r", "Basic", "BlockSplit", "PairRange"},
	}
	for r := 20; r <= 160; r += 20 {
		row := []any{r}
		for _, strat := range allStrategies() {
			plan, err := strat.Plan(x, m, r)
			if err != nil {
				return nil, err
			}
			row = append(row, plan.TotalMapEmits())
		}
		t.AddRow(row...)
	}
	return t, nil
}

// scalabilityNodes is the node sweep of Figures 13 and 14.
var scalabilityNodes = []int{1, 2, 5, 10, 20, 40, 100}

// Figure13 reproduces the DS1 scalability experiment: execution time and
// speedup for n nodes with m=2n map and r=10n reduce tasks. Basic stops
// scaling past ~2 nodes; the balanced strategies scale near-linearly up
// to ~10 nodes at DS1's size.
func Figure13(ctx context.Context, o Options) (*report.Table, error) {
	return scalability("Figure 13", ds1(o), allStrategies(), o)
}

// Figure14 reproduces the DS2 scalability experiment (BlockSplit and
// PairRange only — the paper drops Basic for the large dataset). The
// 10× larger workload keeps per-task comparisons reasonable, so
// near-linear scaling extends to ~40 nodes.
func Figure14(ctx context.Context, o Options) (*report.Table, error) {
	return scalability("Figure 14", ds2(o), []core.Strategy{core.BlockSplit{}, core.PairRange{}}, o)
}

func scalability(name string, es []entity.Entity, strats []core.Strategy, o Options) (*report.Table, error) {
	headers := []string{"nodes", "m", "r"}
	for _, s := range strats {
		headers = append(headers, s.Name(), s.Name()+" speedup")
	}
	t := &report.Table{
		Title:   fmt.Sprintf("%s: scalability (entities=%d, m=2n, r=10n)", name, len(es)),
		Headers: headers,
	}
	base := make([]float64, len(strats))
	for _, nodes := range scalabilityNodes {
		m, r := 2*nodes, 10*nodes
		x, err := buildBDM(es, m, datagen.BlockKey())
		if err != nil {
			return nil, err
		}
		cfg := cluster.DefaultSlots(nodes)
		row := []any{nodes, m, r}
		for i, strat := range strats {
			tt, _, err := er.SimulatedStrategyTime(x, strat, m, r, cfg, o.Cost)
			if err != nil {
				return nil, err
			}
			if nodes == scalabilityNodes[0] {
				base[i] = tt
			}
			row = append(row, tt, base[i]/tt)
		}
		t.AddRow(row...)
	}
	return t, nil
}

func scaledCount(n int, scale float64) int {
	s := int(float64(n) * scale)
	if s < 100 {
		s = 100
	}
	return s
}

// ByNumber dispatches to the figure functions; valid numbers are 8-14.
func ByNumber(ctx context.Context, figure int, o Options) (*report.Table, error) {
	switch figure {
	case 8:
		return Figure8(ctx, o)
	case 9:
		return Figure9(ctx, o)
	case 10:
		return Figure10(ctx, o)
	case 11:
		return Figure11(ctx, o)
	case 12:
		return Figure12(ctx, o)
	case 13:
		return Figure13(ctx, o)
	case 14:
		return Figure14(ctx, o)
	default:
		return nil, fmt.Errorf("experiments: no figure %d (valid: 8-14)", figure)
	}
}
