// Package core implements the paper's primary contribution: the three
// entity-redistribution strategies for MapReduce-based entity resolution
// with blocking —
//
//   - Basic (Section III): the straightforward one-block-per-reduce-call
//     dataflow, vulnerable to data skew;
//   - BlockSplit (Section IV): splits above-average blocks into
//     per-input-partition sub-blocks and greedily assigns the resulting
//     match tasks to reduce tasks;
//   - PairRange (Section V): globally enumerates all entity pairs and
//     assigns each reduce task an (almost) equal-sized contiguous range
//     of pair indexes.
//
// Each strategy can produce an executable mapreduce.Job (Job 2 of the
// paper's workflow, consuming the BDM job's annotated side output) and an
// analytic Plan that computes the identical per-task workloads directly
// from the BDM without materializing any pairs. Plans make cluster-scale
// experiments (Figures 13/14) tractable on one machine; tests assert that
// executed workloads and planned workloads agree exactly.
//
// Every job runs one comparison loop per reducer over a PreparedMatcher:
// each entity is prepared once per reduce group and the O(group²) pairs
// compare prepared forms. A plain Matcher function is a PreparedMatcher
// whose prepared form is the entity, and a nil matcher counts
// comparisons only.
//
// Two-source variants (Appendix I) are provided as BlockSplitDual and
// PairRangeDual.
package core

import (
	"fmt"
	"strings"

	"repro/internal/bdm"
	"repro/internal/cluster"
	"repro/internal/entity"
	"repro/internal/mapreduce"
)

// Matcher compares two entities and reports their similarity and whether
// they match. Matchers are invoked from concurrently executing reduce
// tasks and must be safe for concurrent use (pure functions, the common
// case, trivially are).
//
// A Matcher is also a PreparedMatcher whose prepared form is the entity
// itself, so a plain function runs through the same comparison loop as
// a prepared kernel: core.Matcher(f) wherever a PreparedMatcher is
// expected. A nil Matcher counts comparisons without comparing — used
// by benchmarks that only measure redistribution behaviour.
type Matcher func(a, b entity.Entity) (float64, bool)

// Prepare implements PreparedMatcher: the prepared form of an entity is
// the entity. A nil Matcher returns nil without allocating.
func (m Matcher) Prepare(e entity.Entity) PreparedEntity {
	if m == nil {
		return nil
	}
	return e
}

// MatchPrepared implements PreparedMatcher. A nil Matcher never matches.
func (m Matcher) MatchPrepared(a, b PreparedEntity) (float64, bool) {
	if m == nil {
		return 0, false
	}
	return m(a.(entity.Entity), b.(entity.Entity))
}

// OrCountOnly returns pm, or the nil Matcher when pm is nil: the form a
// comparison loop runs, so no loop needs a nil branch.
func OrCountOnly(pm PreparedMatcher) PreparedMatcher {
	if pm == nil {
		return Matcher(nil)
	}
	return pm
}

// PreparedEntity is the opaque prepared form of one entity: whatever a
// PreparedMatcher derives once per entity (cached runes, token sets,
// n-gram profiles, …) so that the O(group²) comparison loop of a reduce
// call runs on precomputed forms.
type PreparedEntity any

// PreparedMatcher is the two-phase matcher every job runs. The reducers
// of all strategies prepare each entity exactly once per key group —
// O(group) preparation instead of re-deriving both sides on every one of
// the O(group²) comparisons — and invoke MatchPrepared on the cached
// forms. Prepare is called from a single goroutine per reduce group; the
// returned PreparedEntity is never shared across groups. MatchPrepared
// must be safe for concurrent use across groups (pure functions are).
//
// A PreparedMatcher must be semantically equivalent to the plain Matcher
// PlainMatcher derives from it: same decisions, same similarities.
type PreparedMatcher interface {
	// Prepare derives the cached comparison form of one entity.
	Prepare(e entity.Entity) PreparedEntity
	// MatchPrepared compares two prepared entities and reports their
	// similarity and whether they match.
	MatchPrepared(a, b PreparedEntity) (float64, bool)
}

// PreparedReleaser is an optional extension of PreparedMatcher: a
// matcher whose prepared forms come from a free list implements it, and
// the strategy reducers hand every PreparedEntity back via
// ReleasePrepared as soon as its reduce group is finished. A released
// entity must never be used again. Matchers without the interface are
// simply never released (the GC reclaims their prepared forms).
type PreparedReleaser interface {
	ReleasePrepared(PreparedEntity)
}

// PlainMatcher adapts a PreparedMatcher to the plain Matcher form by
// preparing both entities on every call. The serial references take a
// plain Matcher; results are identical, only the per-pair preparation
// cost returns.
func PlainMatcher(pm PreparedMatcher) Matcher {
	rel, _ := pm.(PreparedReleaser)
	return func(a, b entity.Entity) (float64, bool) {
		pa, pb := pm.Prepare(a), pm.Prepare(b)
		sim, ok := pm.MatchPrepared(pa, pb)
		if rel != nil {
			rel.ReleasePrepared(pa)
			rel.ReleasePrepared(pb)
		}
		return sim, ok
	}
}

// matchKernel is the matcher a strategy reducer runs, with its optional
// release hook.
type matchKernel struct {
	pm  PreparedMatcher
	rel PreparedReleaser
}

// preparedKernel builds the kernel for a prepared matcher (nil counts
// comparisons only), wiring the release hook when the matcher provides
// one.
func preparedKernel(pm PreparedMatcher) matchKernel {
	k := matchKernel{pm: OrCountOnly(pm)}
	if r, ok := k.pm.(PreparedReleaser); ok {
		k.rel = r
	}
	return k
}

// release hands one prepared entity back to the matcher's free list.
func (k *matchKernel) release(p PreparedEntity) {
	if k.rel != nil {
		k.rel.ReleasePrepared(p)
	}
}

// releaseAll hands a whole group buffer back.
func (k *matchKernel) releaseAll(ps []PreparedEntity) {
	if k.rel == nil {
		return
	}
	for _, p := range ps {
		k.rel.ReleasePrepared(p)
	}
}

// MatchPair is one entry of the match result: the IDs of two entities
// considered the same, with A < B lexicographically for canonical form.
type MatchPair struct {
	A, B string
}

// NewMatchPair returns the canonical (ordered) pair for two entity IDs.
// The IDs are copied: match pairs are retained in job output long after
// the reduce call, and on the external dataflow's arena read path an
// entity ID aliases a ~32KB decode block — a retained alias would pin
// the whole block. Copying only on match (not per comparison) keeps the
// cost proportional to the result size; both IDs share one allocation.
func NewMatchPair(id1, id2 string) MatchPair {
	if id1 > id2 {
		id1, id2 = id2, id1
	}
	joined := id1 + id2
	return MatchPair{A: joined[:len(id1)], B: joined[len(id1):]}
}

func (p MatchPair) String() string { return p.A + "|" + p.B }

// CompareMatchPairs orders pairs lexicographically (A, then B) — the
// canonical match-result order used by every pipeline.
func CompareMatchPairs(a, b MatchPair) int {
	if c := strings.Compare(a.A, b.A); c != 0 {
		return c
	}
	return strings.Compare(a.B, b.B)
}

// ComparisonsCounter is the user-counter name under which every
// strategy's reduce function records the number of pair comparisons it
// performed. The cluster simulator keys its cost model off it. It
// aliases the engine's constant, which gives it an allocation-free fast
// path in the contexts' Inc.
const ComparisonsCounter = mapreduce.ComparisonsCounter

// AnnotatedEntity is one input record of a matching job: an entity
// annotated with its blocking key — the format of the BDM job's side
// output (Algorithm 3's "additionalOutput").
type AnnotatedEntity = mapreduce.Pair[string, entity.Entity]

// MatchOutput is one emitted match: the canonical pair and its
// similarity.
type MatchOutput = mapreduce.Pair[MatchPair, float64]

// MatchJob is a runnable matching job (Job 2 of the paper's workflow)
// with the strategy's intermediate key/value types erased: all
// strategies consume blocking-key-annotated entities and emit match
// pairs, but each redistributes through its own composite key type.
type MatchJob = mapreduce.JobRunner[AnnotatedEntity, MatchOutput]

// MatchJobResult is the result of executing a MatchJob.
type MatchJobResult = mapreduce.Result[AnnotatedEntity, MatchOutput]

// matchCtx is the reduce-side context type shared by all strategy
// reducers.
type matchCtx = mapreduce.ReduceContext[MatchOutput]

// Strategy is a one-source redistribution strategy. Implementations:
// Basic, BlockSplit, PairRange.
type Strategy interface {
	// Name returns the paper's name for the strategy.
	Name() string
	// NeedsBDM reports whether the strategy requires the block
	// distribution matrix (true for BlockSplit and PairRange; Basic runs
	// as a single job without the preprocessing step).
	NeedsBDM() bool
	// JobPrepared builds the executable MR Job 2 with pm driving the
	// reduce phase's comparison loop (nil counts comparisons only; a
	// plain function runs as core.Matcher(f)). Input records must be
	// the BDM job's side output (blocking-key-annotated entities). x may
	// be nil iff !NeedsBDM().
	JobPrepared(x *bdm.Matrix, r int, pm PreparedMatcher) (MatchJob, error)
	// Plan computes the exact per-task workloads JobPrepared would
	// produce for m input partitions and r reduce tasks, without
	// executing anything.
	Plan(x *bdm.Matrix, m, r int) (*Plan, error)
}

// PreparedStrategy is Strategy under the name the benchmark module
// (perfbench/, a separate module pinned to this API) still uses; new
// code names Strategy.
type PreparedStrategy = Strategy

// DualStrategy is a two-source (R×S) redistribution strategy from
// Appendix I. Implementations: BlockSplitDual, PairRangeDual.
type DualStrategy interface {
	Name() string
	// JobPrepared builds the matching job; pm is as for
	// Strategy.JobPrepared.
	JobPrepared(x *bdm.DualMatrix, r int, pm PreparedMatcher) (MatchJob, error)
	Plan(x *bdm.DualMatrix, r int) (*Plan, error)
}

// Plan holds the exact per-task workloads a strategy's Job 2 produces.
// It is the analytic twin of an executed job's metrics.
type Plan struct {
	Strategy string
	M, R     int
	// MapRecords[i] is the number of input records map task i reads;
	// MapEmits[i] the number of key-value pairs it emits.
	MapRecords []int64
	MapEmits   []int64
	// ReduceRecords[j] is the number of key-value pairs reduce task j
	// receives; ReduceComparisons[j] the number of pair comparisons it
	// performs.
	ReduceRecords     []int64
	ReduceComparisons []int64
}

// TotalComparisons sums the per-reduce-task comparisons; for a correct
// plan this equals the BDM's total pair count P.
func (p *Plan) TotalComparisons() int64 {
	var t int64
	for _, c := range p.ReduceComparisons {
		t += c
	}
	return t
}

// TotalMapEmits sums the emitted map-output key-value pairs (the metric
// of Figure 12).
func (p *Plan) TotalMapEmits() int64 {
	var t int64
	for _, e := range p.MapEmits {
		t += e
	}
	return t
}

// MaxReduceComparisons returns the heaviest reduce-task workload, the
// quantity that lower-bounds the reduce-phase makespan.
func (p *Plan) MaxReduceComparisons() int64 {
	var mx int64
	for _, c := range p.ReduceComparisons {
		if c > mx {
			mx = c
		}
	}
	return mx
}

// Workload converts the plan into the cluster simulator's job workload.
func (p *Plan) Workload(name string) cluster.JobWorkload {
	return cluster.JobWorkload{
		Name:              name,
		MapRecords:        p.MapRecords,
		MapEmits:          p.MapEmits,
		ReduceRecords:     p.ReduceRecords,
		ReduceComparisons: p.ReduceComparisons,
	}
}

func newPlan(strategy string, m, r int) *Plan {
	return &Plan{
		Strategy:          strategy,
		M:                 m,
		R:                 r,
		MapRecords:        make([]int64, m),
		MapEmits:          make([]int64, m),
		ReduceRecords:     make([]int64, r),
		ReduceComparisons: make([]int64, r),
	}
}

// matchAndEmitPrepared performs one comparison on already-prepared
// forms and emits the canonical pair on success.
func matchAndEmitPrepared(ctx *matchCtx, pm PreparedMatcher, a, b entity.Entity, pa, pb PreparedEntity) {
	ctx.Inc(ComparisonsCounter, 1)
	if sim, ok := pm.MatchPrepared(pa, pb); ok {
		ctx.Emit(MatchOutput{Key: NewMatchPair(a.ID, b.ID), Value: sim})
	}
}

func validateJobParams(name string, r int) error {
	if r <= 0 {
		return fmt.Errorf("core: %s: number of reduce tasks must be > 0, got %d", name, r)
	}
	return nil
}

func validatePlanParams(name string, m, r int) error {
	if m <= 0 {
		return fmt.Errorf("core: %s: number of map tasks must be > 0, got %d", name, m)
	}
	return validateJobParams(name, r)
}
