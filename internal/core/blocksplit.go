package core

import (
	"fmt"
	"slices"

	"repro/internal/bdm"
	"repro/internal/entity"
	"repro/internal/mapreduce"
)

// BlockSplit implements the block-based load balancing strategy of
// Section IV. Blocks whose pair count does not exceed the average reduce
// workload P/r are processed like in Basic, as a single "match task".
// Larger blocks are split along the m input partitions into m sub-blocks,
// yielding m self-join match tasks (k.i) and m·(m−1)/2 cross-product
// match tasks (k.i×j). Match tasks are assigned to reduce tasks greedily
// in descending size order, each to the currently least-loaded task.
//
// The zero value is the paper's strategy. MaxEntitiesPerTask additionally
// enforces the memory constraint Section IV alludes to ("assigns entire
// blocks to reduce tasks if this does not violate load balancing or
// memory constraints"): a block whose entity count exceeds the limit is
// split even when its pair count is below the average reduce workload,
// bounding the number of entities any reduce call must buffer in memory.
type BlockSplit struct {
	// MaxEntitiesPerTask bounds the entities a single match task may
	// hold (0 = unlimited, the paper's default behaviour).
	MaxEntitiesPerTask int
}

// Name implements Strategy.
func (BlockSplit) Name() string { return "BlockSplit" }

// NeedsBDM implements Strategy.
func (BlockSplit) NeedsBDM() bool { return true }

// BSKey is the composite map-output key: reduce index ‖ block index ‖
// split. The partition function uses only Reduce; sorting and grouping
// use (Block, I, J). The split component (I, J) encodes the match task:
// I = J = −1 for an unsplit block (k.*), I = J = i for sub-block k.i,
// and I > J for the cross product k.J×I.
type BSKey struct {
	Reduce int
	Block  int
	I, J   int
}

func (k BSKey) String() string {
	switch {
	case k.I < 0:
		return fmt.Sprintf("%d.%d.*", k.Reduce, k.Block)
	case k.I == k.J:
		return fmt.Sprintf("%d.%d.%d", k.Reduce, k.Block, k.I)
	default:
		return fmt.Sprintf("%d.%d.%dx%d", k.Reduce, k.Block, k.J, k.I)
	}
}

// bsValue annotates an entity with its input partition index so the
// reduce function of a cross-product task can separate the two
// sub-blocks.
type bsValue struct {
	E         entity.Entity
	Partition int
}

// taskID identifies one match task.
type taskID struct {
	block int
	i, j  int // −1,−1 = unsplit; i==j = sub-block; i>j = cross product
}

// matchTask is one unit of reduce-side work with its assignment.
type matchTask struct {
	id     taskID
	comps  int64
	reduce int
}

// Assignment is the deterministic outcome of BlockSplit's match-task
// creation and greedy distribution; both the executable job and the
// analytic planner are driven by it. Exported for the ablation
// benchmarks, which compare the greedy heuristic against alternatives.
type Assignment struct {
	tasks   map[taskID]*matchTask
	ordered []*matchTask // descending comparisons
	arena   []matchTask  // chunked backing store of the task structs
	loads   []int64      // per reduce task
	avg     int64        // compsPerReduceTask = P/r
	split   []bool       // per block: was it split into sub-blocks?
}

// Split reports whether block k was split into sub-blocks.
func (a *Assignment) Split(k int) bool { return a.split[k] }

// ReduceLoads returns the per-reduce-task comparison loads.
func (a *Assignment) ReduceLoads() []int64 { return a.loads }

// NumTasks returns the number of match tasks created.
func (a *Assignment) NumTasks() int { return len(a.ordered) }

// AssignFunc chooses reduce tasks for match tasks; tasks arrive in
// descending comparison order. The default is greedy least-loaded.
type AssignFunc func(tasks []*matchTask, r int) (loads []int64)

// GreedyAssign implements the paper's heuristic: process match tasks in
// descending size and give each to the reduce task with the fewest
// already-assigned comparisons (ties: lowest index). The heap is
// hand-sifted rather than driven through container/heap, whose
// interface methods box one loadEntry per push and pop — two heap
// allocations per match task, which profiling showed dominating the
// planning phase on large assignments.
func GreedyAssign(tasks []*matchTask, r int) []int64 {
	loads := make([]int64, r)
	h := make(loadHeap, r)
	for i := range h {
		h[i] = loadEntry{load: 0, idx: i}
	}
	// All-zero loads with ascending indices is already a valid min-heap.
	for _, t := range tasks {
		t.reduce = h[0].idx
		h[0].load += t.comps
		loads[h[0].idx] = h[0].load
		h.siftDown(0)
	}
	return loads
}

// RoundRobinAssign is the naive baseline for the assignment ablation:
// match task n goes to reduce task n mod r regardless of size.
func RoundRobinAssign(tasks []*matchTask, r int) []int64 {
	loads := make([]int64, r)
	for n, t := range tasks {
		t.reduce = n % r
		loads[t.reduce] += t.comps
	}
	return loads
}

// BuildAssignment performs match-task creation (Algorithm 1, lines 6-21)
// and reduce-task assignment (lines 22-27) from the BDM, using the given
// assignment policy (nil = GreedyAssign).
func BuildAssignment(x *bdm.Matrix, r int, assign AssignFunc) *Assignment {
	return buildAssignment(x, r, assign, 0)
}

func buildAssignment(x *bdm.Matrix, r int, assign AssignFunc, maxEntities int) *Assignment {
	if assign == nil {
		assign = GreedyAssign
	}
	m := x.NumPartitions()
	a := &Assignment{
		tasks: make(map[taskID]*matchTask),
		split: make([]bool, x.NumBlocks()),
	}
	if p := x.Pairs(); p > 0 {
		a.avg = p / int64(r)
	}
	for k := 0; k < x.NumBlocks(); k++ {
		comps := x.BlockPairs(k)
		if comps <= a.avg && (maxEntities <= 0 || x.Size(k) <= maxEntities) {
			a.add(taskID{block: k, i: -1, j: -1}, comps)
			continue
		}
		// Split along the input partitions; skip combinations with an
		// empty side (|Φik|·|Φjk| = 0).
		a.split[k] = true
		for i := 0; i < m; i++ {
			ni := int64(x.SizeIn(k, i))
			for j := 0; j <= i; j++ {
				nj := int64(x.SizeIn(k, j))
				if ni*nj == 0 {
					continue
				}
				if i == j {
					a.add(taskID{block: k, i: i, j: i}, ni*(ni-1)/2)
				} else {
					a.add(taskID{block: k, i: i, j: j}, ni*nj)
				}
			}
		}
	}
	// Descending by comparisons; ties by ascending (block, i, j) for
	// determinism (this reproduces the ordering of the paper's example).
	// The tie-break makes the order total, so a non-stable sort on the
	// concrete type suffices.
	slices.SortFunc(a.ordered, func(tp, tq *matchTask) int {
		if tp.comps != tq.comps {
			if tp.comps > tq.comps {
				return -1
			}
			return 1
		}
		if c := tp.id.block - tq.id.block; c != 0 {
			return c
		}
		if c := tp.id.i - tq.id.i; c != 0 {
			return c
		}
		return tp.id.j - tq.id.j
	})
	a.loads = assign(a.ordered, r)
	return a
}

// add creates one match task. Tasks live in chunked arenas — a split
// block creates up to m(m+1)/2 of them, and one heap object each was
// the planning phase's dominant allocation. A chunk is never grown, so
// pointers into it stay valid when the next chunk is started.
func (a *Assignment) add(id taskID, comps int64) {
	if len(a.arena) == cap(a.arena) {
		a.arena = make([]matchTask, 0, 1024)
	}
	a.arena = append(a.arena, matchTask{id: id, comps: comps})
	t := &a.arena[len(a.arena)-1]
	a.tasks[id] = t
	a.ordered = append(a.ordered, t)
}

// lookup returns the match task for (block k, i, j), nil if absent.
func (a *Assignment) lookup(k, i, j int) *matchTask {
	return a.tasks[taskID{block: k, i: i, j: j}]
}

type loadEntry struct {
	load int64
	idx  int
}

type loadHeap []loadEntry

func (h loadHeap) less(i, j int) bool {
	if h[i].load != h[j].load {
		return h[i].load < h[j].load
	}
	return h[i].idx < h[j].idx
}

// siftDown restores the min-heap property after h[i] grew.
func (h loadHeap) siftDown(i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		s := l
		if r := l + 1; r < n && h.less(r, l) {
			s = r
		}
		if !h.less(s, i) {
			return
		}
		h[i], h[s] = h[s], h[i]
		i = s
	}
}

func compareBSKeys(a, b BSKey) int {
	if c := mapreduce.CompareInts(a.Block, b.Block); c != 0 {
		return c
	}
	if c := mapreduce.CompareInts(a.I, b.I); c != 0 {
		return c
	}
	return mapreduce.CompareInts(a.J, b.J)
}

// bsKeyCoding packs a BSKey into an exact order-preserving code:
// block ‖ i+1 ‖ j+1 (the +1 maps the unsplit sentinel −1 to 0, keeping
// all components non-negative). Group ≡ Compare, so grouping is full
// code equality. The bounds are far beyond any realistic BDM; if they
// are ever exceeded the coding is disabled and the engine falls back to
// the struct comparator.
func bsKeyCoding(x *bdm.Matrix) mapreduce.KeyCoding[BSKey] {
	if x.NumBlocks() > 1<<32 || x.NumPartitions() >= 1<<31 {
		return mapreduce.KeyCoding[BSKey]{}
	}
	return mapreduce.KeyCoding[BSKey]{
		Encode: func(k BSKey) mapreduce.Code {
			return mapreduce.Code{
				Hi: uint64(uint32(k.Block))<<32 | uint64(uint32(k.I+1)),
				Lo: uint64(uint32(k.J + 1)),
			}
		},
		Exact:     true,
		GroupBits: 128,
	}
}

// JobPrepared implements Strategy (Algorithm 1). Input records must be
// the BDM job's side output (blocking-key-annotated entities).
func (bs BlockSplit) JobPrepared(x *bdm.Matrix, r int, pm PreparedMatcher) (MatchJob, error) {
	return blockSplitJob(x, r, preparedKernel(pm), bs.MaxEntitiesPerTask)
}

func blockSplitJob(x *bdm.Matrix, r int, kern matchKernel, maxEntities int) (MatchJob, error) {
	if err := validateJobParams("BlockSplit", r); err != nil {
		return nil, err
	}
	if x == nil {
		return nil, fmt.Errorf("core: BlockSplit requires a BDM")
	}
	// The assignment is deterministic and identical in every map task;
	// compute it once and share it read-only (each Hadoop map task would
	// recompute it from the distributed BDM file).
	asg := buildAssignment(x, r, nil, maxEntities)
	return &mapreduce.Job[AnnotatedEntity, BSKey, bsValue, MatchOutput]{
		Name:           "blocksplit",
		NumReduceTasks: r,
		NewMapper: func() mapreduce.Mapper[AnnotatedEntity, BSKey, bsValue] {
			return &bsMapper{x: x, asg: asg}
		},
		NewReducer: func() mapreduce.Reducer[BSKey, bsValue, MatchOutput] {
			return &bsReducer{kern: kern}
		},
		Partition: func(key BSKey, r int) int { return key.Reduce % r },
		Compare:   compareBSKeys,
		Group:     compareBSKeys,
		Coding:    bsKeyCoding(x),
	}, nil
}

type bsMapper struct {
	x         *bdm.Matrix
	asg       *Assignment
	m         int
	partition int
}

func (mp *bsMapper) Configure(m, _, partitionIndex int) {
	if m != mp.x.NumPartitions() {
		panic(fmt.Sprintf("core: BlockSplit: job has %d map tasks but BDM was built for %d partitions", m, mp.x.NumPartitions()))
	}
	mp.m = m
	mp.partition = partitionIndex
}

// Map implements Algorithm 1 lines 29-44: one output per unsplit block
// entity, m outputs (own sub-block + m−1 combinations) per split-block
// entity.
func (mp *bsMapper) Map(ctx *mapreduce.MapContext[AnnotatedEntity, BSKey, bsValue], rec AnnotatedEntity) {
	blockKey := rec.Key
	e := rec.Value
	k, ok := mp.x.BlockIndex(blockKey)
	if !ok {
		panic(fmt.Sprintf("core: BlockSplit: blocking key %q not present in BDM", blockKey))
	}
	if !mp.asg.split[k] {
		if mp.x.BlockPairs(k) == 0 {
			return // singleton block: nothing to compare
		}
		t := mp.asg.lookup(k, -1, -1)
		ctx.Emit(BSKey{Reduce: t.reduce, Block: k, I: -1, J: -1},
			bsValue{E: e, Partition: mp.partition})
		return
	}
	for i := 0; i < mp.m; i++ {
		hi, lo := mp.partition, i
		if hi < lo {
			hi, lo = lo, hi
		}
		t := mp.asg.lookup(k, hi, lo)
		if t == nil {
			continue // empty counterpart partition
		}
		ctx.Emit(BSKey{Reduce: t.reduce, Block: k, I: hi, J: lo},
			bsValue{E: e, Partition: mp.partition})
	}
}

type bsReducer struct {
	kern   matchKernel
	buffer []entity.Entity
	prep   []PreparedEntity
}

func (rd *bsReducer) Configure(_, _, _ int) {}

// Reduce implements Algorithm 1 lines 48-65. For a self-join task
// (unsplit block or single sub-block, I == J) it compares all values
// pairwise. For a cross-product task it buffers the first partition's
// entities (the stable map-task-ordered merge guarantees they arrive
// first) and compares every later entity against the buffer. Every
// buffered entity is prepared exactly once; in a cross-product task the
// non-buffered side's entity is prepared once and compared against the
// whole buffer.
func (rd *bsReducer) Reduce(ctx *matchCtx, k BSKey, values []mapreduce.Rec[BSKey, bsValue]) {
	pm := rd.kern.pm
	rd.buffer, rd.prep = rd.buffer[:0], rd.prep[:0]
	if k.I == k.J {
		for _, v := range values {
			e2 := v.Value.E
			p2 := pm.Prepare(e2)
			for i, e1 := range rd.buffer {
				matchAndEmitPrepared(ctx, pm, e1, e2, rd.prep[i], p2)
			}
			rd.buffer = append(rd.buffer, e2)
			rd.prep = append(rd.prep, p2)
		}
		rd.kern.releaseAll(rd.prep)
		return
	}
	firstPartition := values[0].Value.Partition
	for _, v := range values {
		bv := v.Value
		if bv.Partition == firstPartition {
			rd.buffer = append(rd.buffer, bv.E)
			rd.prep = append(rd.prep, pm.Prepare(bv.E))
			continue
		}
		p2 := pm.Prepare(bv.E)
		for i, e1 := range rd.buffer {
			matchAndEmitPrepared(ctx, pm, e1, bv.E, rd.prep[i], p2)
		}
		rd.kern.release(p2)
	}
	rd.kern.releaseAll(rd.prep)
}

// Plan implements Strategy: it reuses the exact match-task creation and
// assignment of the executable job and derives all per-task workloads
// from the BDM alone.
func (bs BlockSplit) Plan(x *bdm.Matrix, m, r int) (*Plan, error) {
	return blockSplitPlan(x, m, r, nil, bs.MaxEntitiesPerTask)
}

// PlanWithAssign is Plan with a custom assignment policy (ablations).
func (bs BlockSplit) PlanWithAssign(x *bdm.Matrix, m, r int, assign AssignFunc) (*Plan, error) {
	return blockSplitPlan(x, m, r, assign, bs.MaxEntitiesPerTask)
}

func blockSplitPlan(x *bdm.Matrix, m, r int, assign AssignFunc, maxEntities int) (*Plan, error) {
	if err := validatePlanParams("BlockSplit", m, r); err != nil {
		return nil, err
	}
	if x == nil {
		return nil, fmt.Errorf("core: BlockSplit.Plan requires a BDM")
	}
	if x.NumPartitions() != m {
		return nil, fmt.Errorf("core: BlockSplit.Plan: BDM has %d partitions, want m=%d", x.NumPartitions(), m)
	}
	asg := buildAssignment(x, r, assign, maxEntities)
	p := newPlan("BlockSplit", m, r)
	copy(p.ReduceComparisons, asg.loads)

	for _, t := range asg.ordered {
		k := t.id.block
		switch {
		case t.id.i < 0: // unsplit: receives the whole block (if non-trivial)
			if t.comps > 0 {
				p.ReduceRecords[t.reduce] += int64(x.Size(k))
			}
		case t.id.i == t.id.j: // sub-block self-join
			p.ReduceRecords[t.reduce] += int64(x.SizeIn(k, t.id.i))
		default: // cross product of two sub-blocks
			p.ReduceRecords[t.reduce] += int64(x.SizeIn(k, t.id.i) + x.SizeIn(k, t.id.j))
		}
	}

	for k := 0; k < x.NumBlocks(); k++ {
		comps := x.BlockPairs(k)
		split := asg.split[k]
		for pi := 0; pi < m; pi++ {
			n := int64(x.SizeIn(k, pi))
			if n == 0 {
				continue
			}
			p.MapRecords[pi] += n
			switch {
			case !split && comps > 0:
				p.MapEmits[pi] += n
			case split:
				// Each entity of partition pi is emitted once per match
				// task involving pi: its own sub-block plus one cross
				// task per other non-empty partition.
				emitsPer := int64(0)
				for i := 0; i < m; i++ {
					if x.SizeIn(k, i) > 0 {
						emitsPer++
					}
				}
				p.MapEmits[pi] += n * emitsPer
			}
		}
	}
	return p, nil
}
