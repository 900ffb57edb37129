package core

import (
	"fmt"

	"repro/internal/bdm"
	"repro/internal/entity"
	"repro/internal/mapreduce"
)

// PairRange implements the pair-based load balancing strategy of
// Section V. All P pairs across all blocks are enumerated globally
// (column-wise within a block, blocks concatenated in index order); the
// pair index space [0, P) is cut into r ranges of ceil(P/r) pairs, and
// range k is processed by reduce task k. Every entity is sent to each
// range that contains at least one of its pairs, annotated with its
// block-wise entity index so that the reduce function can recompute pair
// indexes locally.
type PairRange struct{}

// Name implements Strategy.
func (PairRange) Name() string { return "PairRange" }

// NeedsBDM implements Strategy.
func (PairRange) NeedsBDM() bool { return true }

// PRKey is the composite map-output key: range index ‖ block index ‖
// entity index. Partitioning uses only Range; sorting uses the whole
// key; grouping uses (Range, Block) so one reduce call sees a block's
// relevant entities in ascending entity-index order.
type PRKey struct {
	Range int
	Block int
	Index int64
}

func (k PRKey) String() string { return fmt.Sprintf("%d.%d.%d", k.Range, k.Block, k.Index) }

// prValue is the reduce-side buffer entry: the entity plus its
// block-wise index. The shuffle carries the bare entity — the index
// already travels in the record's PRKey, so the reduce function
// reconstructs prValue from (key, value) instead of shipping the index
// twice per record.
type prValue struct {
	E     entity.Entity
	Index int64
}

func comparePRKeys(a, b PRKey) int {
	if c := mapreduce.CompareInts(a.Range, b.Range); c != 0 {
		return c
	}
	if c := mapreduce.CompareInts(a.Block, b.Block); c != 0 {
		return c
	}
	return mapreduce.CompareInt64s(a.Index, b.Index)
}

func groupPRKeys(a, b PRKey) int {
	if c := mapreduce.CompareInts(a.Range, b.Range); c != 0 {
		return c
	}
	return mapreduce.CompareInts(a.Block, b.Block)
}

// prKeyCoding packs a PRKey into an exact order-preserving code:
// range ‖ block in the high word, the entity index in the low word.
// Grouping is on (range, block), i.e. exactly the high 64 bits.
func prKeyCoding(x *bdm.Matrix, r int) mapreduce.KeyCoding[PRKey] {
	if x.NumBlocks() > 1<<32 || r > 1<<31 {
		return mapreduce.KeyCoding[PRKey]{}
	}
	return mapreduce.KeyCoding[PRKey]{
		Encode: func(k PRKey) mapreduce.Code {
			return mapreduce.Code{
				Hi: uint64(uint32(k.Range))<<32 | uint64(uint32(k.Block)),
				Lo: uint64(k.Index),
			}
		},
		Exact:     true,
		GroupBits: 64,
	}
}

// JobPrepared implements Strategy (Algorithm 2). Input records must be
// the BDM job's side output (blocking-key-annotated entities).
func (PairRange) JobPrepared(x *bdm.Matrix, r int, pm PreparedMatcher) (MatchJob, error) {
	return pairRangeJob(x, r, preparedKernel(pm))
}

func pairRangeJob(x *bdm.Matrix, r int, kern matchKernel) (MatchJob, error) {
	if err := validateJobParams("PairRange", r); err != nil {
		return nil, err
	}
	if x == nil {
		return nil, fmt.Errorf("core: PairRange requires a BDM")
	}
	ranges := NewRanges(x.Pairs(), r)
	return &mapreduce.Job[AnnotatedEntity, PRKey, entity.Entity, MatchOutput]{
		Name:           "pairrange",
		NumReduceTasks: r,
		NewMapper: func() mapreduce.Mapper[AnnotatedEntity, PRKey, entity.Entity] {
			return &prMapper{x: x, ranges: ranges}
		},
		NewReducer: func() mapreduce.Reducer[PRKey, entity.Entity, MatchOutput] {
			return &prReducer{x: x, ranges: ranges, kern: kern}
		},
		Partition: func(key PRKey, r int) int { return key.Range % r },
		Compare:   comparePRKeys,
		Group:     groupPRKeys,
		Coding:    prKeyCoding(x, r),
	}, nil
}

type prMapper struct {
	x      *bdm.Matrix
	ranges Ranges
	// entityIndex[k] is the index the next block-k entity of this
	// partition will receive (Algorithm 2 lines 4-8): the count of
	// block-k entities in preceding partitions, then incremented per
	// entity seen.
	entityIndex []int64
	scratch     []int
}

func (mp *prMapper) Configure(m, _, partitionIndex int) {
	if m != mp.x.NumPartitions() {
		panic(fmt.Sprintf("core: PairRange: job has %d map tasks but BDM was built for %d partitions", m, mp.x.NumPartitions()))
	}
	mp.entityIndex = make([]int64, mp.x.NumBlocks())
	for k := range mp.entityIndex {
		mp.entityIndex[k] = int64(mp.x.EntityOffset(k, partitionIndex))
	}
}

// Map implements Algorithm 2 lines 10-26: compute the entity's global
// block-wise index, find all ranges containing one of its pairs, and
// emit one annotated copy per relevant range.
func (mp *prMapper) Map(ctx *mapreduce.MapContext[AnnotatedEntity, PRKey, entity.Entity], rec AnnotatedEntity) {
	blockKey := rec.Key
	e := rec.Value
	k, ok := mp.x.BlockIndex(blockKey)
	if !ok {
		panic(fmt.Sprintf("core: PairRange: blocking key %q not present in BDM", blockKey))
	}
	x := mp.entityIndex[k]
	mp.entityIndex[k]++
	n := int64(mp.x.Size(k))
	mp.scratch = mp.ranges.relevantRanges(x, n, mp.x.PairOffset(k), mp.scratch)
	for _, rg := range mp.scratch {
		ctx.Emit(PRKey{Range: rg, Block: k, Index: x}, e)
	}
}

type prReducer struct {
	x      *bdm.Matrix
	ranges Ranges
	kern   matchKernel
	task   int
	buffer []prValue
	prep   []PreparedEntity
}

func (rd *prReducer) Configure(_, _, taskIndex int) { rd.task = taskIndex }

// Reduce implements Algorithm 2 lines 32-42: for one (range, block)
// group it receives the block's relevant entities in ascending index
// order, generates candidate pairs (x1, x2) with x1 < x2, and compares
// exactly those whose pair index falls into this task's range.
//
// Deviation from the paper's listing: when a candidate pair's range
// exceeds the task's range, the listing returns from the whole reduce
// call. That would skip valid pairs — e.g. after (x1,x2) overshoots,
// (x1', x2+1) with x1' < x1 can still fall in range (pair indexes grow
// with both components, so only the *rest of the inner loop* is safely
// skippable). We break the inner loop instead; completeness is covered
// by property tests against serial matching.
func (rd *prReducer) Reduce(ctx *matchCtx, k PRKey, values []mapreduce.Rec[PRKey, entity.Entity]) {
	n := int64(rd.x.Size(k.Block))
	off := rd.x.PairOffset(k.Block)
	// Comparing pair indexes against the task's [lo, hi) interval avoids
	// the per-pair division of Ranges.Index: p >= hi iff the pair's range
	// exceeds this task, p >= lo iff it is at least this task (every
	// valid p is < P, so the clamped bounds preserve both equivalences).
	lo, hi := rd.ranges.Bounds(rd.task)
	// Every value lands in the buffer; presizing once avoids the
	// append-doubling allocations the profiler showed on large groups.
	if cap(rd.buffer) < len(values) {
		rd.buffer = make([]prValue, 0, len(values))
	}
	if cap(rd.prep) < len(values) {
		rd.prep = make([]PreparedEntity, 0, len(values))
	}
	pm := rd.kern.pm
	rd.buffer, rd.prep = rd.buffer[:0], rd.prep[:0]
	for _, v := range values {
		pv := prValue{E: v.Value, Index: v.Key.Index}
		p2 := pm.Prepare(pv.E)
		for i, b := range rd.buffer {
			p := CellIndex(b.Index, pv.Index, n) + off
			if p >= hi {
				// Within this row (fixed pv.Index), pair indexes grow
				// with the buffered entity's index: nothing further in
				// the buffer can be in range.
				break
			}
			if p >= lo {
				matchAndEmitPrepared(ctx, pm, b.E, pv.E, rd.prep[i], p2)
			}
		}
		rd.buffer = append(rd.buffer, pv)
		rd.prep = append(rd.prep, p2)
	}
	rd.kern.releaseAll(rd.prep)
}

// Plan implements Strategy. All quantities are exact and computed in
// O((b + r·m) log) time from the BDM, never touching pairs:
//
//   - reduce comparisons: range k processes exactly its pair-interval
//     size;
//   - reduce records: for each range and each block it overlaps, the
//     relevant entities form a union of at most four index intervals
//     (columns + row segments of the covered triangle region);
//   - map emits: the per-partition share of those intervals — entities
//     of partition p hold the contiguous index interval
//     [EntityOffset(k,p), EntityOffset(k,p)+|Φk,p|) within block k.
func (PairRange) Plan(x *bdm.Matrix, m, r int) (*Plan, error) {
	if err := validatePlanParams("PairRange", m, r); err != nil {
		return nil, err
	}
	if x == nil {
		return nil, fmt.Errorf("core: PairRange.Plan requires a BDM")
	}
	if x.NumPartitions() != m {
		return nil, fmt.Errorf("core: PairRange.Plan: BDM has %d partitions, want m=%d", x.NumPartitions(), m)
	}
	ranges := NewRanges(x.Pairs(), r)
	p := newPlan("PairRange", m, r)

	for pi := 0; pi < m; pi++ {
		for k := 0; k < x.NumBlocks(); k++ {
			p.MapRecords[pi] += int64(x.SizeIn(k, pi))
		}
	}

	// Walk blocks and ranges in tandem; both partition [0, P).
	k := 0
	for j := 0; j < r; j++ {
		lo, hi := ranges.Bounds(j)
		p.ReduceComparisons[j] = hi - lo
		if hi <= lo {
			continue
		}
		// Advance to the first block whose pair interval reaches lo.
		for k < x.NumBlocks() && x.PairOffset(k)+x.BlockPairs(k) <= lo {
			k++
		}
		for kk := k; kk < x.NumBlocks() && x.PairOffset(kk) < hi; kk++ {
			bLo, bHi := x.PairOffset(kk), x.PairOffset(kk)+x.BlockPairs(kk)
			if bHi <= bLo {
				continue
			}
			a := max64(lo, bLo) - bLo
			b := min64(hi, bHi) - bLo
			ivs := relevantEntities(a, b, int64(x.Size(kk)))
			p.ReduceRecords[j] += intervalsTotal(ivs)
			// Charge each relevant entity to its owning partition's map
			// task: partition pi owns index interval [off, off+size).
			off := int64(0)
			for pi := 0; pi < m; pi++ {
				size := int64(x.SizeIn(kk, pi))
				if size > 0 {
					for _, iv := range ivs {
						p.MapEmits[pi] += intersectLen(iv, off, off+size)
					}
				}
				off += size
			}
		}
	}
	return p, nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
