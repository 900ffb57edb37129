package core

import (
	"fmt"

	"repro/internal/bdm"
	"repro/internal/entity"
	"repro/internal/mapreduce"
)

// PairRangeDual is the two-source extension of PairRange described in
// Appendix I-B. Within block Φi, all |Φi,R|×|Φi,S| cross-source cells
// are enumerated with
//
//	c(x, y, |Φi,S|) = x·|Φi,S| + y
//
// (x indexes R entities, y indexes S entities) and blocks are
// concatenated with offsets o(i) = Σ_{k<i} |Φk,R|·|Φk,S|. The pair-index
// space [0, P) is split into r ranges exactly as in the one-source case.
type PairRangeDual struct{}

// Name implements DualStrategy.
func (PairRangeDual) Name() string { return "PairRange" }

// PRDKey is the composite map-output key: range index ‖ block index ‖
// source ‖ entity index. Sorting on the whole key places all R entities
// of a group (ascending index) before all S entities.
type PRDKey struct {
	Range  int
	Block  int
	Source bdm.Source
	Index  int64
}

func (k PRDKey) String() string {
	return fmt.Sprintf("%d.%d.%s.%d", k.Range, k.Block, k.Source, k.Index)
}

// prdValue is the reduce-side buffer entry for R entities; source and
// index travel in the record's PRDKey, so the shuffle carries the bare
// entity.
type prdValue struct {
	E     entity.Entity
	Index int64
}

func comparePRDKeys(a, b PRDKey) int {
	if c := mapreduce.CompareInts(a.Range, b.Range); c != 0 {
		return c
	}
	if c := mapreduce.CompareInts(a.Block, b.Block); c != 0 {
		return c
	}
	if c := mapreduce.CompareInts(int(a.Source), int(b.Source)); c != 0 {
		return c
	}
	return mapreduce.CompareInt64s(a.Index, b.Index)
}

func groupPRDKeys(a, b PRDKey) int {
	if c := mapreduce.CompareInts(a.Range, b.Range); c != 0 {
		return c
	}
	return mapreduce.CompareInts(a.Block, b.Block)
}

// prdKeyCoding packs a PRDKey exactly: range ‖ block in the high word
// (the grouping key, hence GroupBits 64), the source bit above the
// 63-bit entity index in the low word.
func prdKeyCoding(x *bdm.DualMatrix, r int) mapreduce.KeyCoding[PRDKey] {
	if x.NumBlocks() > 1<<32 || r > 1<<31 {
		return mapreduce.KeyCoding[PRDKey]{}
	}
	return mapreduce.KeyCoding[PRDKey]{
		Encode: func(k PRDKey) mapreduce.Code {
			return mapreduce.Code{
				Hi: uint64(uint32(k.Range))<<32 | uint64(uint32(k.Block)),
				Lo: uint64(k.Source)<<63 | uint64(k.Index),
			}
		},
		Exact:     true,
		GroupBits: 64,
	}
}

// dualRelevantRanges computes the ranges containing at least one pair of
// the entity with index idx in block k. R entities own one contiguous
// run of pair indexes (their matrix row); S entities own an arithmetic
// progression with stride |Φk,S| (their matrix column), whose range
// sequence is non-decreasing and is enumerated by galloping.
func dualRelevantRanges(x *bdm.DualMatrix, ranges Ranges, k int, src bdm.Source, idx int64, out []int) []int {
	out = out[:0]
	nr := int64(x.SourceSize(k, bdm.SourceR))
	ns := int64(x.SourceSize(k, bdm.SourceS))
	if nr == 0 || ns == 0 {
		return out
	}
	off := x.PairOffset(k)
	if src == bdm.SourceR {
		first := ranges.Index(off + idx*ns)
		last := ranges.Index(off + idx*ns + ns - 1)
		for r := first; r <= last; r++ {
			out = append(out, r)
		}
		return out
	}
	// Source S: pairs off + xr·ns + idx for xr in [0, nr).
	for xr := int64(0); xr < nr; {
		p := off + xr*ns + idx
		r := ranges.Index(p)
		out = append(out, r)
		_, hi := ranges.Bounds(r)
		xr = searchFirstAtLeast(xr+1, nr, func(xx int64) bool {
			return off+xx*ns+idx >= hi
		})
	}
	return out
}

// JobPrepared implements DualStrategy. Input records must be
// blocking-key-annotated entities, one source per input partition.
func (PairRangeDual) JobPrepared(x *bdm.DualMatrix, r int, pm PreparedMatcher) (MatchJob, error) {
	return pairRangeDualJob(x, r, preparedKernel(pm))
}

func pairRangeDualJob(x *bdm.DualMatrix, r int, kern matchKernel) (MatchJob, error) {
	if err := validateJobParams("PairRangeDual", r); err != nil {
		return nil, err
	}
	if x == nil {
		return nil, fmt.Errorf("core: PairRangeDual requires a dual BDM")
	}
	ranges := NewRanges(x.Pairs(), r)
	return &mapreduce.Job[AnnotatedEntity, PRDKey, entity.Entity, MatchOutput]{
		Name:           "pairrange-dual",
		NumReduceTasks: r,
		NewMapper: func() mapreduce.Mapper[AnnotatedEntity, PRDKey, entity.Entity] {
			return &prdMapper{x: x, ranges: ranges}
		},
		NewReducer: func() mapreduce.Reducer[PRDKey, entity.Entity, MatchOutput] {
			return &prdReducer{x: x, ranges: ranges, kern: kern}
		},
		Partition: func(key PRDKey, r int) int { return key.Range % r },
		Compare:   comparePRDKeys,
		Group:     groupPRDKeys,
		Coding:    prdKeyCoding(x, r),
	}, nil
}

type prdMapper struct {
	x           *bdm.DualMatrix
	ranges      Ranges
	source      bdm.Source
	entityIndex []int64
	scratch     []int
}

func (mp *prdMapper) Configure(m, _, partitionIndex int) {
	if m != mp.x.NumPartitions() {
		panic(fmt.Sprintf("core: PairRangeDual: job has %d map tasks but dual BDM was built for %d partitions", m, mp.x.NumPartitions()))
	}
	mp.source = mp.x.PartitionSource(partitionIndex)
	mp.entityIndex = make([]int64, mp.x.NumBlocks())
	for k := range mp.entityIndex {
		mp.entityIndex[k] = int64(mp.x.EntityOffset(k, partitionIndex))
	}
}

func (mp *prdMapper) Map(ctx *mapreduce.MapContext[AnnotatedEntity, PRDKey, entity.Entity], rec AnnotatedEntity) {
	blockKey := rec.Key
	e := rec.Value
	k, ok := mp.x.BlockIndex(blockKey)
	if !ok {
		panic(fmt.Sprintf("core: PairRangeDual: blocking key %q not present in dual BDM", blockKey))
	}
	idx := mp.entityIndex[k]
	mp.entityIndex[k]++
	mp.scratch = dualRelevantRanges(mp.x, mp.ranges, k, mp.source, idx, mp.scratch)
	for _, rg := range mp.scratch {
		ctx.Emit(PRDKey{Range: rg, Block: k, Source: mp.source, Index: idx}, e)
	}
}

type prdReducer struct {
	x      *bdm.DualMatrix
	ranges Ranges
	kern   matchKernel
	task   int
	buffer []prdValue
	prep   []PreparedEntity
}

func (rd *prdReducer) Configure(_, _, taskIndex int) { rd.task = taskIndex }

// Reduce receives one (range, block) group with all relevant R entities
// (ascending index) followed by all relevant S entities. For each S
// entity it scans the R buffer; pair indexes grow with the R index, so
// the scan stops once the range is exceeded. Every entity is prepared
// exactly once per group.
func (rd *prdReducer) Reduce(ctx *matchCtx, k PRDKey, values []mapreduce.Rec[PRDKey, entity.Entity]) {
	ns := int64(rd.x.SourceSize(k.Block, bdm.SourceS))
	off := rd.x.PairOffset(k.Block)
	// Direct bound comparisons replace the per-pair Ranges.Index
	// division; see prReducer.Reduce for the equivalence argument.
	lo, hi := rd.ranges.Bounds(rd.task)
	pm := rd.kern.pm
	rd.buffer, rd.prep = rd.buffer[:0], rd.prep[:0]
	for _, v := range values {
		pv := prdValue{E: v.Value, Index: v.Key.Index}
		if v.Key.Source == bdm.SourceR {
			rd.buffer = append(rd.buffer, pv)
			rd.prep = append(rd.prep, pm.Prepare(pv.E))
			continue
		}
		p2 := pm.Prepare(pv.E)
		for i, b := range rd.buffer {
			p := off + b.Index*ns + pv.Index
			if p >= hi {
				break
			}
			if p >= lo {
				matchAndEmitPrepared(ctx, pm, b.E, pv.E, rd.prep[i], p2)
			}
		}
		rd.kern.release(p2)
	}
	rd.kern.releaseAll(rd.prep)
}

// Plan implements DualStrategy analytically: for each range and each
// block it overlaps, the relevant R entities form one contiguous index
// interval (the covered matrix rows) and the relevant S entities a union
// of at most three intervals (partial first row, full middle rows,
// partial last row).
func (PairRangeDual) Plan(x *bdm.DualMatrix, r int) (*Plan, error) {
	if err := validateJobParams("PairRangeDual", r); err != nil {
		return nil, err
	}
	if x == nil {
		return nil, fmt.Errorf("core: PairRangeDual.Plan requires a dual BDM")
	}
	m := x.NumPartitions()
	ranges := NewRanges(x.Pairs(), r)
	p := newPlan("PairRangeDual", m, r)

	for pi := 0; pi < m; pi++ {
		for k := 0; k < x.NumBlocks(); k++ {
			p.MapRecords[pi] += int64(x.SizeIn(k, pi))
		}
	}

	k := 0
	for j := 0; j < r; j++ {
		lo, hi := ranges.Bounds(j)
		p.ReduceComparisons[j] = hi - lo
		if hi <= lo {
			continue
		}
		for k < x.NumBlocks() && x.PairOffset(k)+x.BlockPairs(k) <= lo {
			k++
		}
		for kk := k; kk < x.NumBlocks() && x.PairOffset(kk) < hi; kk++ {
			bLo, bHi := x.PairOffset(kk), x.PairOffset(kk)+x.BlockPairs(kk)
			if bHi <= bLo {
				continue
			}
			ns := int64(x.SourceSize(kk, bdm.SourceS))
			a := max64(lo, bLo) - bLo
			b := min64(hi, bHi) - bLo
			xa, xb := a/ns, (b-1)/ns
			ya, yb := a%ns, (b-1)%ns

			rIvs := []interval{{xa, xb + 1}}
			var sIvs []interval
			if xa == xb {
				sIvs = mergeIntervals([]interval{{ya, yb + 1}})
			} else {
				cand := []interval{{ya, ns}, {0, yb + 1}}
				if xb > xa+1 {
					cand = append(cand, interval{0, ns})
				}
				sIvs = mergeIntervals(cand)
			}
			p.ReduceRecords[j] += intervalsTotal(rIvs) + intervalsTotal(sIvs)

			// Charge map emits per owning partition.
			offR, offS := int64(0), int64(0)
			for pi := 0; pi < m; pi++ {
				size := int64(x.SizeIn(kk, pi))
				if size == 0 {
					continue
				}
				if x.PartitionSource(pi) == bdm.SourceR {
					for _, iv := range rIvs {
						p.MapEmits[pi] += intersectLen(iv, offR, offR+size)
					}
					offR += size
				} else {
					for _, iv := range sIvs {
						p.MapEmits[pi] += intersectLen(iv, offS, offS+size)
					}
					offS += size
				}
			}
		}
	}
	return p, nil
}
