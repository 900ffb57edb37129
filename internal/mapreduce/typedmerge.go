package mapreduce

import (
	"io"
	"os"

	"repro/internal/runio"
)

// merger is the engine's one k-way merge: a binary min-heap over
// pre-sorted sources keyed by (partition, head record, source index).
// It forms every reduce task's input — over in-memory buckets, local
// spill-run segments and remote run segments alike — and the map-side
// merge of a spilled task's runs for the combiner.
//
// The source-index tiebreak pops equal keys in the order the caller
// added the sources: map-task order, and within one map task run order
// with the in-memory tail last. That makes the merged stream identical
// to concatenating the sources in that order and stable-sorting — the
// Hadoop merge semantics BlockSplit's reduce function depends on (see
// DESIGN.md). With a binary key coding, every heap comparison is one or
// two uint64 compares.
//
// Each next() costs O(log k) comparator calls for k live sources, so a
// full merge is O(N log k) versus the O(N log N) of re-sorting the
// concatenated input, and it needs no N-sized materialization at all.
// A merger lives on its caller's stack; its item and heap arrays come
// from the run's pools, so an in-memory merge allocates nothing.
type merger[I, K, V, O any] struct {
	st    *runState[I, K, V, O]
	dec   *recDecoder[K, V] // created with the first streamed source
	items []mergeItem[K, V] // in tiebreak order
	heap  []int32           // indexes into items: min-heap by (part, head, index)

	// records and spillBytes total what the added sources hold: the
	// caller's InputRecords and SpillBytesRead accounting.
	records    int64
	spillBytes int64
}

// mergeItem is one source of a merge: an in-memory sorted run (recs,
// whose first element is the head) or a streamed source (src, whose
// head is decoded into rec). head points at the current head record.
type mergeItem[K, V any] struct {
	head *Rec[K, V]
	recs []Rec[K, V]
	src  mergeSource[K, V]
	rec  Rec[K, V]
	part int32
}

// mergeSource streams one pre-sorted sequence of records into a merge.
// next fills dst and reports the record's partition; ok=false means the
// source is exhausted.
type mergeSource[K, V any] interface {
	next(dst *Rec[K, V]) (part int32, ok bool, err error)
}

func newMerger[I, K, V, O any](st *runState[I, K, V, O]) merger[I, K, V, O] {
	return merger[I, K, V, O]{st: st, items: st.pools.itemBuf.get()[:0]}
}

// addRun adds one sorted in-memory run of partition part.
func (mg *merger[I, K, V, O]) addRun(recs []Rec[K, V], part int32) {
	if len(recs) == 0 {
		return
	}
	mg.items = append(mg.items, mergeItem[K, V]{recs: recs, part: part})
	mg.records += int64(len(recs))
}

// addSegment adds one partition segment of a run file as a streamed
// source; empty segments are skipped.
func (mg *merger[I, K, V, O]) addSegment(r io.ReaderAt, seg runio.Segment, path string, part int32) {
	if seg.Records == 0 {
		return
	}
	dec := mg.decoder()
	var src mergeSource[K, V]
	if mg.st.shared {
		ss := &sharedSegSource[K, V]{dec: dec, part: part}
		ss.sr.Init(r, seg, path)
		src = ss
	} else {
		src = &segSource[K, V]{sr: runio.NewSegmentReader(r, seg, path), dec: dec, part: part}
	}
	mg.items = append(mg.items, mergeItem[K, V]{src: src})
	mg.records += seg.Records
	mg.spillBytes += seg.Len
}

// addSpilledRun adds a whole run of a map task's spill file, streamed
// segment by segment in partition order (the map-side combine merge
// reads every partition).
func (mg *merger[I, K, V, O]) addSpilledRun(f *os.File, info *runio.Info) {
	dec := mg.decoder()
	var src mergeSource[K, V]
	if mg.st.shared {
		src = &sharedRunSource[K, V]{f: f, info: info, dec: dec}
	} else {
		src = &runSource[K, V]{f: f, info: info, dec: dec}
	}
	mg.items = append(mg.items, mergeItem[K, V]{src: src})
	mg.records += info.Records
	mg.spillBytes += info.Bytes
}

// addSource adds a streamed source whose records are already decoded.
func (mg *merger[I, K, V, O]) addSource(src mergeSource[K, V]) {
	mg.items = append(mg.items, mergeItem[K, V]{src: src})
}

// decoder returns the merge's record decoder. The shared decode
// functions are stateful (arenas) and single-goroutine, hence one
// decoder per merge, shared across its sources.
func (mg *merger[I, K, V, O]) decoder() *recDecoder[K, V] {
	if mg.dec == nil {
		mg.dec = newRecDecoder(&mg.st.flowConfig)
	}
	return mg.dec
}

// start reads every streamed source's first record and builds the heap.
// Call it once, after the last add.
func (mg *merger[I, K, V, O]) start() error {
	mg.heap = getInt32Buf(len(mg.items))[:0]
	for i := range mg.items {
		it := &mg.items[i]
		if it.src == nil {
			it.head = &it.recs[0]
		} else {
			part, ok, err := it.src.next(&it.rec)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
			it.head, it.part = &it.rec, part
		}
		mg.heap = append(mg.heap, int32(i))
	}
	for i := len(mg.heap)/2 - 1; i >= 0; i-- {
		mg.siftDown(i)
	}
	return nil
}

// release returns the merge's buffers to the pools (item buffers are
// cleared there, so they never pin records or sources).
func (mg *merger[I, K, V, O]) release() {
	mg.st.pools.putItemBuf(mg.items)
	putInt32Buf(mg.heap)
	mg.items, mg.heap = nil, nil
}

// less orders source x before source y by (partition, head record),
// breaking ties by source index: the stability guarantee.
func (mg *merger[I, K, V, O]) less(x, y int32) bool {
	a, b := &mg.items[x], &mg.items[y]
	if a.part != b.part {
		return a.part < b.part
	}
	if c := mg.st.cmpRec(a.head, b.head); c != 0 {
		return c < 0
	}
	return x < y
}

func (mg *merger[I, K, V, O]) siftDown(i int) {
	h := mg.heap
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		s := l
		if r := l + 1; r < n && mg.less(h[r], h[l]) {
			s = r
		}
		if !mg.less(h[s], h[i]) {
			return
		}
		h[i], h[s] = h[s], h[i]
		i = s
	}
}

// next pops the globally smallest remaining record with its partition
// and advances its source. ok=false once every source is drained.
func (mg *merger[I, K, V, O]) next() (rec Rec[K, V], part int32, ok bool, err error) {
	if len(mg.heap) == 0 {
		return rec, 0, false, nil
	}
	it := &mg.items[mg.heap[0]]
	part = it.part
	more := true
	if it.src == nil {
		rec = it.recs[0]
		it.recs = it.recs[1:]
		if more = len(it.recs) > 0; more {
			it.head = &it.recs[0]
		}
	} else {
		rec = it.rec
		var p int32
		if p, more, err = it.src.next(&it.rec); err != nil {
			return rec, part, false, err
		}
		it.part = p
	}
	if !more {
		last := len(mg.heap) - 1
		mg.heap[0] = mg.heap[last]
		mg.heap = mg.heap[:last]
	}
	if len(mg.heap) > 1 {
		mg.siftDown(0)
	}
	return rec, part, true, nil
}
