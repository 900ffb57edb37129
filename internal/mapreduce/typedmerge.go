package mapreduce

// recMerger streams the k-way merge of pre-sorted spill buckets that forms a reduce task's
// input. It is a binary min-heap of run indexes keyed by (cmpRec(head),
// run index); the run-index tie-break pops equal keys in map-task order,
// which makes the merged stream identical to concatenating the runs in
// map-task order and stable-sorting — the Hadoop merge semantics
// BlockSplit's reduce function depends on (see DESIGN.md). With a binary
// key coding, every heap comparison is one or two uint64 compares.
//
// Each next() costs O(log k) comparator calls for k live runs, so a full
// merge is O(N log k) versus the O(N log N) of re-sorting the
// concatenated input, and it needs no N-sized materialization at all.
type recMerger[I, K, V, O any] struct {
	st   *runState[I, K, V, O]
	runs [][]Rec[K, V] // advanced in place as records are popped
	heap []int32       // indexes into runs; min-heap by (head, index)
}

// newRecMerger builds a merger over the given non-empty sorted runs,
// which must be listed in map-task order. The merger is a per-task
// stack-ish allocation; the heap backing array is what matters and is
// sized once.
func newRecMerger[I, K, V, O any](st *runState[I, K, V, O], runs [][]Rec[K, V]) *recMerger[I, K, V, O] {
	m := &recMerger[I, K, V, O]{st: st, runs: runs, heap: make([]int32, len(runs))}
	for i := range m.heap {
		m.heap[i] = int32(i)
	}
	for i := len(m.heap)/2 - 1; i >= 0; i-- {
		m.siftDown(i)
	}
	return m
}

// less orders run x before run y by head record, breaking ties by run
// index (= map-task order): the stability guarantee.
func (m *recMerger[I, K, V, O]) less(x, y int32) bool {
	if c := m.st.cmpRec(&m.runs[x][0], &m.runs[y][0]); c != 0 {
		return c < 0
	}
	return x < y
}

func (m *recMerger[I, K, V, O]) siftDown(i int) {
	h := m.heap
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		s := l
		if r := l + 1; r < n && m.less(h[r], h[l]) {
			s = r
		}
		if !m.less(h[s], h[i]) {
			return
		}
		h[i], h[s] = h[s], h[i]
		i = s
	}
}

// next pops the globally smallest remaining record. The second return is
// false once all runs are drained.
func (m *recMerger[I, K, V, O]) next() (Rec[K, V], bool) {
	if len(m.heap) == 0 {
		var zero Rec[K, V]
		return zero, false
	}
	r := m.heap[0]
	run := m.runs[r]
	rec := run[0]
	if len(run) > 1 {
		m.runs[r] = run[1:]
	} else {
		last := len(m.heap) - 1
		m.heap[0] = m.heap[last]
		m.heap = m.heap[:last]
	}
	if len(m.heap) > 1 {
		m.siftDown(0)
	}
	return rec, true
}
