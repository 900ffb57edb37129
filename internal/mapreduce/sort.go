package mapreduce

import "sync"

// This file holds the sync.Pool-backed scratch buffers the task hot
// paths reuse and the constants the typed stable sort (typedsort.go,
// parsort.go) is tuned with. See DESIGN.md ("Allocation discipline").

// insertionRun is the run length below which insertion sort beats
// merging; it is also the initial width of the bottom-up merge.
const insertionRun = 24

// maxPooledCap bounds the capacity of slices returned to the pools so a
// single huge job cannot pin arbitrarily large buffers for the rest of
// the process.
const maxPooledCap = 1 << 16

// slicePool recycles []T scratch buffers. sync.Pool can only hold
// pointers, and the obvious `pool.Put(&b)` heap-allocates a fresh
// slice-header box on every Put — which profiling showed as three of
// the engine's top allocation sites. The boxes themselves therefore
// round-trip through a second pool: get() strips the slice out of its
// box and parks the empty box for the next put() to reuse, so the
// steady state allocates nothing on either side.
type slicePool[T any] struct {
	bufs  sync.Pool
	boxes sync.Pool
}

func (p *slicePool[T]) get() []T {
	if b, ok := p.bufs.Get().(*[]T); ok {
		s := *b
		*b = nil
		p.boxes.Put(b)
		return s
	}
	return nil
}

func (p *slicePool[T]) put(s []T) {
	box, ok := p.boxes.Get().(*[]T)
	if !ok {
		box = new([]T)
	}
	*box = s
	p.bufs.Put(box)
}

var int32BufPool slicePool[int32]

// getInt32Buf returns a length-n scratch slice with arbitrary contents.
// Misses allocate the next power-of-two capacity so slightly-growing
// request sequences (spill batches wobble around the byte budget)
// converge on one reused buffer instead of allocating every time.
func getInt32Buf(n int) []int32 {
	b := int32BufPool.get()
	if cap(b) < n {
		c := 1
		for c < n {
			c <<= 1
		}
		return make([]int32, n, c)
	}
	return b[:n]
}

func putInt32Buf(b []int32) {
	if cap(b) == 0 || cap(b) > maxPooledCap {
		return
	}
	int32BufPool.put(b[:0])
}
