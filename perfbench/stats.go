package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"syscall"
	"time"
)

// median returns the middle value (mean of the two middle values for
// an even count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile returns the highest percentile that has at least ten
// samples beyond it, with its value; ok is false when there are fewer
// than eleven samples.
func tailPercentile(xs []float64) (pct int, v float64, ok bool) {
	n := len(xs)
	if n < 11 {
		return 0, 0, false
	}
	pct = int(math.Floor(100 * float64(n-10) / float64(n)))
	s := slices.Clone(xs)
	slices.Sort(s)
	// Nearest-rank: the smallest value with at least pct% of samples
	// at or below it.
	i := int(math.Ceil(float64(pct)/100*float64(n))) - 1
	return pct, s[max(i, 0)], true
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// memCounters reads the cumulative allocation, GC-cycle and GC-pause
// counters.
func memCounters() (totalAlloc uint64, gcCycles uint32, gcPauseNS uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc, ms.NumGC, ms.PauseTotalNs
}

const heapMetric = "/memory/classes/heap/objects:bytes"

// heapSampler records the highest live-plus-unswept heap-object bytes
// it sees, reading runtime/metrics every interval (no stop-the-world).
type heapSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	mu   sync.Mutex
	peak uint64
}

func startHeapSampler(interval time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		s := []metrics.Sample{{Name: heapMetric}}
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			metrics.Read(s)
			v := s[0].Value.Uint64()
			h.mu.Lock()
			h.peak = max(h.peak, v)
			h.mu.Unlock()
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops the sampler, waits for its goroutine and returns the
// peak in bytes.
func (h *heapSampler) finish() uint64 {
	close(h.stop)
	h.done.Wait()
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.peak
}
