package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/er"
	"repro/internal/match"
)

// setupReps is how many times a run sets the workload up; setup_s is
// the median, so one slow set-up does not move it.
const setupReps = 7

type runConfig struct {
	w       *workload
	seed    int64
	seconds float64
	trace   bool
	scale   float64
	// dir holds spill files, worker run files and the span dump.
	dir string
}

type metric struct {
	name  string
	value float64
	unit  string
}

type report struct {
	attempted, failed int
	metrics           []metric
	detail            map[string]any
}

// sample is one timed job.
type sample struct {
	wallS, cpuS float64
	allocB      uint64
	peakHeapB   uint64
	gcCycles    uint32
	gcPauseS    float64
	comparisons int64
}

// measureJob runs one job with a clean heap and records its cost.
func measureJob(job func() error) (sample, error) {
	runtime.GC()
	alloc0, gc0, pause0 := memCounters()
	cpu0 := cpuSeconds()
	hs := startHeapSampler(5 * time.Millisecond)
	t0 := time.Now()
	err := job()
	wall := time.Since(t0)
	peak := hs.finish()
	cpu1 := cpuSeconds()
	alloc1, gc1, pause1 := memCounters()
	return sample{
		wallS:     wall.Seconds(),
		cpuS:      cpu1 - cpu0,
		allocB:    alloc1 - alloc0,
		peakHeapB: peak,
		gcCycles:  gc1 - gc0,
		gcPauseS:  float64(pause1-pause0) / 1e9,
	}, err
}

// run executes one benchmark invocation: set-up, reference, warm-up
// job, then the timed closed loop.
func run(ctx context.Context, cfg runConfig) (*report, error) {
	dir, err := filepath.Abs(cfg.dir)
	if err != nil {
		return nil, err
	}
	// Spill files and worker run files live under tmp; a run that was
	// killed may have left some behind.
	tmp := filepath.Join(dir, "tmp")
	if err := os.RemoveAll(tmp); err != nil {
		return nil, fmt.Errorf("clear %s: %w", tmp, err)
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, fmt.Errorf("create %s: %w", tmp, err)
	}
	defer os.RemoveAll(tmp)

	w := cfg.w
	rep := &report{detail: map[string]any{
		"workload":   w.name,
		"seed":       cfg.seed,
		"scale":      cfg.scale,
		"trace":      cfg.trace,
		"provenance": provenance(cfg.seed),
	}}

	// Set-up: generate and partition the input; on the dist workload,
	// also start the master and workers and wait for registration.
	var (
		in       *input
		cl       *cluster
		setupS   []float64
		digests  = map[string]bool{}
		genTimes []float64
	)
	for i := 0; i < setupReps; i++ {
		if cl != nil {
			cl.close()
			cl = nil
		}
		runtime.GC()
		t0 := time.Now()
		in = w.generate(cfg.seed, cfg.scale)
		genTimes = append(genTimes, time.Since(t0).Seconds())
		if w.distributed {
			if cl, err = startCluster(ctx, tmp, nil); err != nil {
				return nil, err
			}
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		digests[inputDigest(in.parts)] = true
	}
	if cl != nil {
		defer cl.close()
	}
	if len(digests) != 1 {
		return nil, fmt.Errorf("seed %d generated %d different inputs over %d set-ups", cfg.seed, len(digests), setupReps)
	}
	t0 := time.Now()
	ref := w.computeReference(in)
	rep.detail["reference"] = map[string]any{
		"matches": ref.matches, "comparisons": ref.comparisons,
		"digest": ref.digest, "seconds": time.Since(t0).Seconds(),
	}

	v := &env{w: w, in: in, matcher: match.EditDistance(attr, threshold), tmpDir: tmp, warns: &warnCounter{}}
	var tr *tracedRun
	if cfg.trace {
		if tr, err = newTracedRun(ctx, v); err != nil {
			return nil, err
		}
		defer tr.close()
	}

	var (
		buf      bytes.Buffer
		samples  []sample
		failures []string
	)
	// untraced runs one job through the public pipeline entry point and
	// checks it; the returned sample is valid when ok.
	untraced := func() (s sample, res *er.Result, ok bool) {
		buf.Reset()
		var jr jobResult
		s, err := measureJob(func() error {
			var err error
			jr, err = v.runJob(ctx, cl, nil, er.NewCSVSink(&buf))
			return err
		})
		rep.attempted++
		if err == nil {
			err = v.checkJob(ref, jr, buf.Bytes())
		}
		if err != nil {
			rep.failed++
			failures = append(failures, err.Error())
			return s, nil, false
		}
		s.comparisons = jr.res.Comparisons
		return s, jr.res, true
	}

	// Warm-up: fills the matcher's free lists and the runtime's heap
	// once; its timing is discarded.
	if _, res, ok := untraced(); ok {
		rep.detail["input"] = v.describe(res)
	}
	loopStart := time.Now()
	for len(samples) == 0 || time.Since(loopStart).Seconds() < cfg.seconds {
		s, _, ok := untraced()
		if ok {
			samples = append(samples, s)
		}
		if tr != nil {
			tr.job(ctx, ref, rep, &failures)
		}
		if len(samples) == 0 && rep.attempted > 3 {
			break
		}
	}
	rep.detail["setup_s"] = setupS
	rep.detail["generate_s"] = genTimes
	rep.detail["failures"] = failures
	rep.detail["fail_ratio"] = float64(rep.failed) / float64(rep.attempted)
	if len(samples) == 0 {
		return rep, nil
	}
	e2e := endToEnd(samples, median(setupS))
	rep.detail["jobs"] = jobDetail(samples)
	if tr == nil {
		rep.metrics = e2e
		return rep, nil
	}
	untracedJobS := median(walls(samples))
	rep.metrics = tr.metrics(median(genTimes), len(in.entities), untracedJobS)
	rep.detail["trace"] = tr.detail(untracedJobS)
	return rep, tr.writeSpans(spanPath(dir, w.name, cfg.seed))
}

// endToEnd derives the end-to-end metrics from the timed jobs. The
// heap peak is each job's own, and the metric their median: a maximum
// over all jobs would grow with the number of jobs a run fits in.
func endToEnd(samples []sample, setupS float64) []metric {
	var cpu, peaks []float64
	var alloc uint64
	var comparisons int64
	var wallSum float64
	for _, s := range samples {
		wallSum += s.wallS
		cpu = append(cpu, s.cpuS)
		alloc += s.allocB
		peaks = append(peaks, float64(s.peakHeapB))
		comparisons += s.comparisons
	}
	return []metric{
		{"setup_s", setupS, "s"},
		{"job_s_p50", median(walls(samples)), "s"},
		{"pairs_per_s", float64(comparisons) / wallSum, "1/s"},
		{"cpu_s_per_job", median(cpu), "s"},
		{"alloc_mb_per_job", float64(alloc) / float64(len(samples)) / 1e6, "MB"},
		{"peak_heap_mb", median(peaks) / 1e6, "MB"},
	}
}

func walls(samples []sample) []float64 {
	ws := make([]float64, len(samples))
	for i, s := range samples {
		ws[i] = s.wallS
	}
	return ws
}

// jobDetail is the per-job record printed with the result.
func jobDetail(samples []sample) map[string]any {
	ws := walls(samples)
	var peak uint64
	for _, s := range samples {
		peak = max(peak, s.peakHeapB)
	}
	d := map[string]any{"count": len(samples), "wall_s": ws, "peak_heap_mb_max": float64(peak) / 1e6}
	if pct, v, ok := tailPercentile(ws); ok {
		d[fmt.Sprintf("job_s_p%d", pct)] = v
	} else {
		d["tail_percentile"] = "needs at least 11 jobs"
	}
	return d
}
