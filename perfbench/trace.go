package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bdm"
	"repro/internal/core"
	"repro/internal/entity"
	"repro/internal/er"
	"repro/internal/mapreduce"
	"repro/internal/obs"
)

// The traced run. End-to-end jobs keep Engine.Obs nil; the traced
// jobs switch the engine's existing observer on and add the
// benchmark's own spans around the public calls into each layer,
// plus decorators that count and time the matcher and the sink. No
// instrumentation lives inside the program.

// traceCapacity bounds the engine events one traced run keeps; a
// traced job records about 150 (ds1-blocksplit-mem) to 1,000
// (ds2-pairrange-spill).
const traceCapacity = 1 << 17

// span is one timed interval of a traced job. Times are nanoseconds
// since the run's trace base, the clock the engine's tracer also
// counts from.
type span struct {
	Job    int    `json:"job"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracedRun owns the observer, the decorators and the spans.
type tracedRun struct {
	v       *env
	o       *obs.Observer
	base    time.Time
	cl      *cluster // the dist workload's observed cluster
	matcher *countingMatcher
	// timerNS is the clock's share of a sampled comparison's
	// interval, measured before each traced job.
	timerNS float64

	spans   []span
	evNext  int
	jobs    []map[string]float64
	selfNS  map[string][]float64
	ledgers []map[string]any
	jobID   int
	buf     bytes.Buffer
}

func newTracedRun(ctx context.Context, v *env) (*tracedRun, error) {
	t := &tracedRun{
		v:       v,
		matcher: newCountingMatcher(v.matcher),
		selfNS:  map[string][]float64{},
	}
	t.o = obs.New(obs.Options{TraceCapacity: traceCapacity, Log: obs.Quiet()})
	// The tracer stamps events with the time since it was created.
	// One marker event, recorded between two clock reads, puts the
	// benchmark's spans on that clock to within a fraction of a
	// microsecond. It is an instant, which attribution ignores.
	t0 := time.Now()
	t.o.Tracer.Record(obs.Event{Type: obs.EvInstant, Kind: obs.KJob, Task: -1})
	t1 := time.Now()
	t.base = t0.Add(t1.Sub(t0)/2 - time.Duration(t.o.Tracer.Events()[0].TS))
	t.evNext = 1
	if v.w.distributed {
		cl, err := startCluster(ctx, v.tmpDir, t.o)
		if err != nil {
			return nil, err
		}
		t.cl = cl
	}
	return t, nil
}

func (t *tracedRun) close() {
	if t.cl != nil {
		t.cl.close()
	}
}

func (t *tracedRun) now() int64 { return int64(time.Since(t.base)) }

// begin opens a span and returns its index.
func (t *tracedRun) begin(name string, parent int) int {
	t.spans = append(t.spans, span{Job: t.jobID, ID: len(t.spans), Parent: parent, Name: name, Start: t.now()})
	return len(t.spans) - 1
}

func (t *tracedRun) end(i int) { t.spans[i].End = t.now() }

// runLocal decomposes er.RunPipeline into the public calls it makes,
// with a span around each.
func (t *tracedRun) runLocal(ctx context.Context, root int, sink *timedSink) (jobResult, error) {
	v := t.v
	eng := v.engine(t.o)
	s := t.begin("bdm.compute", root)
	matrix, side, bdmRes, err := bdm.ComputeContext(ctx, eng, v.in.parts, bdm.JobOptions{
		Attr:           attr,
		KeyFunc:        v.w.blockKey(),
		NumReduceTasks: numReduces,
		UseCombiner:    true,
	})
	t.end(s)
	if err != nil {
		return jobResult{}, err
	}
	s = t.begin("core.job_build", root)
	job, err := v.w.strategy.JobPrepared(matrix, numReduces, t.matcher)
	t.end(s)
	if err != nil {
		return jobResult{}, err
	}
	s = t.begin("mapreduce.match_job", root)
	res, err := job.RunStream(ctx, eng, side, func(o core.MatchOutput) error {
		return sink.Consume(o.Key, o.Value)
	})
	t.end(s)
	if err != nil {
		return jobResult{}, err
	}
	s = t.begin("er.sink_flush", root)
	err = sink.Flush()
	t.end(s)
	return jobResult{res: &er.Result{
		Comparisons: res.Counter(core.ComparisonsCounter),
		BDM:         matrix,
		BDMResult:   bdmRes,
		MatchResult: res,
	}}, err
}

// registry counters the traced job reads as deltas.
var counterNames = []string{
	"engine.spill_runs_total",
	"engine.spill_bytes_written_total",
	"engine.spill_bytes_read_total",
	"engine.remote_degradations_total",
	"dist.master.dispatch_total",
	"dist.master.dispatch_errors_total",
	"dist.worker.shuffle_read_bytes_total",
	"dist.worker.task_errors_total",
}

func (t *tracedRun) counters() map[string]int64 {
	m := make(map[string]int64, len(counterNames))
	for _, n := range counterNames {
		m[n] = t.o.Reg.Counter(n).Value()
	}
	return m
}

// job runs one traced job, checks its output and ledgers, and
// attributes its time and work.
func (t *tracedRun) job(ctx context.Context, ref reference, rep *report, failures *[]string) {
	t.jobID++
	t.buf.Reset()
	sink := &timedSink{inner: er.NewCSVSink(&t.buf)}
	t.timerNS = timerOverheadNS()
	m0 := t.matcher.totals()
	c0 := t.counters()
	var jr jobResult
	var root int
	s, err := measureJob(func() error {
		root = t.begin("job", -1)
		var err error
		if t.v.w.distributed {
			// One public call: the engine's job spans stand in for the
			// per-job spans of the local workloads.
			d := t.begin("er.run_distributed", root)
			jr, err = t.v.runJob(ctx, t.cl, t.o, sink)
			t.end(d)
		} else {
			jr, err = t.runLocal(ctx, root, sink)
		}
		t.end(root)
		return err
	})
	rep.attempted++
	// The job's engine events are consumed even when it failed, so the
	// next job's events start where this one's end.
	spans, spanErr := t.engineSpans(root)
	if err == nil {
		err = spanErr
	}
	if err == nil {
		err = t.attribute(ref, spans, s, jr, sink, m0, c0)
	}
	if err != nil {
		rep.failed++
		*failures = append(*failures, "traced: "+err.Error())
	}
}

// attribute derives one traced job's per-layer metrics and checks that
// its ledgers reconcile.
func (t *tracedRun) attribute(ref reference, spans []span, s sample, jr jobResult, sink *timedSink, m0 matcherTotals, c0 map[string]int64) error {
	w, out := t.v.w, jr.res
	if err := t.v.checkJob(ref, jr, t.buf.Bytes()); err != nil {
		return err
	}
	m := t.matcher.totals().minus(m0)
	c1 := t.counters()
	dc := func(name string) int64 { return c1[name] - c0[name] }

	x := map[string]float64{}
	entities := float64(len(t.v.in.entities))
	x["bdm.map_output_records_total"] = float64(out.BDMResult.MapOutputRecords)
	x["bdm.blocks_total"] = float64(out.BDM.NumBlocks())
	plan, err := w.strategy.Plan(out.BDM, numMaps, numReduces)
	if err != nil {
		return fmt.Errorf("plan: %w", err)
	}
	x["core.plan_reduce_max_over_mean"] = maxOverMean(plan.ReduceComparisons)
	x["core.map_emits_total"] = float64(out.MatchResult.MapOutputRecords)
	x["core.emits_per_entity"] = float64(out.MatchResult.MapOutputRecords) / entities

	// Time per layer: the benchmark's own spans on the local
	// workloads; on the dist workload, whose pipeline is one public
	// call, the engine's job spans stand in for the per-job calls.
	matchJob := out.MatchResult.JobName
	x["bdm.compute_s"] = spanSeconds(spans, "bdm.compute", "engine.job/bdm")
	x["core.job_build_s"] = spanSeconds(spans, "core.job_build", "")
	x["mapreduce.match_job_s"] = spanSeconds(spans, "mapreduce.match_job", "engine.job/"+matchJob)
	x["mapreduce.map_phase_s"] = spanSeconds(spans, "engine.map_phase/"+matchJob, "")
	x["mapreduce.reduce_phase_s"] = spanSeconds(spans, "engine.reduce_phase/"+matchJob, "")
	tasks := reduceTaskNS(spans, matchJob)
	x["mapreduce.reduce_task_max_over_mean"] = maxOverMean(tasks)
	var busy int64
	for _, d := range tasks {
		busy += d
	}
	x["mapreduce.reduce_wait_s"] = math.Max(0, parallelism*x["mapreduce.reduce_phase_s"]-float64(busy)/1e9)
	var maxGroup int64
	for _, r := range out.MatchResult.ReduceMetrics {
		maxGroup = max(maxGroup, r.MaxGroupRecords)
	}
	x["mapreduce.max_group_records"] = float64(maxGroup)
	x["mapreduce.attempts_total"] = float64(out.BDMResult.Attempts + out.MatchResult.Attempts)
	x["mapreduce.retries_total"] = float64(out.BDMResult.Retries + out.MatchResult.Retries)

	runs, written, read := spillTotals(&out.BDMResult.Metrics, &out.MatchResult.Metrics)
	x["runio.spill_runs_total"] = float64(runs)
	x["runio.spill_written_mb"] = float64(written) / 1e6
	x["runio.spill_read_mb"] = float64(read) / 1e6
	if written > 0 {
		x["runio.spill_bytes_per_record"] = float64(written) / float64(out.BDMResult.MapOutputRecords+out.MatchResult.MapOutputRecords)
	}

	x["match.prepare_total"] = float64(m.prepared)
	x["match.compare_total"] = float64(m.compares)
	x["match.compare_s"] = m.compareSeconds(t.timerNS)
	x["match.matches_total"] = float64(m.matches)
	if m.compares > 0 {
		x["match.match_ratio"] = float64(m.matches) / float64(m.compares)
	}
	x["er.sink_consume_total"] = float64(sink.consumed)
	x["er.sink_s"] = float64(sink.consumeNS+sink.flushNS) / 1e9

	x["dist.dispatch_total"] = float64(dc("dist.master.dispatch_total"))
	x["dist.dispatch_errors_total"] = float64(dc("dist.master.dispatch_errors_total"))
	x["dist.shuffle_read_mb"] = float64(dc("dist.worker.shuffle_read_bytes_total")) / 1e6
	x["dist.worker_task_errors_total"] = float64(dc("dist.worker.task_errors_total"))
	x["dist.remote_degradations_total"] = float64(dc("engine.remote_degradations_total"))

	x["runtime.gc_cycles_per_job"] = float64(s.gcCycles)
	x["runtime.gc_pause_s"] = s.gcPauseS
	x["job_s"] = s.wallS

	// Ledgers: every count the job produced must agree with the others
	// that describe the same work.
	led := map[string]any{"job": t.jobID}
	var bad []string
	check := func(name string, ok bool, detail any) {
		led[name] = detail
		if !ok {
			bad = append(bad, fmt.Sprintf("%s %v", name, detail))
		}
	}
	check("sink_consume_eq_matches", sink.consumed == int64(ref.matches), [2]int64{sink.consumed, int64(ref.matches)})
	if w.distributed {
		// Workers rebuild the matcher from the job spec, so the
		// decorator sees no calls; dispatch must have happened and
		// nothing may have fallen back to local execution.
		check("dispatched", dc("dist.master.dispatch_total") > 0, [2]int64{dc("dist.master.dispatch_total"), jr.remoteTasks})
		check("no_degradation", dc("engine.remote_degradations_total") == 0, dc("engine.remote_degradations_total"))
	} else {
		check("compare_total_eq_comparisons_eq_bdm_pairs",
			m.compares == out.Comparisons && out.Comparisons == out.BDM.Pairs(),
			[3]int64{m.compares, out.Comparisons, out.BDM.Pairs()})
		check("matcher_matches_eq_sink", m.matches == sink.consumed, [2]int64{m.matches, sink.consumed})
		check("released_eq_prepared", m.released == m.prepared, [2]int64{m.released, m.prepared})
		// Spill accounting: TaskMetrics (published on commit) against
		// the registry (counted as spills happen); equal on a run
		// without failed attempts.
		check("runio_eq_registry_spill",
			runs == dc("engine.spill_runs_total") && written == dc("engine.spill_bytes_written_total") && read == dc("engine.spill_bytes_read_total"),
			[2][3]int64{{runs, written, read}, {dc("engine.spill_runs_total"), dc("engine.spill_bytes_written_total"), dc("engine.spill_bytes_read_total")}})
	}
	unattributed := t.selfTimes(spans)
	check("self_times_cover_job", math.Abs(unattributed) <= nestTolNS, unattributed)
	check("tracer_not_full", t.o.Tracer.Dropped() == 0, t.o.Tracer.Dropped())
	t.ledgers = append(t.ledgers, led)
	if bad != nil {
		return fmt.Errorf("ledgers do not reconcile: %v", bad)
	}
	t.jobs = append(t.jobs, x)
	return nil
}

// nestTolNS is how much of a job span may go unattributed, and how
// far an engine span may stick out of the span it is placed under:
// the clock alignment error plus the gap between an engine event's
// clock read and its slot claim.
const nestTolNS = 100e3

// engineSpans turns the job, phase and task begin/end events of this
// job's engine into spans under the benchmark's innermost enclosing
// span (the workers' events carry a worker id and are skipped),
// appends them to the run's spans and returns the job's full span
// list.
func (t *tracedRun) engineSpans(root int) ([]span, error) {
	evs := t.o.Tracer.Events()
	evs, t.evNext = evs[t.evNext:], len(evs)
	type key struct {
		kind          obs.Kind
		job           uint32
		phase         uint8
		task, attempt int32
	}
	open := map[key]int64{}
	own := slices.Clone(t.spans[root:])
	var eng []span
	for _, ev := range evs {
		if ev.Worker != 0 || (ev.Kind != obs.KJob && ev.Kind != obs.KPhase && ev.Kind != obs.KTask) {
			continue
		}
		k := key{ev.Kind, ev.Job, ev.Phase, ev.Task, ev.Attempt}
		switch ev.Type {
		case obs.EvBegin:
			open[k] = ev.TS
		case obs.EvEnd:
			start, ok := open[k]
			if !ok {
				return nil, fmt.Errorf("engine %s event ends without a begin", ev.Kind)
			}
			delete(open, k)
			name := t.o.Tracer.JobName(ev.Job)
			switch ev.Kind {
			case obs.KJob:
				name = "engine.job/" + name
			case obs.KPhase:
				name = "engine." + obs.PhaseName(ev.Phase) + "_phase/" + name
			case obs.KTask:
				name = "engine." + obs.PhaseName(ev.Phase) + "_task/" + name
			}
			eng = append(eng, span{Job: t.jobID, Parent: -1, Name: name, Start: start, End: ev.TS})
		}
	}
	if len(open) > 0 {
		return nil, fmt.Errorf("%d engine spans left open", len(open))
	}
	// Parent each engine span to the shortest span of a kind above it
	// that contains it: jobs under the benchmark's spans, phases under
	// jobs, tasks under phases. selfTimes then checks the nesting.
	slices.SortStableFunc(eng, func(a, b span) int { return engineDepth(a.Name) - engineDepth(b.Name) })
	all := own
	for _, e := range eng {
		e.ID = root + len(all)
		best := -1
		for _, p := range all {
			if engineDepth(p.Name) < engineDepth(e.Name) && p.Start-nestTolNS <= e.Start && e.End <= p.End+nestTolNS &&
				(best < 0 || p.dur() < all[best-root].dur()) {
				best = p.ID
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("engine span %s lies outside the job span", e.Name)
		}
		e.Parent = best
		all = append(all, e)
	}
	t.spans = append(t.spans, all[len(own):]...)
	return all, nil
}

// engineDepth orders span kinds from outermost to innermost.
func engineDepth(name string) int {
	switch {
	case name == "job":
		return 0
	case !strings.HasPrefix(name, "engine."):
		return 1
	case strings.HasPrefix(name, "engine.job/"):
		return 2
	case strings.Contains(name, "_phase/"):
		return 3
	default:
		return 4
	}
}

// selfTimes records every span's self time over the sequential part of
// the tree (tasks run in parallel and are left out): its duration less
// the part of its interval its children cover. It returns how much of
// the job span the self times leave unaccounted for, which is zero
// exactly when every child lies inside its parent and no two siblings
// overlap.
func (t *tracedRun) selfTimes(spans []span) (unattributedNS float64) {
	children := map[int][]span{}
	var seq []span
	for _, s := range spans {
		if engineDepth(s.Name) == 4 {
			continue
		}
		seq = append(seq, s)
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var total, rootNS int64
	for _, s := range seq {
		if s.Parent < 0 {
			rootNS = s.dur()
		}
		kids := children[s.ID]
		slices.SortFunc(kids, func(a, b span) int { return cmp.Compare(a.Start, b.Start) })
		var covered int64
		end := s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, end), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				end = hi
			}
		}
		self := s.dur() - covered
		total += self
		t.selfNS[s.Name] = append(t.selfNS[s.Name], float64(self))
	}
	return float64(rootNS - total)
}

// reduceTaskNS returns the durations of the match job's reduce tasks.
func reduceTaskNS(spans []span, matchJob string) []int64 {
	var ds []int64
	for _, s := range spans {
		if s.Name == "engine.reduce_task/"+matchJob {
			ds = append(ds, s.dur())
		}
	}
	return ds
}

// spanSeconds returns the duration of the span named name, or of the
// one named alt when there is none.
func spanSeconds(spans []span, name, alt string) float64 {
	for _, n := range []string{name, alt} {
		for _, s := range spans {
			if n != "" && s.Name == n {
				return float64(s.dur()) / 1e9
			}
		}
	}
	return 0
}

func spillTotals(ms ...*mapreduce.Metrics) (runs, written, read int64) {
	for _, m := range ms {
		for _, tm := range append(slices.Clone(m.MapMetrics), m.ReduceMetrics...) {
			runs += tm.SpillRuns
			written += tm.SpillBytesWritten
			read += tm.SpillBytesRead
		}
	}
	return runs, written, read
}

func maxOverMean(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, mx int64
	for _, x := range xs {
		sum += x
		mx = max(mx, x)
	}
	if sum == 0 {
		return 0
	}
	return float64(mx) * float64(len(xs)) / float64(sum)
}

// perLayer lists the per-layer metrics in report order with units.
var perLayer = []struct{ name, unit string }{
	{"input.generate_s", "s"},
	{"input.entities_total", "count"},
	{"bdm.compute_s", "s"},
	{"bdm.map_output_records_total", "count"},
	{"bdm.blocks_total", "count"},
	{"core.job_build_s", "s"},
	{"core.plan_reduce_max_over_mean", "ratio"},
	{"core.map_emits_total", "count"},
	{"core.emits_per_entity", "ratio"},
	{"mapreduce.match_job_s", "s"},
	{"mapreduce.map_phase_s", "s"},
	{"mapreduce.reduce_phase_s", "s"},
	{"mapreduce.reduce_task_max_over_mean", "ratio"},
	{"mapreduce.reduce_wait_s", "s"},
	{"mapreduce.max_group_records", "count"},
	{"mapreduce.attempts_total", "count"},
	{"mapreduce.retries_total", "count"},
	{"runio.spill_runs_total", "count"},
	{"runio.spill_written_mb", "MB"},
	{"runio.spill_read_mb", "MB"},
	{"runio.spill_bytes_per_record", "B/record"},
	{"match.prepare_total", "count"},
	{"match.compare_total", "count"},
	{"match.compare_s", "s"},
	{"match.matches_total", "count"},
	{"match.match_ratio", "ratio"},
	{"er.sink_consume_total", "count"},
	{"er.sink_s", "s"},
	{"dist.dispatch_total", "count"},
	{"dist.dispatch_errors_total", "count"},
	{"dist.shuffle_read_mb", "MB"},
	{"dist.worker_task_errors_total", "count"},
	{"dist.remote_degradations_total", "count"},
	{"runtime.gc_cycles_per_job", "count"},
	{"runtime.gc_pause_s", "s"},
	{"trace.overhead_s", "s"},
}

// metrics returns the per-layer metrics: the median over traced jobs
// of each, and the tracing overhead against the untraced jobs.
func (t *tracedRun) metrics(generateS float64, entities int, untracedJobS float64) []metric {
	out := make([]metric, 0, len(perLayer))
	for _, p := range perLayer {
		var v float64
		switch p.name {
		case "input.generate_s":
			v = generateS
		case "input.entities_total":
			v = float64(entities)
		case "trace.overhead_s":
			v = median(t.col("job_s")) - untracedJobS
		default:
			v = median(t.col(p.name))
		}
		out = append(out, metric{p.name, v, p.unit})
	}
	return out
}

// detail is the traced run's report: self times per span name,
// ledgers, and the traced job times.
func (t *tracedRun) detail(untracedJobS float64) map[string]any {
	self := map[string]float64{}
	for name, xs := range t.selfNS {
		self[name] = median(xs) / 1e9
	}
	return map[string]any{
		"traced_jobs":           len(t.jobs),
		"traced_job_s":          t.col("job_s"),
		"traced_job_s_p50":      median(t.col("job_s")),
		"untraced_job_s_p50":    untracedJobS,
		"self_s_p50":            self,
		"ledgers":               t.ledgers,
		"engine_events":         t.o.Tracer.Len(),
		"engine_events_dropped": t.o.Tracer.Dropped(),
	}
}

// col returns one metric's values over the traced jobs.
func (t *tracedRun) col(name string) []float64 {
	var xs []float64
	for _, j := range t.jobs {
		xs = append(xs, j[name])
	}
	return xs
}

// writeSpans dumps every span of the run as JSON.
func (t *tracedRun) writeSpans(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// spanPath names the span dump of one run.
func spanPath(dir, workload string, seed int64) string {
	return filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", workload, seed))
}

// timedSink counts and times the sink's calls. The engine serializes
// Consume, so plain fields suffice.
type timedSink struct {
	inner              er.MatchSink
	consumed           int64
	consumeNS, flushNS int64
}

func (s *timedSink) Consume(p core.MatchPair, sim float64) error {
	t0 := time.Now()
	err := s.inner.Consume(p, sim)
	s.consumeNS += int64(time.Since(t0))
	s.consumed++
	return err
}

func (s *timedSink) Flush() error {
	t0 := time.Now()
	err := s.inner.Flush()
	s.flushNS += int64(time.Since(t0))
	return err
}

// sampleEvery is the 1-in-N rate at which comparisons are timed: one
// comparison costs tens of nanoseconds, less than reading the clock
// twice, so timing every call would more than double the kernel's
// cost.
const sampleEvery = 64

// countingMatcher forwards to a prepared matcher, counting every call
// and timing a fixed 1-in-sampleEvery sample of comparisons. Each
// prepared entity is wrapped with its own counters, which only its
// reduce group's goroutine touches; ReleasePrepared folds them into
// the totals and forwards the release, so the inner matcher's pooled
// forms are recycled exactly as without the decorator. A comparison
// is counted on its first entity, and each entity starts its sampling
// cycle at a phase drawn from its ID, so an entity with few
// comparisons is as likely to be sampled as one with many.
type countingMatcher struct {
	inner    core.PreparedMatcher
	rel      core.PreparedReleaser
	pool     sync.Pool
	prepared atomic.Int64
	mu       sync.Mutex
	tot      matcherTotals
}

type countedEntity struct {
	inner                                core.PreparedEntity
	tick                                 uint32
	compares, matches, sampled, sampleNS int64
}

func newCountingMatcher(inner core.PreparedMatcher) *countingMatcher {
	rel, _ := inner.(core.PreparedReleaser)
	m := &countingMatcher{inner: inner, rel: rel}
	m.pool.New = func() any { return new(countedEntity) }
	return m
}

func (m *countingMatcher) Prepare(e entity.Entity) core.PreparedEntity {
	m.prepared.Add(1)
	c := m.pool.Get().(*countedEntity)
	c.inner = m.inner.Prepare(e)
	// FNV-1a of the ID picks the entity's sampling phase.
	c.tick = 2166136261
	for i := 0; i < len(e.ID); i++ {
		c.tick = (c.tick ^ uint32(e.ID[i])) * 16777619
	}
	return c
}

func (m *countingMatcher) ReleasePrepared(p core.PreparedEntity) {
	c := p.(*countedEntity)
	m.mu.Lock()
	m.tot.released++
	m.tot.compares += c.compares
	m.tot.matches += c.matches
	m.tot.sampled += c.sampled
	m.tot.sampledNS += c.sampleNS
	m.mu.Unlock()
	if m.rel != nil {
		m.rel.ReleasePrepared(c.inner)
	}
	*c = countedEntity{}
	m.pool.Put(c)
}

func (m *countingMatcher) MatchPrepared(a, b core.PreparedEntity) (float64, bool) {
	ca, cb := a.(*countedEntity), b.(*countedEntity)
	ca.compares++
	ca.tick++
	var sim float64
	var ok bool
	if ca.tick%sampleEvery != 0 {
		sim, ok = m.inner.MatchPrepared(ca.inner, cb.inner)
	} else {
		t0 := time.Now()
		sim, ok = m.inner.MatchPrepared(ca.inner, cb.inner)
		ca.sampleNS += int64(time.Since(t0))
		ca.sampled++
	}
	if ok {
		ca.matches++
	}
	return sim, ok
}

// matcherTotals counts prepared and released entities and the
// comparisons the released ones made.
type matcherTotals struct {
	prepared, released, compares, matches, sampled, sampledNS int64
}

func (m *countingMatcher) totals() matcherTotals {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := m.tot
	t.prepared = m.prepared.Load()
	return t
}

func (t matcherTotals) minus(u matcherTotals) matcherTotals {
	return matcherTotals{
		t.prepared - u.prepared, t.released - u.released, t.compares - u.compares,
		t.matches - u.matches, t.sampled - u.sampled, t.sampledNS - u.sampledNS,
	}
}

// compareSeconds scales the sampled comparison time up to all
// comparisons, less the clock reads' own cost.
func (t matcherTotals) compareSeconds(timerNS float64) float64 {
	if t.sampled == 0 {
		return 0
	}
	per := math.Max(0, float64(t.sampledNS)/float64(t.sampled)-timerNS)
	return per * float64(t.compares) / 1e9
}

// timerOverheadNS measures what a sampled comparison's interval
// holds besides the comparison: the tail of time.Now and the head of
// time.Since, averaged over many empty intervals.
func timerOverheadNS() float64 {
	const n = 1 << 14
	var sum time.Duration
	for i := 0; i < n; i++ {
		t0 := time.Now()
		sum += time.Since(t0)
	}
	return float64(sum) / n
}
