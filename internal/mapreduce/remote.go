package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/runio"
)

// This file is the engine's distributed-execution seam, selected by
// Engine.Remote. The master-side driver (runRemote) runs the same
// task-attempt supervision as the in-process dataflow — every remote
// task is one run/commit/discard sequence under the RetryPolicy, so
// retries, backoff, speculation, and the task-commit protocol apply
// unchanged to tasks that execute in another process. The worker side
// runs the in-process map attempt verbatim (RemoteRunnable wraps a
// concrete Job) and writes the task's whole output as one sorted ERN1
// run with the spiller's run writer; reduce attempts are the one reduce
// attempt over one run segment per map task — exactly the external
// dataflow's reduce discipline — so distributed results inherit the
// external≡typed byte-identity proof. See DESIGN.md ("Distributed
// runtime").
//
// Division of labor with internal/dist: this file defines the
// process-agnostic contract (dispatcher interface, wire-free executor
// entry points, record blobs); dist implements the HTTP control plane,
// worker registry, heartbeats, and run serving on top of it.

// ErrNoWorkers is returned by a RemoteDispatcher when no live worker is
// available to run an attempt. The driver reacts by degrading that
// attempt to local execution with a logged warning instead of failing
// the job — the bottom rung of the degradation ladder.
var ErrNoWorkers = errors.New("mapreduce: no live workers")

// RemoteMapResult is a completed remote map attempt as the driver sees
// it: the run's segment index (Path pointing at the master-local
// replica the dispatcher fetched), the worker URL the run can also be
// range-read from, and the attempt's side output as a record blob.
type RemoteMapResult struct {
	// Info describes the attempt's ERN1 run file; Info.Path must name a
	// file readable by this process (the dispatcher's replica).
	Info *runio.Info
	// Origin is the worker's run-serving URL ("" when the run only
	// exists locally). Reducers prefer it and fall back to the replica.
	Origin string
	// Side is the attempt's side output, SideCount records encoded with
	// the job's input codec (see EncodeRecords). It may be a pooled
	// blob: the driver decodes it and hands it back with PutBlob.
	Side      []byte
	SideCount int
	Metrics   TaskMetrics
}

// RemoteReduceResult is a completed remote reduce attempt: the emitted
// output as a record blob (possibly pooled; the driver decodes it and
// hands it back with PutBlob) plus the attempt's metrics.
type RemoteReduceResult struct {
	Output      []byte
	OutputCount int
	Metrics     TaskMetrics
}

// RemoteRun locates one committed map task's run for the reduce phase.
type RemoteRun struct {
	MapTask int
	// Path is the master-local replica file.
	Path string
	// Origin is the worker's run URL ("" when the run was produced by
	// local degradation and only the replica exists).
	Origin string
	Info   *runio.Info
}

// RemoteDispatcher executes task attempts on remote workers. The engine
// calls it once per attempt from supervised task goroutines; it must be
// safe for concurrent use. Error contract:
//
//   - ErrNoWorkers (wrapped or not) makes the driver run the attempt
//     locally with a logged warning;
//   - an error wrapped with Fatal fails the task immediately;
//   - any other error fails only the attempt, and the RetryPolicy
//     decides on re-dispatch (typically landing on another worker).
type RemoteDispatcher interface {
	// RunMapAttempt dispatches one map attempt: input is inputCount
	// records encoded with the job's input codec, in a pooled blob the
	// dispatcher owns from the call on — it hands it back with PutBlob
	// once nothing can read it (or drops it). On success the attempt's
	// run file must be readable at replicaPath.
	RunMapAttempt(ctx context.Context, m, task, attempt int, input []byte, inputCount int, replicaPath string) (*RemoteMapResult, error)
	// RunReduceAttempt dispatches one reduce attempt over the committed
	// map runs (indexed by map task, all m present).
	RunReduceAttempt(ctx context.Context, m, task, attempt int, runs []RemoteRun) (*RemoteReduceResult, error)
}

// SegmentSource locates one map task's segment of one sorted run for a
// remote reduce attempt. R typically wraps an open file or an HTTP
// range reader; runio.SegmentReader bounds every read to Seg.
type SegmentSource struct {
	R    io.ReaderAt
	Seg  runio.Segment
	Path string // names the run in corruption errors
}

// RemoteRunnable is the type-erased worker-side face of a typed Job:
// it executes single attempts from encoded inputs, so a worker process
// can run jobs whose concrete type parameters it does not know
// (internal/dist builds them through registered constructors).
type RemoteRunnable interface {
	JobName() string
	// ExecRemoteMap runs one typed map attempt over the decoded input
	// blob and writes the attempt's entire sorted output as one ERN1 run
	// at runPath. It does not retain input. The result's Origin is left
	// empty — serving is the caller's concern — and its Side is a pooled
	// blob the caller hands back with PutBlob once it is written out.
	ExecRemoteMap(ctx context.Context, m, task, attempt int, input []byte, inputCount int, runPath string) (*RemoteMapResult, error)
	// ExecRemoteReduce runs one typed reduce attempt over the map tasks'
	// run segments, given in map-task order (zero-record segments may be
	// included; they contribute nothing). The result's Output is a
	// pooled blob, like ExecRemoteMap's Side.
	ExecRemoteReduce(ctx context.Context, m, task, attempt int, sources []SegmentSource) (*RemoteReduceResult, error)
}

// NewRemoteRunnable wraps a typed job for worker-side execution. It
// fails when any of the job's four record types lacks a runio codec —
// the same requirement the external dataflow has for K and V, extended
// to I and O because inputs and outputs cross the process boundary.
func NewRemoteRunnable[I, K, V, O any](j *Job[I, K, V, O]) (RemoteRunnable, error) {
	ic, ok := runio.Lookup[I]()
	if !ok {
		return nil, fmt.Errorf("mapreduce: job %q: remote execution: no runio codec registered for input type %T", j.Name, *new(I))
	}
	st := newRunState(j)
	if err := st.setCodecs("remote execution"); err != nil {
		return nil, fmt.Errorf("mapreduce: job %q: %w", j.Name, err)
	}
	oc, ok := runio.Lookup[O]()
	if !ok {
		return nil, fmt.Errorf("mapreduce: job %q: remote execution: no runio codec registered for output type %T", j.Name, *new(O))
	}
	return &remoteRunnable[I, K, V, O]{j: j, st: st, ic: ic, oc: oc}, nil
}

type remoteRunnable[I, K, V, O any] struct {
	j  *Job[I, K, V, O]
	st *runState[I, K, V, O]
	ic runio.Codec[I]
	oc runio.Codec[O]
}

func (rr *remoteRunnable[I, K, V, O]) JobName() string { return rr.j.Name }

func (rr *remoteRunnable[I, K, V, O]) ExecRemoteMap(ctx context.Context, m, task, attempt int, input []byte, inputCount int, runPath string) (*RemoteMapResult, error) {
	if err := rr.j.validate(m); err != nil {
		return nil, Fatal(err)
	}
	recs, err := DecodeRecords(rr.ic, input, inputCount)
	if err != nil {
		return nil, fmt.Errorf("map task %d input: %w", task, err)
	}
	return rr.st.execMapToRun(ctx, nil, task, attempt, m, recs, rr.ic, runPath)
}

func (rr *remoteRunnable[I, K, V, O]) ExecRemoteReduce(ctx context.Context, m, task, attempt int, sources []SegmentSource) (*RemoteReduceResult, error) {
	if err := rr.j.validate(m); err != nil {
		return nil, Fatal(err)
	}
	rout, err := rr.st.runReduceAttempt(ctx, nil, task, attempt, m, nil, sources)
	if err != nil {
		return nil, err
	}
	blob := EncodeRecords(rr.oc, rout.out)
	res := &RemoteReduceResult{Output: blob, OutputCount: len(rout.out), Metrics: rout.metrics}
	putOutBuf(rr.st.outPool, rout.out)
	return res, nil
}

// execMapToRun runs one map attempt and writes its whole sorted output
// as a single ERN1 run file at runPath — the shared implementation of
// the worker-side executor and the master's local degradation path. The
// run counters of that one run (SpillRuns, SpillBytesWritten) are
// execution history, outside the differential contract.
func (st *runState[I, K, V, O]) execMapToRun(actx context.Context, hook *taskHook, task, attempt, m int, input []I, ic runio.Codec[I], runPath string) (*RemoteMapResult, error) {
	mout, err := st.runMapAttempt(actx, hook, task, attempt, m, input, runPath)
	if err == nil {
		err = mout.file.Close()
	}
	if err != nil {
		os.Remove(runPath)
		return nil, err
	}
	return &RemoteMapResult{
		Info:      mout.runs[0],
		Side:      EncodeRecords(ic, mout.side),
		SideCount: len(mout.side),
		Metrics:   mout.metrics,
	}, nil
}

// checkRun rejects a map run whose shape disagrees with the job. A
// worker of another build (version skew in NumReduceTasks or the key
// coding) can write a valid ERN1 run that the reduce phase would index
// out of range; failing the attempt lets the supervisor retry it.
func (st *runState[I, K, V, O]) checkRun(task int, info *runio.Info) error {
	if len(info.Segments) != st.r || info.CodeWidth != st.codeWidth {
		return fmt.Errorf("map task %d: run has %d partitions and key-code width %d, want %d and %d",
			task, len(info.Segments), info.CodeWidth, st.r, st.codeWidth)
	}
	return nil
}

// remoteMapOut is one distributed map attempt's private output.
type remoteMapOut[I any] struct {
	run     RemoteRun
	side    []I
	metrics TaskMetrics
}

// runRemote is the master-side driver of distributed execution (the job
// is already validated by Job.run, which dispatches here when
// Engine.Remote is set). Map and reduce attempts go through the
// dispatcher; the supervisor's retry loop is the reassignment machinery
// (a dead worker's dispatch error is just a failed attempt), and
// committed runs are never recomputed — the replica the dispatcher
// fetched at map commit outlives the worker that produced it. When the
// dispatcher reports ErrNoWorkers, the attempt degrades to local
// execution with a logged warning.
func (j *Job[I, K, V, O]) runRemote(ctx context.Context, e *Engine, input [][]I, sink *outputSink[O]) (*Result[I, O], error) {
	m := len(input)
	ic, ok := runio.Lookup[I]()
	if !ok {
		return nil, fmt.Errorf("mapreduce: job %q: remote execution: no runio codec registered for input type %T", j.Name, *new(I))
	}
	st := newRunState(j)
	if err := st.setCodecs("remote execution"); err != nil {
		return nil, fmt.Errorf("mapreduce: job %q: %w", j.Name, err)
	}
	oc, ok := runio.Lookup[O]()
	if !ok {
		return nil, fmt.Errorf("mapreduce: job %q: remote execution: no runio codec registered for output type %T", j.Name, *new(O))
	}
	if e.TmpDir != "" {
		if err := os.MkdirAll(e.TmpDir, 0o755); err != nil {
			return nil, fmt.Errorf("mapreduce: job %q: create tmp dir: %w", j.Name, err)
		}
	}
	dir, err := os.MkdirTemp(e.TmpDir, "mr-dist-*")
	if err != nil {
		return nil, fmt.Errorf("mapreduce: job %q: create replica dir: %w", j.Name, err)
	}
	// The replica directory dies with this run on every exit path.
	defer os.RemoveAll(dir)

	// The degradation warning fires once per job, not once per task —
	// an empty pool would otherwise log m+r near-identical lines.
	var degradeOnce sync.Once
	logDegraded := func() {
		degradeOnce.Do(func() {
			e.logger().Warn("no live workers; degrading to local execution", "job", j.Name)
			if o := e.Obs; o != nil {
				o.Engine.Degraded.Inc()
			}
		})
	}

	jobID := e.beginJob(j.Name)
	defer e.endJob(jobID)
	st.obs, st.jobID = e.Obs, jobID

	r := j.NumReduceTasks
	res := &Result[I, O]{
		Metrics: Metrics{
			JobName:       j.Name,
			MapMetrics:    make([]TaskMetrics, m),
			ReduceMetrics: make([]TaskMetrics, r),
		},
		SideOutput: make([][]I, m),
	}

	// ---- Map phase (remote dispatch, run replication) ----
	runs := make([]RemoteRun, m)
	mstats, merr := superviseTasks(ctx, e, MapTask, jobID, m,
		func(actx context.Context, hook *taskHook, task, attempt int) (remoteMapOut[I], error) {
			var out remoteMapOut[I]
			path := filepath.Join(dir, fmt.Sprintf("m%04d-a%03d.run", task, attempt))
			// The dispatcher owns the input blob from here on and
			// returns it to the pool once its transport is done with it.
			rm, err := e.Remote.RunMapAttempt(actx, m, task, attempt, EncodeRecords(ic, input[task]), len(input[task]), path)
			if errors.Is(err, ErrNoWorkers) {
				// Degradation ladder, bottom rung: no live worker — run
				// the attempt in-process so the job still completes.
				logDegraded()
				rm, err = st.execMapToRun(actx, hook, task, attempt, m, input[task], ic, path)
			}
			if err != nil {
				return out, err
			}
			side, err := DecodeRecords(ic, rm.Side, rm.SideCount)
			PutBlob(rm.Side)
			if err != nil {
				err = fmt.Errorf("map task %d: decode side output: %w", task, err)
			} else {
				err = st.checkRun(task, rm.Info)
			}
			if err != nil {
				os.Remove(path)
				return out, err
			}
			info := rm.Info
			info.Path = path
			out.run = RemoteRun{MapTask: task, Path: path, Origin: rm.Origin, Info: info}
			out.side = side
			out.metrics = rm.Metrics
			return out, nil
		},
		func(task int, out remoteMapOut[I]) error {
			out.metrics.Kind = MapTask
			out.metrics.Index = task
			res.MapMetrics[task] = out.metrics
			res.SideOutput[task] = out.side
			runs[task] = out.run
			return nil
		},
		func(out remoteMapOut[I]) {
			if out.run.Path != "" {
				os.Remove(out.run.Path)
			}
		},
	)
	res.addStats(mstats)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("mapreduce: job %q: %w", j.Name, err)
	}
	if merr != nil {
		return nil, fmt.Errorf("mapreduce: job %q: %w", j.Name, merr)
	}
	for i := range res.MapMetrics {
		res.MapOutputRecords += res.MapMetrics[i].OutputRecords
	}

	// ---- Reduce phase (remote dispatch over committed runs) ----
	reduceOut := make([][]O, r)
	rstats, rerr := superviseTasks(ctx, e, ReduceTask, jobID, r,
		func(actx context.Context, hook *taskHook, task, attempt int) (reduceOutput[O], error) {
			var rout reduceOutput[O]
			rr, err := e.Remote.RunReduceAttempt(actx, m, task, attempt, runs)
			if err != nil {
				if !errors.Is(err, ErrNoWorkers) {
					return rout, err
				}
				logDegraded()
				return st.runReduceSegmentsLocal(actx, hook, task, attempt, m, runs)
			}
			out := getOutBuf[O](st.outPool)
			out, derr := DecodeRecordsInto(oc, rr.Output, rr.OutputCount, out)
			PutBlob(rr.Output)
			if derr != nil {
				putOutBuf(st.outPool, out)
				return rout, fmt.Errorf("reduce task %d: decode output: %w", task, derr)
			}
			rout.out = out
			rout.metrics = rr.Metrics
			return rout, nil
		},
		func(task int, out reduceOutput[O]) error {
			out.metrics.Kind = ReduceTask
			out.metrics.Index = task
			res.ReduceMetrics[task] = out.metrics
			if sink != nil {
				sink.writeAll(out.out)
				putOutBuf(st.outPool, out.out)
				return nil
			}
			reduceOut[task] = out.out
			return nil
		},
		func(out reduceOutput[O]) { putOutBuf(st.outPool, out.out) },
	)
	res.addStats(rstats)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("mapreduce: job %q: %w", j.Name, err)
	}
	if rerr != nil {
		return nil, fmt.Errorf("mapreduce: job %q: %w", j.Name, rerr)
	}
	if sink != nil {
		if err := sink.Err(); err != nil {
			return nil, fmt.Errorf("mapreduce: job %q: output sink: %w", j.Name, err)
		}
	}
	var total int
	for jj := range reduceOut {
		total += len(reduceOut[jj])
	}
	res.Output = make([]O, 0, total)
	for jj := range reduceOut {
		res.Output = append(res.Output, reduceOut[jj]...)
		putOutBuf(st.outPool, reduceOut[jj])
	}
	return res, nil
}

// runReduceSegmentsLocal is the reduce-side degradation path: open each
// committed run's master-local replica and merge the task's segments
// in-process.
func (st *runState[I, K, V, O]) runReduceSegmentsLocal(actx context.Context, hook *taskHook, task, attempt, m int, runs []RemoteRun) (rout reduceOutput[O], err error) {
	srcs := make([]SegmentSource, 0, m)
	files := make([]*os.File, 0, m)
	defer func() {
		for _, f := range files {
			f.Close()
		}
	}()
	for mi := 0; mi < m; mi++ {
		run := runs[mi]
		if run.Info == nil || run.Info.Segments[task].Records == 0 {
			continue
		}
		f, oerr := os.Open(run.Path)
		if oerr != nil {
			return rout, fmt.Errorf("open run replica: %w", oerr)
		}
		files = append(files, f)
		srcs = append(srcs, SegmentSource{R: f, Seg: run.Info.Segments[task], Path: run.Path})
	}
	return st.runReduceAttempt(actx, hook, task, attempt, m, nil, srcs)
}

// EncodeRecords concatenates the codec encodings of recs into one blob
// (nil for an empty slice) — the record-blob convention remote inputs,
// side outputs, and reduce outputs cross process boundaries in. The
// blob is appended into a buffer from the record-blob pool; whoever
// holds it last hands it back with PutBlob once nothing can read it,
// or drops it for the GC.
func EncodeRecords[T any](c runio.Codec[T], recs []T) []byte {
	if len(recs) == 0 {
		return nil
	}
	b := blobPool.get()[:0]
	for i := range recs {
		b = c.Append(b, recs[i])
	}
	return b
}

// blobPool recycles record-blob buffers: the master's map-input
// blobs, the blobs both ends of a task dispatch read off the wire, and
// a worker's side and reduce-output blobs. Steady state, each attempt
// reuses a buffer a previous one grew instead of growing from nil.
var blobPool slicePool[byte]

// maxPooledBlob bounds the capacity of pooled blob buffers: an
// outsized blob is left to the GC rather than pinned by the pool.
const maxPooledBlob = 64 << 20

// GetBlob returns a length-n buffer from the record-blob pool (its
// contents are arbitrary), for a receiver to read an n-byte blob into.
// A pooled buffer too small for n is dropped and an exact one
// allocated, so the pool converges on buffers that fit.
func GetBlob(n int) []byte {
	if b := blobPool.get(); cap(b) >= n {
		return b[:n]
	}
	return make([]byte, n)
}

// PutBlob returns a record blob to the pool. Call it only when nothing
// can read b any more: decoded records never alias it (the codecs copy,
// see runio.String), so a blob is free once decoded or written out.
func PutBlob(b []byte) {
	if cap(b) == 0 || cap(b) > maxPooledBlob {
		return
	}
	blobPool.put(b[:0])
}

// DecodeRecords decodes a record blob produced by EncodeRecords. A
// zero-count blob decodes to nil, so side output round-trips its
// nil-ness (the differential suite compares with reflect.DeepEqual).
func DecodeRecords[T any](c runio.Codec[T], b []byte, count int) ([]T, error) {
	if count == 0 {
		if len(b) != 0 {
			return nil, fmt.Errorf("%w: %d blob bytes but 0 records", runio.ErrCorrupt, len(b))
		}
		return nil, nil
	}
	return DecodeRecordsInto(c, b, count, make([]T, 0, count))
}

// DecodeRecordsInto is DecodeRecords appending into a caller-provided
// buffer.
func DecodeRecordsInto[T any](c runio.Codec[T], b []byte, count int, dst []T) ([]T, error) {
	for i := 0; i < count; i++ {
		v, n, err := c.Decode(b)
		if err != nil {
			return dst, fmt.Errorf("record %d of %d: %w", i, count, err)
		}
		b = b[n:]
		dst = append(dst, v)
	}
	if len(b) != 0 {
		return dst, fmt.Errorf("%w: %d trailing bytes after %d records", runio.ErrCorrupt, len(b), count)
	}
	return dst, nil
}

// IsFatal reports whether err is marked Fatal (non-retryable). The dist
// worker uses it to preserve fatality across the wire: a fatal task
// error is re-wrapped with Fatal on the master side.
func IsFatal(err error) bool { return isFatal(err) }

// IsCorrupt reports whether err stems from structural corruption of a
// run file or record blob (runio.ErrCorrupt). Corruption of a served
// segment is surfaced structurally over the wire so the master can
// distinguish a bad replica from a flaky worker.
func IsCorrupt(err error) bool { return errors.Is(err, runio.ErrCorrupt) }

// PairCodec is the runio codec of Pair[K, V] given codecs for both
// halves — the input/output record shapes of pipeline jobs are Pairs,
// and distributed execution needs them encodable (RegisterPairCodec).
type PairCodec[K, V any] struct {
	KC runio.Codec[K]
	VC runio.Codec[V]
}

// Append implements runio.Codec.
func (c PairCodec[K, V]) Append(dst []byte, p Pair[K, V]) []byte {
	dst = c.KC.Append(dst, p.Key)
	return c.VC.Append(dst, p.Value)
}

// Decode implements runio.Codec.
func (c PairCodec[K, V]) Decode(src []byte) (Pair[K, V], int, error) {
	var p Pair[K, V]
	k, n, err := c.KC.Decode(src)
	if err != nil {
		return p, 0, fmt.Errorf("pair key: %w", err)
	}
	v, n2, err := c.VC.Decode(src[n:])
	if err != nil {
		return p, 0, fmt.Errorf("pair value: %w", err)
	}
	p.Key, p.Value = k, v
	return p, n + n2, nil
}

// RegisterPairCodec registers a codec for Pair[K, V] built from the
// registered codecs of K and V. It panics when either half is missing,
// like a direct runio.Register of an unregistrable codec would at
// first use.
func RegisterPairCodec[K, V any]() {
	kc, ok := runio.Lookup[K]()
	if !ok {
		panic(fmt.Sprintf("mapreduce: RegisterPairCodec: no runio codec for key type %T", *new(K)))
	}
	vc, ok := runio.Lookup[V]()
	if !ok {
		panic(fmt.Sprintf("mapreduce: RegisterPairCodec: no runio codec for value type %T", *new(V)))
	}
	runio.Register[Pair[K, V]](PairCodec[K, V]{KC: kc, VC: vc})
}
