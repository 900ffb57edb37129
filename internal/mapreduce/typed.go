package mapreduce

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/obs"
	"repro/internal/runio"
)

// This file is the typed engine: the generic, boxing-free realization of
// the execution model described in the package comment, and its one
// in-process driver for both DataflowTyped and DataflowExternal (the
// latter only adds a spill budget, see external.go). A Job[I, K, V, O]
// fixes four concrete types —
//
//	I – one map-input record (and, by convention, one side-output
//	    record: SideEmit writes records of the input type so a
//	    pipeline's next job can consume SideOutput as its input),
//	K – the intermediate (shuffle) key,
//	V – the intermediate value,
//	O – one reduce-output record —
//
// so map output, spill buckets, the map-side stable sort, the k-way
// merge heap, and reduce group buffers all hold concrete types with zero
// per-record interface boxing. An optional KeyCoding[K] additionally
// turns most sort/merge/group comparisons into one or two uint64
// compares (see keycode.go).

// Pair is a plain typed key-value record. It is the input/output record
// shape used throughout the pipeline (e.g. blocking-key-annotated
// entities, emitted match pairs).
type Pair[K, V any] struct {
	Key   K
	Value V
}

// Rec is one intermediate record in flight between a map task and a
// reduce task: the key/value pair plus the engine-internal binary key
// code (zero when the job has no KeyCoding). Reducers receive group
// value lists as []Rec and should read Key/Value only.
type Rec[K, V any] struct {
	code  Code
	Key   K
	Value V
}

// Mapper is instantiated once per map task. Configure receives the
// task's partition index before any Map call, mirroring Hadoop's
// Mapper.configure.
type Mapper[I, K, V any] interface {
	Configure(m, r, partitionIndex int)
	Map(ctx *MapContext[I, K, V], rec I)
}

// Reducer is instantiated once per reduce task. Reduce is called once
// per key group with the group's first key and all values in merged
// order. The values slice is only valid for the duration of the call:
// the engine streams groups out of the shuffle merge through a reused
// buffer. Implementations that need values beyond the call must copy
// them.
type Reducer[K, V, O any] interface {
	Configure(m, r, taskIndex int)
	Reduce(ctx *ReduceContext[O], key K, values []Rec[K, V])
}

// Combiner runs over each map task's output before the shuffle, grouped
// with the same Group/Compare as the reduce side, re-emitting
// intermediate (K, V) pairs — the standard Hadoop combiner optimization.
type Combiner[I, K, V any] interface {
	Configure(m, r, taskIndex int)
	Combine(ctx *MapContext[I, K, V], key K, values []Rec[K, V])
}

// Job describes one typed MapReduce job. NewMapper/NewReducer are
// factories so that concurrently executing tasks never share mutable
// state.
type Job[I, K, V, O any] struct {
	Name string

	// NumReduceTasks is r. The number of map tasks m always equals the
	// number of input partitions passed to RunContext.
	NumReduceTasks int

	NewMapper  func() Mapper[I, K, V]
	NewReducer func() Reducer[K, V, O]

	// Partition implements part: key -> reduce task in [0,r).
	Partition func(key K, numReduceTasks int) int
	// Compare implements comp: total order on keys (-1, 0, +1).
	Compare func(a, b K) int
	// Group implements group: keys a and b belong to the same reduce
	// call iff Group(a,b) == 0. It must be compatible with Compare
	// (groups are runs of the sorted order). When nil, Compare is used.
	Group func(a, b K) int

	// NewCombiner, when non-nil, enables the map-side combiner.
	NewCombiner func() Combiner[I, K, V]

	// Coding is the optional order-preserving binary key code (see
	// keycode.go). The zero value disables the fast path.
	Coding KeyCoding[K]
}

// JobName returns the job's name (JobRunner).
func (j *Job[I, K, V, O]) JobName() string { return j.Name }

// JobRunner is the type-erased face of a Job: it hides the intermediate
// K and V types so heterogeneous jobs that share input and output record
// types (e.g. the five redistribution strategies) can stand behind one
// interface.
//
// RunContext is the primary entry point; RunStream additionally streams
// reduce output to a callback instead of accumulating it in
// Result.Output — the constant-memory output path.
type JobRunner[I, O any] interface {
	RunContext(ctx context.Context, e *Engine, input [][]I) (*Result[I, O], error)
	RunStream(ctx context.Context, e *Engine, input [][]I, out func(O) error) (*Result[I, O], error)
	JobName() string
}

// outputSink serializes streamed reduce output across concurrently
// executing reduce tasks: records are handed to fn under a mutex, in
// emission order within one reduce task (the order across tasks is the
// tasks' completion interleaving — deterministic only at Parallelism 1).
// The first callback error is sticky: later writes become no-ops and the
// run fails with it after the reduce phase.
type outputSink[O any] struct {
	mu  sync.Mutex
	fn  func(O) error
	err error
}

// writeAll drains one committed reduce attempt's buffered output under a
// single lock acquisition, preserving the attempt's emission order. The
// commit protocol funnels all sink output through here: records of a
// failed or superseded attempt never reach the sink.
func (s *outputSink[O]) writeAll(recs []O) {
	s.mu.Lock()
	for i := range recs {
		if s.err != nil {
			break
		}
		s.err = s.fn(recs[i])
	}
	s.mu.Unlock()
}

// Err returns the sticky first write error, if any.
func (s *outputSink[O]) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Result is the outcome of a typed job execution.
type Result[I, O any] struct {
	Metrics
	// Output contains the concatenated reduce outputs in reduce task
	// order (within a task, in emission order).
	Output []O
	// SideOutput holds each map task's side output, indexed by map task
	// (= input partition) index. Side records have the input type I so a
	// follow-up job can consume them as its partitioned input.
	SideOutput [][]I
}

// MapContext is passed to map (and combine) calls for emitting
// intermediate output and updating counters. Emit appends to the task's
// one output buffer; only the external dataflow's spill budget makes it
// also encode and spill. A MapContext is owned by a single task; its
// methods are not safe for concurrent use by multiple goroutines.
type MapContext[I, K, V any] struct {
	metrics *TaskMetrics
	side    []I
	// sideCap sizes the side-output buffer on first use: side emitters
	// (the BDM job) write at most one record per input record, so the
	// task's input size is an exact upper bound and the buffer never
	// regrows.
	sideCap int
	encode  func(K) Code
	// hook is the attempt's fault-injection binding (nil when the engine
	// has no FaultHook installed).
	hook *taskHook
	// out is the task's output buffer: a pooled record slice that, on
	// the external dataflow, also encodes each record and spills sorted
	// runs at the budget (see external.go).
	out spiller[K, V]
}

// Emit appends an intermediate key-value pair to the task's output,
// computing the key's binary code once if the job has a KeyCoding.
func (c *MapContext[I, K, V]) Emit(key K, value V) {
	c.hook.fireEmit()
	var code Code
	if c.encode != nil {
		code = c.encode(key)
	}
	c.out.add(Rec[K, V]{code: code, Key: key, Value: value})
	c.metrics.OutputRecords++
}

// SideEmit writes a record of the input type to the task's side output,
// bypassing the shuffle. The BDM job uses it for the "additionalOutput"
// of Algorithm 3: blocking-key-annotated entities, written per map task
// so the second job sees the identical input partitioning.
func (c *MapContext[I, K, V]) SideEmit(rec I) {
	if c.side == nil && c.sideCap > 0 {
		c.side = make([]I, 0, c.sideCap)
	}
	c.side = append(c.side, rec)
	c.metrics.SideOutputRecords++
}

// Inc adds delta to the named user counter for this task.
// ComparisonsCounter takes an allocation-free fast path.
func (c *MapContext[I, K, V]) Inc(name string, delta int64) {
	incCounter(c.metrics, name, delta)
}

// ReduceContext is passed to reduce calls for emitting output records
// and updating counters.
type ReduceContext[O any] struct {
	metrics *TaskMetrics
	out     []O
	// hook is the attempt's fault-injection binding (nil when the engine
	// has no FaultHook installed).
	hook *taskHook
}

// Emit appends one record to the attempt's buffered output. Under
// RunStream the buffer is drained to the run's output sink when the
// attempt commits — never earlier, so a failed, retried, or superseded
// attempt cannot double-emit (the task-commit protocol).
func (c *ReduceContext[O]) Emit(rec O) {
	c.hook.fireEmit()
	c.out = append(c.out, rec)
	c.metrics.OutputRecords++
}

// Inc adds delta to the named user counter for this task.
func (c *ReduceContext[O]) Inc(name string, delta int64) {
	incCounter(c.metrics, name, delta)
}

// incCounter is the counter-update path shared by both contexts.
func incCounter(metrics *TaskMetrics, name string, delta int64) {
	if name == ComparisonsCounter {
		metrics.Comparisons += delta
		return
	}
	m := metrics.Counters
	if m == nil {
		// The map is created lazily on the first named counter: most
		// tasks only touch the Comparisons fast path and never pay for
		// the allocation.
		m = make(map[string]int64)
		metrics.Counters = m
	}
	m[name] += delta
}

// MapperFunc adapts plain functions to the Mapper interface.
type MapperFunc[I, K, V any] struct {
	OnConfigure func(m, r, partitionIndex int)
	OnMap       func(ctx *MapContext[I, K, V], rec I)
}

// Configure implements Mapper.
func (f *MapperFunc[I, K, V]) Configure(m, r, partitionIndex int) {
	if f.OnConfigure != nil {
		f.OnConfigure(m, r, partitionIndex)
	}
}

// Map implements Mapper.
func (f *MapperFunc[I, K, V]) Map(ctx *MapContext[I, K, V], rec I) { f.OnMap(ctx, rec) }

// ReducerFunc adapts plain functions to the Reducer interface.
type ReducerFunc[K, V, O any] struct {
	OnConfigure func(m, r, taskIndex int)
	OnReduce    func(ctx *ReduceContext[O], key K, values []Rec[K, V])
}

// Configure implements Reducer.
func (f *ReducerFunc[K, V, O]) Configure(m, r, taskIndex int) {
	if f.OnConfigure != nil {
		f.OnConfigure(m, r, taskIndex)
	}
}

// Reduce implements Reducer.
func (f *ReducerFunc[K, V, O]) Reduce(ctx *ReduceContext[O], key K, values []Rec[K, V]) {
	f.OnReduce(ctx, key, values)
}

func (j *Job[I, K, V, O]) validate(numPartitions int) error {
	switch {
	case j.NumReduceTasks <= 0:
		return fmt.Errorf("mapreduce: job %q: NumReduceTasks must be > 0, got %d", j.Name, j.NumReduceTasks)
	case numPartitions <= 0:
		return fmt.Errorf("mapreduce: job %q: need at least one input partition", j.Name)
	case j.NewMapper == nil:
		return fmt.Errorf("mapreduce: job %q: NewMapper is required", j.Name)
	case j.NewReducer == nil:
		return fmt.Errorf("mapreduce: job %q: NewReducer is required", j.Name)
	case j.Partition == nil:
		return fmt.Errorf("mapreduce: job %q: Partition function is required", j.Name)
	case j.Compare == nil:
		return fmt.Errorf("mapreduce: job %q: Compare function is required", j.Name)
	case j.Coding.Encode == nil && (j.Coding.Exact || j.Coding.GroupBits != 0):
		return fmt.Errorf("mapreduce: job %q: KeyCoding.Exact/GroupBits require an Encode function", j.Name)
	case j.Coding.GroupBits < 0 || j.Coding.GroupBits > 128:
		return fmt.Errorf("mapreduce: job %q: KeyCoding.GroupBits must be in [0,128], got %d", j.Name, j.Coding.GroupBits)
	}
	return nil
}

// RunContext executes the job over the given input partitions and
// returns the result. Execution is deterministic and byte-identical
// across the dataflows (e.Dataflow, e.Remote): map outputs are shuffled
// with a stable, map-task-ordered merge and sorted with the job's
// Compare (accelerated by the key code when present).
//
// Cancellation is checked between tasks (once ctx is done, no further
// task or attempt starts) and periodically between records inside
// cancellable attempts; RunContext returns an error wrapping ctx.Err().
// The external dataflow removes its spill directory on every exit path,
// cancellation included.
//
// Fault tolerance: every task executes as a sequence of attempts under
// Engine.Retry — panics in user code are recovered into the attempt's
// error, transient failures retry with backoff, and stragglers can be
// speculatively re-executed. A run that fails despite retries returns
// an error wrapping a *TaskError. See DESIGN.md ("Fault tolerance").
func (j *Job[I, K, V, O]) RunContext(ctx context.Context, e *Engine, input [][]I) (*Result[I, O], error) {
	return j.run(ctx, e, input, nil)
}

// RunStream is RunContext with streamed output: each reduce task's
// emissions are handed to out when the task commits (serialized across
// tasks, emission order within a task) instead of being accumulated in
// Result.Output, so peak memory is O(largest task's output) — the
// commit protocol's price for never double-emitting under retries and
// speculation — rather than O(total output). A non-nil error from out
// fails the run. Metrics and side output are identical to RunContext.
func (j *Job[I, K, V, O]) RunStream(ctx context.Context, e *Engine, input [][]I, out func(O) error) (*Result[I, O], error) {
	if out == nil {
		return j.run(ctx, e, input, nil)
	}
	return j.run(ctx, e, input, &outputSink[O]{fn: out})
}

// run is the one in-process driver. DataflowTyped and DataflowExternal
// are the same dataflow: the external one only adds a spill budget,
// record codecs and a spill directory (flowConfig.initSpill), so jobs
// without codecs still run typed and no typed run touches the disk.
func (j *Job[I, K, V, O]) run(ctx context.Context, e *Engine, input [][]I, sink *outputSink[O]) (*Result[I, O], error) {
	m := len(input)
	if err := j.validate(m); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("mapreduce: job %q: %w", j.Name, err)
	}
	if e.Remote != nil {
		return j.runRemote(ctx, e, input, sink)
	}
	if e.Dataflow == DataflowReference {
		return j.runReference(ctx, input, sink)
	}
	st := newRunState(j)
	if e.Dataflow == DataflowExternal {
		if err := st.initSpill(e); err != nil {
			return nil, fmt.Errorf("mapreduce: job %q: %w", j.Name, err)
		}
		// The spill directory dies with this run on every exit path,
		// cancellation included.
		defer os.RemoveAll(st.dir)
	}
	st.limiter = newSortLimiter(e.Parallelism)
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

	// ---- Map phase ----
	// mapOut[mapTask] is the task's shuffle-ready output, published by
	// the supervisor's commit step.
	mapOut := make([]mapOutput[I, K, V], m)
	st.mapPhase = mapPhase[I, K, V, O]{st: st, input: input, m: m, res: res, mapOut: mapOut}
	st.mapSup.init(e, MapTask, jobID, &st.mapPhase)
	mstats, merr := st.mapSup.supervise(ctx, m)
	res.addStats(mstats)
	// Committed map tasks that spilled hand over their spill file's open
	// fd; close them all on every exit path from here on (the reduce
	// phase reads through these fds via pread — runs are never
	// reopened).
	defer func() {
		for i := range mapOut {
			mapOut[i].closeFile()
		}
	}()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("mapreduce: job %q: %w", j.Name, err)
	}
	if merr != nil {
		return nil, fmt.Errorf("mapreduce: job %q: %w", j.Name, merr)
	}
	for i := range res.MapMetrics {
		res.MapOutputRecords += res.MapMetrics[i].OutputRecords
	}

	// ---- Shuffle + merge + reduce phase ----
	// Output is buffered per attempt and drained to the sink (or the
	// collected Output) only at commit — the task-commit protocol.
	reduceOut := make([][]O, r)
	st.redPhase = reducePhase[I, K, V, O]{st: st, m: m, res: res, mapOut: mapOut, sink: sink, reduceOut: reduceOut}
	st.redSup.init(e, ReduceTask, jobID, &st.redPhase)
	rstats, rerr := st.redSup.supervise(ctx, r)
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
	// The buckets are dead now that every reduce task has drained them;
	// recycle their backing arrays (putRecBuf clears the records, so
	// pooled buffers never pin keys or values).
	for i := range mapOut {
		st.pools.putRecBuf(mapOut[i].flat)
	}
	return res, nil
}

// mapOutput is one map attempt's shuffle-ready output, published
// atomically when the supervisor commits the attempt: the in-memory
// tail, bucketed by partition and sorted, plus — on the external
// dataflow — the sorted runs the attempt spilled, all sections of one
// open spill file in the attempt's directory. The commit step renames
// dir to the task's final name (updating the run paths) or reaps it
// when the attempt is discarded.
type mapOutput[I, K, V any] struct {
	buckets [][]Rec[K, V]
	flat    []Rec[K, V]
	side    []I
	runs    []*runio.Info
	file    *os.File // the open spill file holding every run in runs
	dir     string   // the attempt's spill directory ("" on DataflowTyped)
	metrics TaskMetrics
}

func (out *mapOutput[I, K, V]) closeFile() {
	if out.file != nil {
		out.file.Close()
		out.file = nil
	}
}

// reduceOutput is one reduce attempt's private output.
type reduceOutput[O any] struct {
	out     []O
	metrics TaskMetrics
}

// mapPhase is the map phase's taskOps: run one map attempt, publish
// its output, side output, and metrics at commit.
type mapPhase[I, K, V, O any] struct {
	st     *runState[I, K, V, O]
	input  [][]I
	m      int
	res    *Result[I, O]
	mapOut []mapOutput[I, K, V]
}

func (p *mapPhase[I, K, V, O]) runTaskAttempt(actx context.Context, hook *taskHook, task, attempt int) (mapOutput[I, K, V], error) {
	return p.st.runMapAttempt(actx, hook, task, attempt, p.m, p.input[task], "")
}

func (p *mapPhase[I, K, V, O]) commitTask(task int, out mapOutput[I, K, V]) error {
	if len(out.runs) > 0 {
		// Adopt the attempt's spill directory under the task's final
		// name; the rename is the commit point for the on-disk runs.
		// The spill file's open fd survives the rename — the reduce
		// phase reads through it, so the file is never reopened.
		final := filepath.Join(p.st.dir, fmt.Sprintf("m%04d", task))
		if err := os.Rename(out.dir, final); err != nil {
			out.closeFile()
			return fmt.Errorf("adopt spill dir: %w", err)
		}
		for _, info := range out.runs {
			info.Path = filepath.Join(final, filepath.Base(info.Path))
		}
	} else if out.dir != "" {
		os.RemoveAll(out.dir)
	}
	out.metrics.Kind = MapTask
	out.metrics.Index = task
	p.res.MapMetrics[task] = out.metrics
	p.res.SideOutput[task] = out.side
	p.mapOut[task] = out
	return nil
}

func (p *mapPhase[I, K, V, O]) discardOut(out mapOutput[I, K, V]) {
	out.closeFile()
	if out.dir != "" {
		os.RemoveAll(out.dir)
	}
	p.st.pools.putRecBuf(out.flat)
}

// reducePhase is the reduce phase's taskOps. Output is buffered per
// attempt and drained to the sink (or the collected Output) only at
// commit — the task-commit protocol.
type reducePhase[I, K, V, O any] struct {
	st        *runState[I, K, V, O]
	m         int
	res       *Result[I, O]
	mapOut    []mapOutput[I, K, V]
	sink      *outputSink[O]
	reduceOut [][]O
}

func (p *reducePhase[I, K, V, O]) runTaskAttempt(actx context.Context, hook *taskHook, task, attempt int) (reduceOutput[O], error) {
	return p.st.runReduceAttempt(actx, hook, task, attempt, p.m, p.mapOut, nil)
}

func (p *reducePhase[I, K, V, O]) commitTask(task int, out reduceOutput[O]) error {
	out.metrics.Kind = ReduceTask
	out.metrics.Index = task
	p.res.ReduceMetrics[task] = out.metrics
	if p.sink != nil {
		p.sink.writeAll(out.out)
		putOutBuf(p.st.outPool, out.out)
		return nil
	}
	p.reduceOut[task] = out.out
	return nil
}

func (p *reducePhase[I, K, V, O]) discardOut(out reduceOutput[O]) {
	putOutBuf(p.st.outPool, out.out)
}

// runState carries the per-run comparator/group fast paths, the
// dataflow parameters (flowConfig: spill budget, codecs, pools, sort
// limiter, observability identity) and the supervision state of one
// run.
type runState[I, K, V, O any] struct {
	flowConfig[K, V]

	job    *Job[I, K, V, O]
	encode func(K) Code
	exact  bool
	gbits  int
	group  func(a, b K) int

	outPool *slicePool[O] // pooled []O reduce-output buffers

	// Supervision state for the two phases, embedded so the fault-free
	// fast path allocates nothing per phase: &st.mapPhase converts to
	// taskOps without boxing, and the supervisors live in this one
	// allocation instead of one per phase.
	mapPhase mapPhase[I, K, V, O]
	mapSup   taskSupervisor[mapOutput[I, K, V]]
	redPhase reducePhase[I, K, V, O]
	redSup   taskSupervisor[reduceOutput[O]]
}

func newRunState[I, K, V, O any](j *Job[I, K, V, O]) *runState[I, K, V, O] {
	st := &runState[I, K, V, O]{
		job:     j,
		encode:  j.Coding.Encode,
		exact:   j.Coding.Exact,
		gbits:   j.Coding.GroupBits,
		group:   j.Group,
		outPool: outPoolFor[O](),
	}
	if st.group == nil {
		st.group = j.Compare
	}
	st.r = j.NumReduceTasks
	st.part = j.Partition
	st.pools = poolFor[K, V]()
	if st.encode != nil {
		st.codeWidth = 16
	}
	// cmpRec bound once per run so the sort and merge machinery receive
	// a stable func value instead of allocating a method closure per
	// call.
	st.cmp = st.cmpRec
	return st
}

// cmpRec is the record comparator of the spill sort and the merge heap:
// binary codes first, the struct comparator only on code ties (never,
// for exact codings).
func (st *runState[I, K, V, O]) cmpRec(a, b *Rec[K, V]) int {
	if st.encode != nil {
		if c := a.code.Cmp(b.code); c != 0 {
			return c
		}
		if st.exact {
			return 0
		}
	}
	return st.job.Compare(a.Key, b.Key)
}

// sameGroup decides whether two (sort-adjacent) records belong to the
// same reduce call: by code prefix when the coding declares group bits,
// by the Group function otherwise.
func (st *runState[I, K, V, O]) sameGroup(a, b *Rec[K, V]) bool {
	if st.gbits > 0 {
		return a.code.prefixEqual(b.code, st.gbits)
	}
	return st.group(a.Key, b.Key) == 0
}

// newMapContext builds a map (or combine) context whose output buffer
// spills, on the external dataflow, to file in the attempt's dir.
func (st *runState[I, K, V, O]) newMapContext(metrics *TaskMetrics, hook *taskHook, dir, file string, idx, attempt int) *MapContext[I, K, V] {
	c := &MapContext[I, K, V]{metrics: metrics, encode: st.encode, hook: hook}
	c.out = spiller[K, V]{cfg: &st.flowConfig, budget: st.budget, metrics: metrics, hook: hook, task: idx, attempt: attempt, recs: st.pools.getRecBuf()}
	if dir != "" {
		c.out.path = filepath.Join(dir, file)
	}
	return c
}

// runMapAttempt runs one map attempt — the mapper over the task's
// input, then the combiner — and returns its output as sorted buckets
// plus any runs it spilled. When runPath is set (the remote executor)
// the whole output is instead written as one sorted run at runPath.
func (st *runState[I, K, V, O]) runMapAttempt(actx context.Context, hook *taskHook, idx, attempt, m int, input []I, runPath string) (out mapOutput[I, K, V], err error) {
	// Declared before recoverAttempt so it runs after it (LIFO): by the
	// time the attempt's spill directory is reaped, a recovered panic has
	// already been translated into err. Spill-file fds opened by the
	// attempt's spillers are closed on the same path.
	var ctx, cctx *MapContext[I, K, V]
	defer func() {
		if err == nil {
			return
		}
		if ctx != nil {
			ctx.out.closeFile()
		}
		if cctx != nil {
			cctx.out.closeFile()
		}
		if out.dir != "" {
			os.RemoveAll(out.dir)
			out.dir = ""
		}
	}()
	defer recoverAttempt(&err)
	if err := hook.fire(FaultTaskStart); err != nil {
		return out, err
	}
	if st.dir != "" {
		out.dir = filepath.Join(st.dir, fmt.Sprintf("m%04d-a%03d", idx, attempt))
		if err := os.MkdirAll(out.dir, 0o755); err != nil {
			return out, err
		}
	}
	j := st.job
	metrics := &out.metrics
	ctx = st.newMapContext(metrics, hook, out.dir, "g0.runs", idx, attempt)
	ctx.sideCap = len(input)
	mapper := j.NewMapper()
	mapper.Configure(m, j.NumReduceTasks, idx)
	// Attempt cancellation (a losing speculative attempt, a per-attempt
	// timeout) is observed between input records; the gate keeps
	// background-context runs free of per-record checks.
	check := actx.Done() != nil
	for i := range input {
		if check && i&cancelCheckMask == 0 && actx.Err() != nil {
			return out, actx.Err()
		}
		metrics.InputRecords++
		mapper.Map(ctx, input[i])
	}
	sp := &ctx.out
	if sp.err != nil {
		return out, sp.err
	}
	out.side = ctx.side
	if j.NewCombiner != nil {
		cctx = st.newMapContext(metrics, hook, out.dir, "g1.runs", idx, attempt)
		if len(sp.runs) == 0 {
			// Nothing spilled: the combine runs in memory, and so does
			// its output.
			cctx.out.budget = 0
		}
		if err := st.combine(idx, m, sp, cctx); err != nil {
			return out, err
		}
		sp = &cctx.out
		if sp.err != nil {
			return out, sp.err
		}
		// The combiner rewrote the task's output; fix the metric.
		metrics.OutputRecords = sp.records()
	}
	if runPath != "" {
		sp.path = runPath
		err = sp.spill()
		out.runs, out.file = sp.runs, sp.f
		st.pools.putRecBuf(sp.takeRecs())
		return out, err
	}
	out.runs, out.file = sp.runs, sp.f
	out.buckets, out.flat, err = st.partitionAndSort(sp.takeRecs())
	return out, err
}

// combine runs the job's combiner over one map task's output in sp,
// grouped exactly like the reduce side would group it, emitting into
// cctx.
func (st *runState[I, K, V, O]) combine(idx, m int, sp *spiller[K, V], cctx *MapContext[I, K, V]) error {
	combiner := st.job.NewCombiner()
	combiner.Configure(m, st.job.NumReduceTasks, idx)
	if len(sp.runs) > 0 {
		// Map-side external merge + combine: stream the spilled runs and
		// the sorted tail back in (partition, key, run) order and cut the
		// stream into the same groups the in-memory combine forms (a
		// group never spans partitions — grouping must be compatible
		// with partitioning, as in Hadoop).
		return st.mergeSpilled(sp, func(group []Rec[K, V]) {
			combiner.Combine(cctx, group[0].Key, group)
		})
	}
	out := sp.takeRecs()
	st.sortRecsStable(out)
	for lo := 0; lo < len(out); {
		hi := lo + 1
		for hi < len(out) && st.sameGroup(&out[lo], &out[hi]) {
			hi++
		}
		combiner.Combine(cctx, out[lo].Key, out[lo:hi])
		lo = hi
	}
	st.pools.putRecBuf(out)
	return nil
}

// partitionAndSort buckets one map task's (possibly combined) output by
// partition and stable-sorts each bucket — the in-memory spill step.
// It takes ownership of out (the buffer is recycled); the returned flat
// backing array must be recycled by the caller once the reduce phase
// has drained the buckets.
func (st *runState[I, K, V, O]) partitionAndSort(out []Rec[K, V]) (buckets [][]Rec[K, V], flat []Rec[K, V], err error) {
	j := st.job
	r := j.NumReduceTasks
	// Bucket by partition: count first, then carve exact-size buckets
	// out of one flat allocation instead of growing r slices.
	parts := getInt32Buf(len(out))
	counts := getInt32Buf(r)
	for i := range counts {
		counts[i] = 0
	}
	for i := range out {
		p := j.Partition(out[i].Key, r)
		if p < 0 || p >= r {
			putInt32Buf(parts)
			putInt32Buf(counts)
			// A deterministic user-logic bug: re-running cannot fix it.
			return nil, nil, Fatal(fmt.Errorf("partition function returned %d for %d reduce tasks", p, r))
		}
		parts[i] = int32(p)
		counts[p]++
	}
	// The buckets' shared backing array comes from the record pool (a
	// previous run's bucket array, recycled at the end of run).
	flat = st.pools.getRecBuf()
	if cap(flat) < len(out) {
		flat = make([]Rec[K, V], len(out))
	}
	flat = flat[:len(out)]
	// Turn counts into running write offsets (counts[p] ends up holding
	// the bucket's end offset).
	next := int32(0)
	for p := 0; p < r; p++ {
		c := counts[p]
		counts[p] = next
		next += c
	}
	for i := range out {
		p := parts[i]
		flat[counts[p]] = out[i]
		counts[p]++
	}
	buckets = make([][]Rec[K, V], r)
	start := int32(0)
	for p := 0; p < r; p++ {
		end := counts[p]
		buckets[p] = flat[start:end:end]
		start = end
	}
	putInt32Buf(parts)
	putInt32Buf(counts)
	st.pools.putRecBuf(out)
	// Sort each bucket now (stable) so the reduce-side k-way merge only
	// has to interleave pre-sorted runs — the Hadoop spill-file model.
	// Buckets spread across the run's free sort workers.
	st.sortBuckets(buckets)
	return buckets, flat, nil
}

// runReduceAttempt runs one reduce attempt over the task's sorted
// sources: for each map task in task order, the partition-idx segments
// of its spilled runs in run order, then its in-memory bucket (mapOut);
// on the remote paths, one run segment per map task in task order
// (segs). Source order is the merge tiebreak, which extends map-task
// order with temporal run order — the stability guarantee.
func (st *runState[I, K, V, O]) runReduceAttempt(actx context.Context, hook *taskHook, idx, attempt, m int, mapOut []mapOutput[I, K, V], segs []SegmentSource) (rout reduceOutput[O], err error) {
	defer recoverAttempt(&err)
	if err := hook.fire(FaultTaskStart); err != nil {
		return rout, err
	}
	j := st.job
	metrics := &rout.metrics
	ctx := &ReduceContext[O]{metrics: metrics, out: getOutBuf[O](st.outPool), hook: hook}
	reducer := j.NewReducer()
	reducer.Configure(m, j.NumReduceTasks, idx)

	part := int32(idx)
	mg := newMerger(st)
	defer mg.release()
	for mi := range mapOut {
		o := &mapOut[mi]
		for _, info := range o.runs {
			mg.addSegment(o.file, info.Segments[idx], info.Path, part)
		}
		mg.addRun(o.buckets[idx], part)
	}
	for _, s := range segs {
		mg.addSegment(s.R, s.Seg, s.Path, part)
	}
	metrics.InputRecords = mg.records
	metrics.SpillBytesRead = mg.spillBytes
	if st.obs != nil {
		st.obs.Engine.SpillBytesRead.Add(mg.spillBytes)
	}

	if err := hook.fire(FaultMerge); err != nil {
		return rout, err
	}
	if st.obs != nil {
		st.recordMerge(obs.EvBegin, obs.PhaseReduce, idx, attempt, mg.records)
		defer st.recordMerge(obs.EvEnd, obs.PhaseReduce, idx, attempt, mg.records)
	}
	if err := mg.start(); err != nil {
		return rout, err
	}
	if len(mg.items) == 1 && mg.items[0].src == nil {
		// A single in-memory bucket is the task's sorted input: pass
		// group subslices straight through, no copying at all.
		st.reduceSortedRun(ctx, reducer, mg.items[0].recs)
		rout.out = ctx.out
		return rout, nil
	}
	// Stream the merge through a reused group buffer: the full reduce
	// input is never materialized.
	group := st.pools.getRecBuf()
	check := actx.Done() != nil
	for n := 0; ; n++ {
		if check && n&cancelCheckMask == 0 && actx.Err() != nil {
			return rout, actx.Err()
		}
		rec, _, ok, err := mg.next()
		if err != nil {
			return rout, err
		}
		if !ok {
			break
		}
		if len(group) > 0 && !st.sameGroup(&group[0], &rec) {
			st.emitGroup(ctx, reducer, group)
			group = group[:0]
		}
		group = append(group, rec)
	}
	if len(group) > 0 {
		st.emitGroup(ctx, reducer, group)
	}
	st.pools.putRecBuf(group)
	rout.out = ctx.out
	return rout, nil
}

// recordMerge emits a merge-span event carrying the run's job identity.
// Callers guard on st.obs.
func (st *runState[I, K, V, O]) recordMerge(typ obs.EventType, phase uint8, task, attempt int, arg int64) {
	st.obs.Tracer.Record(obs.Event{
		Type: typ, Kind: obs.KMerge, Phase: phase, Job: st.jobID,
		Task: int32(task), Attempt: int32(attempt), Arg: arg,
	})
}

// reduceSortedRun walks one fully sorted input run and invokes the
// reducer once per key group, updating the group metrics.
func (st *runState[I, K, V, O]) reduceSortedRun(ctx *ReduceContext[O], reducer Reducer[K, V, O], input []Rec[K, V]) {
	for lo := 0; lo < len(input); {
		hi := lo + 1
		for hi < len(input) && st.sameGroup(&input[lo], &input[hi]) {
			hi++
		}
		st.emitGroup(ctx, reducer, input[lo:hi])
		lo = hi
	}
}

// emitGroup invokes the reducer for one key group and maintains the
// group metrics.
func (st *runState[I, K, V, O]) emitGroup(ctx *ReduceContext[O], reducer Reducer[K, V, O], group []Rec[K, V]) {
	ctx.metrics.InputGroups++
	if g := int64(len(group)); g > ctx.metrics.MaxGroupRecords {
		ctx.metrics.MaxGroupRecords = g
	}
	reducer.Reduce(ctx, group[0].Key, group)
}
