package mapreduce

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"repro/internal/obs"
	"repro/internal/runio"
)

// This file holds what DataflowExternal adds to the one dataflow of
// typed.go: a per-map-task byte budget beyond which map output spills
// to sorted on-disk runs, and the streamed merge sources that read the
// runs back. DataflowTyped is the same dataflow with no budget — its
// map output never leaves memory and it never creates a file — so the
// two share one driver, one map attempt and one reduce attempt, and
// their results are byte-identical by construction (the differential
// tests assert it, TaskMetrics included, spill counters excepted). The
// moving pieces:
//
//   - The spiller is a map task's output buffer. With a budget it also
//     keeps each record encoded (runio codecs, applied once per record
//     at emit time, which gives exact byte-denominated budget
//     accounting). When the encoded bytes reach the budget, the batch
//     is stable-sorted by (reduce partition, key) — the record's binary
//     key code first, exactly like the in-memory bucket sort — and
//     written as one run (runio.Writer). The remote executor writes a
//     whole unspilled task output as one run with the same writer.
//   - The stability tiebreak extends from (key, mapTask) to (key,
//     mapTask, run): runs are temporal segments of one task's output,
//     so merging them in run order with the in-memory tail last
//     reproduces the task's emission order for equal keys, and the
//     merged stream is identical to the all-in-memory sort.
//   - With a combiner, a task that spilled first merges its runs and
//     tail back (map-side), combines group-by-group exactly like the
//     in-memory combine, and the combiner's output flows through a
//     second-generation spiller. This keeps combiner group boundaries —
//     and therefore every metric — identical to DataflowTyped, unlike
//     Hadoop's per-spill combining.
//   - Reduce task j merges, per map task, the partition-j segment of
//     every run plus the in-memory tail bucket, behind the one merger
//     of typedmerge.go.
//
// Temp-file lifecycle: a run on the external dataflow creates one
// directory under Engine.TmpDir and removes it on every exit path,
// success or error. Each map *attempt* writes its runs into an
// attempt-scoped subdirectory (m0007-a001/); the supervisor's commit
// step atomically adopts the directory by renaming it to the task's
// final name (m0007/), and a failed or superseded attempt's directory
// is reaped instead — so concurrent attempts of one task never collide
// and a retried task never leaves stale runs behind. First-generation
// runs are additionally deleted as soon as the map-side combine has
// drained them.

// DefaultSpillBudget is the per-map-task encoded-byte budget when
// Engine.SpillBudget is zero.
const DefaultSpillBudget = 64 << 20

// flowConfig carries the run-wide dataflow parameters the spillers,
// decoders and merges of one run share. It is embedded in runState, so
// it costs the run no allocation of its own.
type flowConfig[K, V any] struct {
	r       int
	part    func(K, int) int
	cmp     func(a, b *Rec[K, V]) int
	pools   *recPools[K, V]
	limiter *sortLimiter // bounds the run's sort workers (nil = serial)

	// budget is the per-task encoded-byte spill budget; 0 means map
	// output never spills (DataflowTyped, and the remote executor).
	budget int64
	// dir is the run's spill directory ("" when budget is 0).
	dir string
	// kc/vc/codeWidth encode and decode records on disk (nil codecs on
	// DataflowTyped, which never encodes).
	kc        runio.Codec[K]
	vc        runio.Codec[V]
	codeWidth int
	// shared is true when both codecs implement runio.SharedDecoder, so
	// merge sources read through the arena path (block strings, aliasing
	// decoders, zero copies per record) instead of the byte path.
	shared bool

	// obs/jobID carry the run's observability identity into spill and
	// merge spans and the spill-byte counters. nil/0 when observability
	// is off — including always on the worker side of remote execution,
	// where tracing happens at the dist layer instead.
	obs   *obs.Observer
	jobID uint32
}

// setCodecs looks up the runio codecs of K and V. what names the
// dataflow in the error.
func (c *flowConfig[K, V]) setCodecs(what string) error {
	kc, ok := runio.Lookup[K]()
	if !ok {
		return fmt.Errorf("%s: no runio codec registered for key type %T (runio.Register it in the key's package)", what, *new(K))
	}
	vc, ok := runio.Lookup[V]()
	if !ok {
		return fmt.Errorf("%s: no runio codec registered for value type %T (runio.Register it in the value's package)", what, *new(V))
	}
	c.kc, c.vc = kc, vc
	return nil
}

// initSpill turns the run into an external one: the spill budget, the
// codecs, and a fresh spill directory under e.TmpDir, which the caller
// removes when the run returns.
func (c *flowConfig[K, V]) initSpill(e *Engine) error {
	if err := c.setCodecs("external dataflow"); err != nil {
		return err
	}
	_, kshared := c.kc.(runio.SharedDecoder[K])
	_, vshared := c.vc.(runio.SharedDecoder[V])
	c.shared = kshared && vshared
	c.budget = e.SpillBudget
	if c.budget <= 0 {
		c.budget = DefaultSpillBudget
	}
	if e.TmpDir != "" {
		if err := os.MkdirAll(e.TmpDir, 0o755); err != nil {
			return fmt.Errorf("create tmp dir: %w", err)
		}
	}
	dir, err := os.MkdirTemp(e.TmpDir, "mr-spill-*")
	if err != nil {
		return fmt.Errorf("create spill dir: %w", err)
	}
	c.dir = dir
	return nil
}

// appendRec appends the on-disk encoding of rec (code ‖ key ‖ value).
func (c *flowConfig[K, V]) appendRec(dst []byte, rec *Rec[K, V]) []byte {
	if c.codeWidth != 0 {
		dst = binary.LittleEndian.AppendUint64(dst, rec.code.Hi)
		dst = binary.LittleEndian.AppendUint64(dst, rec.code.Lo)
	}
	dst = c.kc.Append(dst, rec.Key)
	return c.vc.Append(dst, rec.Value)
}

// mergeSpilled merges one map task's spilled runs and in-memory tail
// back into (partition, key, run)-ordered groups and hands each group
// to emit. The first-generation spill file is deleted once drained.
func (st *runState[I, K, V, O]) mergeSpilled(sp *spiller[K, V], emit func(group []Rec[K, V])) error {
	if err := sp.hook.fire(FaultMerge); err != nil {
		return err
	}
	if st.obs != nil {
		st.recordMerge(obs.EvBegin, obs.PhaseMap, sp.task, sp.attempt, int64(len(sp.runs)))
		defer st.recordMerge(obs.EvEnd, obs.PhaseMap, sp.task, sp.attempt, int64(len(sp.runs)))
	}
	mg := newMerger(st)
	defer mg.release()
	// The spiller's fd is still open; runs are read back through it via
	// pread — no reopen.
	for _, info := range sp.runs {
		mg.addSpilledRun(sp.f, info)
	}
	sp.metrics.SpillBytesRead += mg.spillBytes
	if st.obs != nil {
		st.obs.Engine.SpillBytesRead.Add(mg.spillBytes)
	}
	parts, perm, err := sp.sortedPerm()
	if err != nil {
		return err
	}
	defer putInt32Buf(parts)
	defer putInt32Buf(perm)
	if len(sp.recs) > 0 {
		mg.addSource(&tailSource[K, V]{recs: sp.recs, parts: parts, perm: perm})
	}
	if err := mg.start(); err != nil {
		return err
	}
	group := st.pools.getRecBuf()
	var part int32
	for {
		rec, p, ok, err := mg.next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if len(group) > 0 && (p != part || !st.sameGroup(&group[0], &rec)) {
			emit(group)
			group = group[:0]
		}
		group = append(group, rec)
		part = p
	}
	if len(group) > 0 {
		emit(group)
	}
	st.pools.putRecBuf(group)
	st.pools.putRecBuf(sp.takeRecs())
	// Generation-0 runs are dead; free the disk before gen-1 grows.
	sp.closeFile()
	os.Remove(sp.path)
	return nil
}

// ---- the spiller ----

// spiller is one map task's output buffer (MapContext.Emit appends to
// it). With a spill budget it keeps every record encoded too — once,
// at emit time: exact budget accounting, no re-encode at spill — and
// flushes a sorted run whenever the encoded bytes reach the budget.
type spiller[K, V any] struct {
	cfg *flowConfig[K, V]
	// budget is cfg.budget, except 0 for a combiner's output when the
	// task's map output fit the budget: like the map output, it then
	// stays in memory unencoded.
	budget  int64
	path    string // this generation's spill file ("" without a spill dir)
	metrics *TaskMetrics
	hook    *taskHook
	// task/attempt identify the owning attempt in spill trace spans.
	task    int
	attempt int

	recs []Rec[K, V]
	// enc/spans hold recs encoded when a budget is set; without one,
	// enc is the per-record scratch of a whole-output spill.
	enc   []byte
	spans []extSpan
	runs  []*runio.Info
	err   error // sticky: first spill failure stops the task

	// All of a generation's runs are appended as sections of one spill
	// file sharing one fd (runio.NewRunWriter), created lazily at the
	// first spill. The fd is kept open — the map-side combine and the
	// reduce phase read segments through it via pread — so a run costs
	// zero file-lifecycle syscalls beyond its writes, instead of the
	// create/close/reopen/unlink per run that dominated small-budget
	// profiles.
	f       *os.File
	fileOff int64
}

type extSpan struct{ off, end int64 }

// add appends one record, spilling the buffered batch when a budget is
// set and the encoded bytes reach it. Errors are sticky (checked by the
// task after the map loop) because Emit has no error channel.
func (sp *spiller[K, V]) add(rec Rec[K, V]) {
	if sp.budget == 0 {
		sp.recs = append(sp.recs, rec)
		return
	}
	if sp.err != nil {
		return
	}
	off := int64(len(sp.enc))
	sp.enc = sp.cfg.appendRec(sp.enc, &rec)
	sp.spans = append(sp.spans, extSpan{off: off, end: int64(len(sp.enc))})
	sp.recs = append(sp.recs, rec)
	if int64(len(sp.enc)) >= sp.budget {
		sp.err = sp.spill()
	}
}

// records counts every record the spiller received: the spilled runs'
// plus the in-memory tail.
func (sp *spiller[K, V]) records() int64 {
	n := int64(len(sp.recs))
	for _, info := range sp.runs {
		n += info.Records
	}
	return n
}

// closeFile closes the generation's spill file fd (idempotent). Called
// when ownership is NOT being handed to the task's mapOutput: after the
// map-side combine drains generation 0, or on attempt failure.
func (sp *spiller[K, V]) closeFile() {
	if sp.f != nil {
		sp.f.Close()
		sp.f = nil
	}
}

// takeRecs hands the in-memory tail to the caller and detaches it from
// the spiller (the encoded copy is dropped).
func (sp *spiller[K, V]) takeRecs() []Rec[K, V] {
	recs := sp.recs
	sp.recs = nil
	sp.enc = nil
	sp.spans = nil
	return recs
}

// recordSpill emits a spill-span event with the owning attempt's
// identity. Callers guard on cfg.obs.
func (sp *spiller[K, V]) recordSpill(typ obs.EventType, arg int64) {
	sp.cfg.obs.Tracer.Record(obs.Event{
		Type: typ, Kind: obs.KSpill, Phase: obs.PhaseMap, Job: sp.cfg.jobID,
		Task: int32(sp.task), Attempt: int32(sp.attempt), Arg: arg,
	})
}

// sortedPerm computes each buffered record's reduce partition and a
// permutation that orders the batch by (partition, key) — binary key
// code first, like every other sort in the engine — stable in emission
// order. Both slices are pooled; the caller returns them.
func (sp *spiller[K, V]) sortedPerm() (parts, perm []int32, err error) {
	n := len(sp.recs)
	r := sp.cfg.r
	parts = getInt32Buf(n)
	perm = getInt32Buf(n)
	for i := range sp.recs {
		p := sp.cfg.part(sp.recs[i].Key, r)
		if p < 0 || p >= r {
			putInt32Buf(parts)
			putInt32Buf(perm)
			// A deterministic user-logic bug: re-running cannot fix it.
			return nil, nil, Fatal(fmt.Errorf("partition function returned %d for %d reduce tasks", p, r))
		}
		parts[i] = int32(p)
		perm[i] = int32(i)
	}
	// Sort the permutation by (partition, key) with the shared stable
	// merge sort — parallel when the run's limiter has free workers,
	// bitwise-identical to the serial order either way (parsort.go).
	cmp := func(x, y *int32) int {
		a, b := *x, *y
		if parts[a] != parts[b] {
			return int(parts[a]) - int(parts[b])
		}
		return sp.cfg.cmp(&sp.recs[a], &sp.recs[b])
	}
	scratch := getInt32Buf(n)
	stableSortParallelG(perm, scratch, sp.cfg.limiter, cmp)
	putInt32Buf(scratch)
	return parts, perm, nil
}

// spill writes the buffered batch as one sorted run section of the
// spill file at sp.path and resets the buffers (capacity retained: the
// next batch will be about as large).
func (sp *spiller[K, V]) spill() error {
	if err := sp.hook.fire(FaultSpill); err != nil {
		return err
	}
	if sp.cfg.obs != nil {
		sp.recordSpill(obs.EvBegin, int64(len(sp.enc)))
		// Arg mirrors the begin event's buffered-byte count; the span's
		// duration covers the sort and the run write together.
		defer sp.recordSpill(obs.EvEnd, int64(len(sp.enc)))
	}
	parts, perm, err := sp.sortedPerm()
	if err != nil {
		return err
	}
	defer putInt32Buf(parts)
	defer putInt32Buf(perm)
	if sp.f == nil {
		f, err := os.OpenFile(sp.path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
		if err != nil {
			return fmt.Errorf("create spill file: %w", err)
		}
		sp.f = f
	}
	w, err := runio.NewRunWriter(sp.f, sp.fileOff, sp.cfg.r, sp.cfg.codeWidth)
	if err != nil {
		return err
	}
	encoded := sp.budget > 0
	for _, i := range perm {
		var b []byte
		if encoded {
			s := sp.spans[i]
			b = sp.enc[s.off:s.end]
		} else {
			sp.enc = sp.cfg.appendRec(sp.enc[:0], &sp.recs[i])
			b = sp.enc
		}
		if err := w.Append(int(parts[i]), b); err != nil {
			w.Abort()
			return err
		}
	}
	info, err := w.Finish()
	if err != nil {
		return err
	}
	sp.fileOff += info.FileBytes
	sp.runs = append(sp.runs, info)
	sp.metrics.SpillRuns++
	sp.metrics.SpillBytesWritten += info.FileBytes
	if o := sp.cfg.obs; o != nil {
		// Obs counters count every attempt's spills as they happen;
		// TaskMetrics above is attempt-private and published only on
		// commit — that asymmetry is deliberate (obs is observational,
		// TaskMetrics is inside the differential contract).
		o.Engine.SpillRuns.Inc()
		o.Engine.SpillBytesWritten.Add(info.FileBytes)
	}
	clear(sp.recs)
	sp.recs = sp.recs[:0]
	sp.enc = sp.enc[:0]
	sp.spans = sp.spans[:0]
	return nil
}

// ---- streamed merge sources ----

// recDecoder decodes one on-disk record (code ‖ key ‖ value) into a
// Rec. On the byte path, decoded values never alias the read buffer
// (codec contract); on the shared path (kdec/vdec non-nil), decoded
// strings alias the reader's immutable blocks (SharedDecoder contract).
type recDecoder[K, V any] struct {
	kc        runio.Codec[K]
	vc        runio.Codec[V]
	codeWidth int
	kdec      func(string) (K, int, error)
	vdec      func(string) (V, int, error)
}

func newRecDecoder[K, V any](cfg *flowConfig[K, V]) *recDecoder[K, V] {
	d := &recDecoder[K, V]{kc: cfg.kc, vc: cfg.vc, codeWidth: cfg.codeWidth}
	if cfg.shared {
		d.kdec = cfg.kc.(runio.SharedDecoder[K]).NewSharedDecoder()
		d.vdec = cfg.vc.(runio.SharedDecoder[V]).NewSharedDecoder()
	}
	return d
}

func (d *recDecoder[K, V]) decode(b []byte, dst *Rec[K, V]) error {
	if d.codeWidth != 0 {
		if len(b) < d.codeWidth {
			return fmt.Errorf("%w: record shorter than key code", runio.ErrCorrupt)
		}
		dst.code.Hi = binary.LittleEndian.Uint64(b)
		dst.code.Lo = binary.LittleEndian.Uint64(b[8:])
		b = b[d.codeWidth:]
	} else {
		dst.code = Code{}
	}
	k, n, err := d.kc.Decode(b)
	if err != nil {
		return fmt.Errorf("decode key: %w", err)
	}
	v, n2, err := d.vc.Decode(b[n:])
	if err != nil {
		return fmt.Errorf("decode value: %w", err)
	}
	if n+n2 != len(b) {
		return fmt.Errorf("%w: %d trailing record bytes", runio.ErrCorrupt, len(b)-n-n2)
	}
	dst.Key, dst.Value = k, v
	return nil
}

// decodeShared is decode over a record string from the arena read path.
func (d *recDecoder[K, V]) decodeShared(b string, dst *Rec[K, V]) error {
	if d.codeWidth != 0 {
		if len(b) < d.codeWidth {
			return fmt.Errorf("%w: record shorter than key code", runio.ErrCorrupt)
		}
		dst.code.Hi, _ = runio.Uint64LEString(b)
		dst.code.Lo, _ = runio.Uint64LEString(b[8:])
		b = b[d.codeWidth:]
	} else {
		dst.code = Code{}
	}
	k, n, err := d.kdec(b)
	if err != nil {
		return fmt.Errorf("decode key: %w", err)
	}
	v, n2, err := d.vdec(b[n:])
	if err != nil {
		return fmt.Errorf("decode value: %w", err)
	}
	if n+n2 != len(b) {
		return fmt.Errorf("%w: %d trailing record bytes", runio.ErrCorrupt, len(b)-n-n2)
	}
	//erlint:ignore arenaretain engine-internal transient: the record aliases the block only until the group callback returns; sinks clone what they retain
	dst.Key, dst.Value = k, v
	return nil
}

// segSource streams one partition segment of one run file.
type segSource[K, V any] struct {
	sr   *runio.SegmentReader
	dec  *recDecoder[K, V]
	part int32
}

func (s *segSource[K, V]) next(dst *Rec[K, V]) (int32, bool, error) {
	b, err := s.sr.Next()
	if err == io.EOF {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, err
	}
	if err := s.dec.decode(b, dst); err != nil {
		return 0, false, err
	}
	return s.part, true, nil
}

// runSource streams a whole run file, segment by segment in partition
// order (the map-side combine merge reads every partition).
type runSource[K, V any] struct {
	f    *os.File
	info *runio.Info
	dec  *recDecoder[K, V]
	cur  int
	sr   *runio.SegmentReader
	part int32
}

func (s *runSource[K, V]) next(dst *Rec[K, V]) (int32, bool, error) {
	for {
		if s.sr == nil {
			for s.cur < len(s.info.Segments) && s.info.Segments[s.cur].Records == 0 {
				s.cur++
			}
			if s.cur >= len(s.info.Segments) {
				return 0, false, nil
			}
			s.sr = runio.NewSegmentReader(s.f, s.info.Segments[s.cur], s.info.Path)
			s.part = int32(s.cur)
			s.cur++
		}
		b, err := s.sr.Next()
		if err == io.EOF {
			s.sr = nil
			continue
		}
		if err != nil {
			return 0, false, err
		}
		if err := s.dec.decode(b, dst); err != nil {
			return 0, false, err
		}
		return s.part, true, nil
	}
}

// sharedSegSource is segSource on the arena read path: records arrive
// as substrings of immutable blocks and decode without copying. The
// reader is embedded by value so a source costs one allocation total.
type sharedSegSource[K, V any] struct {
	sr   runio.SharedSegmentReader
	dec  *recDecoder[K, V]
	part int32
}

func (s *sharedSegSource[K, V]) next(dst *Rec[K, V]) (int32, bool, error) {
	b, err := s.sr.Next()
	if err == io.EOF {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, err
	}
	if err := s.dec.decodeShared(b, dst); err != nil {
		return 0, false, err
	}
	return s.part, true, nil
}

// sharedRunSource is runSource on the arena read path.
type sharedRunSource[K, V any] struct {
	f      *os.File
	info   *runio.Info
	dec    *recDecoder[K, V]
	cur    int
	active bool
	sr     runio.SharedSegmentReader
	part   int32
}

func (s *sharedRunSource[K, V]) next(dst *Rec[K, V]) (int32, bool, error) {
	for {
		if !s.active {
			for s.cur < len(s.info.Segments) && s.info.Segments[s.cur].Records == 0 {
				s.cur++
			}
			if s.cur >= len(s.info.Segments) {
				return 0, false, nil
			}
			s.sr.Init(s.f, s.info.Segments[s.cur], s.info.Path)
			s.active = true
			s.part = int32(s.cur)
			s.cur++
		}
		b, err := s.sr.Next()
		if err == io.EOF {
			s.active = false
			continue
		}
		if err != nil {
			return 0, false, err
		}
		if err := s.dec.decodeShared(b, dst); err != nil {
			return 0, false, err
		}
		return s.part, true, nil
	}
}

// tailSource streams the spiller's unspilled tail in (partition, key)
// order through the sortedPerm permutation (map-side combine merge).
type tailSource[K, V any] struct {
	recs  []Rec[K, V]
	parts []int32
	perm  []int32
	i     int
}

func (s *tailSource[K, V]) next(dst *Rec[K, V]) (int32, bool, error) {
	if s.i >= len(s.perm) {
		return 0, false, nil
	}
	j := s.perm[s.i]
	*dst = s.recs[j]
	s.i++
	return s.parts[j], true, nil
}
