package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dist"
	"repro/internal/entity"
	"repro/internal/er"
	"repro/internal/mapreduce"
	"repro/internal/match"
	"repro/internal/obs"
)

// The job parameters every workload shares: ermatch's defaults at
// nproc=2 (m = NumCPU map partitions, r = 4·NumCPU reduce tasks,
// Parallelism = NumCPU, combiner on) with the paper's match rule. They
// are fixed rather than derived from the host so that every host runs
// the same jobs.
const (
	numMaps     = 2
	numReduces  = 8
	parallelism = 2
	threshold   = 0.8
	attr        = datagen.AttrTitle
)

// workload is one executed-ER job the benchmark runs in a closed loop.
type workload struct {
	name string
	// spec builds the generator spec at the given scale; scale is the
	// paper-scale default, which tests shrink.
	spec     func(scale float64) datagen.Spec
	scale    float64
	prefix   int
	strategy core.PreparedStrategy
	// spillBudget > 0 runs the out-of-core external dataflow with this
	// per-map-task budget in bytes.
	spillBudget int64
	// distributed runs through er.RunDistributedPipeline on an
	// in-process master with two one-slot workers over loopback HTTP.
	distributed bool
}

var workloads = []*workload{
	{
		name:     "ds1-blocksplit-mem",
		spec:     datagen.DS1Spec,
		scale:    1.0,
		prefix:   3,
		strategy: core.BlockSplit{},
	},
	{
		name:        "ds2-pairrange-spill",
		spec:        datagen.DS2Spec,
		scale:       0.2,
		prefix:      4,
		strategy:    core.PairRange{},
		spillBudget: 64 << 10,
	},
	{
		name:        "ds1-pairrange-dist",
		spec:        datagen.DS1Spec,
		scale:       0.5,
		prefix:      3,
		strategy:    core.PairRange{},
		distributed: true,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

func (w *workload) blockKey() blocking.KeyFunc { return blocking.NormalizedPrefix(w.prefix) }

// input is one generated dataset, partitioned the way ermatch
// partitions a CSV stream: round-robin over numMaps partitions.
type input struct {
	entities []entity.Entity
	parts    entity.Partitions
}

// generate builds the workload's input from the seed alone.
func (w *workload) generate(seed int64, scale float64) *input {
	spec := w.spec(scale)
	spec.Seed = seed
	es, _ := datagen.Generate(spec)
	return &input{entities: es, parts: entity.SplitRoundRobin(es, numMaps)}
}

// inputDigest hashes the partitioned input (partition, ID, title), so
// two inputs with equal digests are byte-identical to the engine.
func inputDigest(parts entity.Partitions) string {
	h := sha256.New()
	for i, p := range parts {
		fmt.Fprintf(h, "partition %d %d\n", i, len(p))
		for _, e := range p {
			io.WriteString(h, e.ID)
			h.Write([]byte{0})
			io.WriteString(h, e.Attr(attr))
			h.Write([]byte{'\n'})
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// reference is the expected output of one job on one input.
type reference struct {
	digest      string
	matches     int
	comparisons int64
}

// computeReference runs the repository's serial oracle: block by key,
// compare every pair in a nested loop with the plain form of the same
// matcher.
func (w *workload) computeReference(in *input) reference {
	pairs, comparisons := er.SerialMatch(in.entities, attr, w.blockKey(),
		core.PlainMatcher(match.EditDistance(attr, threshold)))
	return reference{digest: pairDigest(pairs), matches: len(pairs), comparisons: comparisons}
}

// pairDigest hashes match pairs in canonical sorted order.
func pairDigest(pairs []core.MatchPair) string {
	sorted := append([]core.MatchPair(nil), pairs...)
	er.SortMatches(sorted)
	h := sha256.New()
	for _, p := range sorted {
		io.WriteString(h, p.A)
		h.Write([]byte{'\t'})
		io.WriteString(h, p.B)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// parseSinkCSV reads the pairs back out of what er.CSVSink wrote.
func parseSinkCSV(b []byte) ([]core.MatchPair, error) {
	rows, err := csv.NewReader(bytes.NewReader(b)).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("parse sink output: %w", err)
	}
	if len(rows) == 0 || len(rows[0]) != 3 || rows[0][0] != "a" {
		return nil, errors.New("sink output has no a,b,similarity header")
	}
	pairs := make([]core.MatchPair, 0, len(rows)-1)
	for _, r := range rows[1:] {
		pairs = append(pairs, core.MatchPair{A: r[0], B: r[1]})
	}
	return pairs, nil
}

// checkOutput compares one job's streamed output and comparison count
// with the reference.
func checkOutput(ref reference, sinkOut []byte, comparisons int64) error {
	pairs, err := parseSinkCSV(sinkOut)
	if err != nil {
		return err
	}
	if comparisons != ref.comparisons {
		return fmt.Errorf("comparisons = %d, reference %d", comparisons, ref.comparisons)
	}
	if len(pairs) != ref.matches {
		return fmt.Errorf("matches = %d, reference %d", len(pairs), ref.matches)
	}
	if d := pairDigest(pairs); d != ref.digest {
		return fmt.Errorf("match digest %s, reference %s", d[:12], ref.digest[:12])
	}
	return nil
}

// cluster is the in-process distributed runtime of the dist workload:
// a master and two one-slot workers registered over loopback HTTP.
type cluster struct {
	master  *dist.Master
	workers []*dist.Worker
	// tasks counts task attempts the workers started; a job that
	// leaves it unchanged never reached a worker.
	tasks atomic.Int64
}

const clusterWorkers = 2

// startCluster starts the master and workers and waits until both
// workers are registered. Run files live under dir.
func startCluster(ctx context.Context, dir string, o *obs.Observer) (*cluster, error) {
	c := &cluster{master: dist.NewMaster(dist.MasterOptions{Log: obs.Quiet(), Obs: o})}
	if err := c.master.Start(); err != nil {
		return nil, fmt.Errorf("start master: %w", err)
	}
	for i := 0; i < clusterWorkers; i++ {
		wk, err := dist.StartWorker(dist.WorkerOptions{
			MasterURL: c.master.URL(),
			Dir:       dir,
			Slots:     1,
			Log:       obs.Quiet(),
			Obs:       o,
			TaskStarted: func(context.Context, string, int, int) {
				c.tasks.Add(1)
			},
		})
		if err != nil {
			c.close()
			return nil, fmt.Errorf("start worker: %w", err)
		}
		c.workers = append(c.workers, wk)
	}
	wctx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	if err := c.master.AwaitWorkers(wctx, clusterWorkers); err != nil {
		c.close()
		return nil, fmt.Errorf("await workers: %w", err)
	}
	return c, nil
}

// close stops the workers (removing their run directories) and then
// the master; each returns only after its goroutines have ended.
func (c *cluster) close() {
	for _, wk := range c.workers {
		wk.Stop()
	}
	c.master.Close()
}

// warnCounter is a slog handler that counts warnings: the engine's
// only warning on a distributed run is the degradation to local
// execution, which must not happen unseen with observability off.
type warnCounter struct{ n atomic.Int64 }

func (h *warnCounter) Enabled(_ context.Context, l slog.Level) bool { return l >= slog.LevelWarn }
func (h *warnCounter) Handle(context.Context, slog.Record) error {
	h.n.Add(1)
	return nil
}
func (h *warnCounter) WithAttrs([]slog.Attr) slog.Handler { return h }
func (h *warnCounter) WithGroup(string) slog.Handler      { return h }

// env is everything a workload's jobs run against: the input, the
// matcher and the spill directory.
type env struct {
	w       *workload
	in      *input
	matcher core.PreparedMatcher
	tmpDir  string
	warns   *warnCounter
}

// jobResult is what one job leaves for the output check.
type jobResult struct {
	res *er.Result
	// remoteTasks is how many task attempts the workers started.
	remoteTasks int64
	// degradations counts fallbacks to local execution.
	degradations int64
}

// engine builds the engine the job runs on. o is nil outside the
// traced run.
func (v *env) engine(o *obs.Observer) *mapreduce.Engine {
	e := &mapreduce.Engine{Parallelism: parallelism, TmpDir: v.tmpDir, Obs: o, Log: slog.New(v.warns)}
	if v.w.spillBudget > 0 {
		e.Dataflow = mapreduce.DataflowExternal
		e.SpillBudget = v.w.spillBudget
	}
	return e
}

func (v *env) config(o *obs.Observer, sink er.MatchSink) er.Config {
	return er.Config{
		RunOptions:      er.RunOptions{Engine: v.engine(o), Sink: sink},
		Strategy:        v.w.strategy,
		Attr:            attr,
		BlockKey:        v.w.blockKey(),
		PreparedMatcher: v.matcher,
		R:               numReduces,
		UseCombiner:     true,
	}
}

func (v *env) distParams() er.DistParams {
	return er.DistParams{
		Strategy:    v.w.strategy.Name(),
		Attr:        attr,
		KeyPrefix:   v.w.prefix,
		Threshold:   threshold,
		R:           numReduces,
		UseCombiner: true,
	}
}

// runJob runs one complete ER job through the public pipeline entry
// point, streaming matches into sink. cl is the cluster the dist
// workload dispatches to; o is nil outside the traced run.
func (v *env) runJob(ctx context.Context, cl *cluster, o *obs.Observer, sink er.MatchSink) (jobResult, error) {
	src := er.FromPartitions(v.in.parts)
	cfg := v.config(o, sink)
	if !v.w.distributed {
		res, err := er.RunPipeline(ctx, src, cfg)
		return jobResult{res: res}, err
	}
	tasks0, warns0 := cl.tasks.Load(), v.warns.n.Load()
	cfg.Master, cfg.Workers = cl.master, clusterWorkers
	res, err := er.RunDistributedPipeline(ctx, src, v.distParams(), cfg.RunOptions)
	return jobResult{
		res:          res,
		remoteTasks:  cl.tasks.Load() - tasks0,
		degradations: v.warns.n.Load() - warns0,
	}, err
}

// checkJob is the full per-job output check.
func (v *env) checkJob(ref reference, jr jobResult, sinkOut []byte) error {
	if err := checkOutput(ref, sinkOut, jr.res.Comparisons); err != nil {
		return err
	}
	if v.w.distributed {
		if jr.degradations > 0 {
			return fmt.Errorf("job degraded to local execution %d time(s)", jr.degradations)
		}
		if jr.remoteTasks == 0 {
			return errors.New("no task reached a worker")
		}
	}
	return nil
}

// describe records the input properties a later change may depend on.
func (v *env) describe(res *er.Result) map[string]any {
	d := map[string]any{
		"entities":           len(v.in.entities),
		"map_partitions":     numMaps,
		"reduce_tasks":       numReduces,
		"spill_budget_bytes": v.w.spillBudget,
	}
	if x := res.BDM; x != nil {
		k, _ := x.LargestBlock()
		d["blocks"] = x.NumBlocks()
		d["pairs"] = x.Pairs()
		d["largest_block_pair_share"] = float64(x.BlockPairs(k)) / float64(x.Pairs())
		d["pairs_per_entity"] = float64(x.Pairs()) / float64(len(v.in.entities))
	}
	if v.w.spillBudget > 0 {
		// Both jobs' map tasks spill: the budget applies to each.
		tasks := append(slices.Clone(res.MatchResult.MapMetrics), res.BDMResult.MapMetrics...)
		var written int64
		for _, m := range tasks {
			written += m.SpillBytesWritten
		}
		d["map_output_spilled_bytes"] = written
		d["spill_budget_over_spilled_per_map_task"] = float64(v.w.spillBudget) / (float64(written) / float64(len(tasks)))
	}
	return d
}
