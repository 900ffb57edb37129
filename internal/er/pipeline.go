package er

import (
	"context"

	"repro/internal/bdm"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/entity"
	"repro/internal/mapreduce"
	"repro/internal/obs"
)

// RunOptions is the execution plumbing shared by every pipeline entry
// point — one-source, two-source, sorted neighborhood, multi-pass, and
// the missing-keys decomposition all embed it, so engine selection,
// out-of-core spilling, and output streaming are configured the same
// way everywhere (previously each workflow re-declared these fields).
type RunOptions struct {
	// Engine executes the jobs; nil builds one from the fields below.
	Engine *mapreduce.Engine
	// Parallelism bounds the number of concurrently executing tasks per
	// phase when Engine is nil (0 = one goroutine per task, the engine
	// default). Ignored when Engine is set — configure the engine
	// directly instead.
	Parallelism int
	// SpillBudget, when > 0, runs the jobs on the out-of-core external
	// dataflow with this per-map-task spill budget in bytes (see
	// mapreduce.Engine.SpillBudget). Ignored when Engine is set.
	SpillBudget int64
	// TmpDir is the spill directory root for SpillBudget > 0 ("" = the
	// system temp dir). Ignored when Engine is set.
	TmpDir string
	// Sink, when non-nil, receives the matching phase's emitted pairs
	// as a stream instead of having them collected into the result
	// (Result.Matches stays nil and MatchResult.Output stays empty), so
	// match-output memory is O(1) in the match count. See MatchSink for
	// the ordering and Flush contract.
	Sink MatchSink
	// Retry configures task attempts, backoff, and speculative
	// re-execution for the pipeline's jobs (the zero value means engine
	// defaults: see mapreduce.RetryPolicy). Ignored when Engine is set —
	// configure the engine directly instead.
	Retry mapreduce.RetryPolicy
	// FaultHook, when non-nil, is the deterministic fault-injection hook
	// threaded to every job (chaos testing; see mapreduce.ChaosHook).
	// Ignored when Engine is set.
	FaultHook mapreduce.FaultHook
	// MasterAddr, when non-empty, makes RunDistributedPipeline start a
	// dist master listening on this address and dispatch the pipeline's
	// tasks to registered workers ("127.0.0.1:0" picks a free port).
	// Only RunDistributedPipeline reads it.
	MasterAddr string
	// Workers is how many registered workers RunDistributedPipeline
	// waits for before starting the first job (0 = start immediately;
	// the engine degrades to local execution when none ever register).
	Workers int
	// Master, when non-nil, is a started dist master to dispatch
	// through instead of starting one from MasterAddr — the seam the
	// in-process differential tests use. The caller owns its lifetime.
	Master *dist.Master
	// Obs, when non-nil, threads tracing and metrics through the
	// pipeline's engine (and, for RunDistributedPipeline, through a
	// master started from MasterAddr). Nil keeps every hot path on the
	// zero-overhead disabled branch. When Engine is set, the engine's
	// own Obs wins if non-nil; otherwise this one is installed on it.
	Obs *obs.Observer
}

// ResolveEngine returns the effective engine: the configured one, or a
// fresh engine built from the option fields (external dataflow when a
// spill budget is set).
func (o *RunOptions) ResolveEngine() *mapreduce.Engine {
	if o.Engine != nil {
		if o.Engine.Obs == nil {
			o.Engine.Obs = o.Obs
		}
		return o.Engine
	}
	e := &mapreduce.Engine{Parallelism: o.Parallelism, Retry: o.Retry, FaultHook: o.FaultHook, Obs: o.Obs}
	if o.SpillBudget > 0 {
		e.Dataflow = mapreduce.DataflowExternal
		e.SpillBudget = o.SpillBudget
		e.TmpDir = o.TmpDir
	}
	return e
}

// runMatchJob executes a matching job against the configured output
// path: collecting (nil sink — output and canonical matches land in the
// result, the legacy behaviour) or streaming (each emission goes to the
// sink, which is flushed after a successful run; the returned matches
// are nil and res.Output stays empty).
func runMatchJob(ctx context.Context, eng *mapreduce.Engine, job core.MatchJob, input [][]core.AnnotatedEntity, sink MatchSink) (*core.MatchJobResult, []core.MatchPair, error) {
	if sink == nil {
		res, err := job.RunContext(ctx, eng, input)
		if err != nil {
			return nil, nil, err
		}
		return res, CollectMatches(res), nil
	}
	res, err := job.RunStream(ctx, eng, input, func(o core.MatchOutput) error {
		return sink.Consume(o.Key, o.Value)
	})
	if err != nil {
		return nil, nil, err
	}
	if err := sink.Flush(); err != nil {
		return nil, nil, err
	}
	return res, nil, nil
}

// RunPipeline executes the full workflow of Figure 2 over the source's
// partitions: Job 1 computes the BDM and side-writes
// blocking-key-annotated entities per partition; Job 2 redistributes
// them with the configured strategy and performs the matching. For the
// Basic strategy only a single job runs (it needs no BDM); its input is
// annotated inline to keep the dataflow identical.
//
// Cancelling ctx stops the run between engine tasks and returns an
// error wrapping ctx.Err(); a configured Sink streams the matches (see
// RunOptions.Sink).
func RunPipeline(ctx context.Context, src Source, cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	parts, err := src.Partitions()
	if err != nil {
		return nil, err
	}
	eng := cfg.ResolveEngine()
	res := &Result{}

	var job2Input [][]core.AnnotatedEntity
	if cfg.Strategy.NeedsBDM() {
		matrix, side, bdmRes, err := bdm.ComputeContext(ctx, eng, parts, bdm.JobOptions{
			Attr:           cfg.Attr,
			KeyFunc:        cfg.BlockKey,
			NumReduceTasks: cfg.R,
			UseCombiner:    cfg.UseCombiner,
		})
		if err != nil {
			return nil, err
		}
		res.BDM = matrix
		res.BDMResult = bdmRes
		job2Input = side
	} else {
		job2Input = AnnotateInput(parts, cfg.Attr, cfg.BlockKey)
	}

	job, err := cfg.Strategy.JobPrepared(res.BDM, cfg.R, cfg.PreparedMatcher)
	if err != nil {
		return nil, err
	}
	matchRes, matches, err := runMatchJob(ctx, eng, job, job2Input, cfg.Sink)
	if err != nil {
		return nil, err
	}
	res.MatchResult = matchRes
	res.Comparisons = matchRes.Counter(core.ComparisonsCounter)
	res.Matches = matches
	return res, nil
}

// RunDualPipeline executes the two-source (R×S) workflow of Appendix I
// over the two sources' partitions; see RunPipeline for the execution
// semantics. As in the paper, every partition holds entities of exactly
// one source (partition indexes are assigned R-first, then S).
func RunDualPipeline(ctx context.Context, srcR, srcS Source, cfg DualConfig) (*DualResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	partsR, err := srcR.Partitions()
	if err != nil {
		return nil, err
	}
	partsS, err := srcS.Partitions()
	if err != nil {
		return nil, err
	}
	eng := cfg.ResolveEngine()
	parts := append(append(entity.Partitions{}, partsR...), partsS...)
	sources := make([]bdm.Source, len(parts))
	for i := range partsS {
		sources[len(partsR)+i] = bdm.SourceS
	}

	matrix, err := bdm.FromDualPartitions(parts, sources, cfg.Attr, cfg.BlockKey)
	if err != nil {
		return nil, err
	}
	job, err := cfg.Strategy.JobPrepared(matrix, cfg.R, cfg.PreparedMatcher)
	if err != nil {
		return nil, err
	}
	matchRes, matches, err := runMatchJob(ctx, eng, job, AnnotateInput(parts, cfg.Attr, cfg.BlockKey), cfg.Sink)
	if err != nil {
		return nil, err
	}
	return &DualResult{
		Matches:     matches,
		Comparisons: matchRes.Counter(core.ComparisonsCounter),
		BDM:         matrix,
		MatchResult: matchRes,
	}, nil
}
