package er

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/internal/bdm"
	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/mapreduce"
	"repro/internal/match"
)

// Distributed execution of the two-job workflow. A pipeline Config
// cannot cross a process boundary (it carries function and interface
// values: BlockKey, PreparedMatcher), so the distributed entry point
// takes DistParams — a declarative job description both the driver and
// the worker binary expand into the *same* Config — and ships it to
// workers as the job spec, together with the serialized BDM for Job 2.
// The worker-side builders registered here (er/bdm, er/match) are what
// cmd/erworker executes; any process that imports this package can
// serve er jobs.

// DistParams describes a distributable pipeline run declaratively.
type DistParams struct {
	// Strategy names the redistribution scheme: "basic", "blocksplit",
	// or "pairrange".
	Strategy string `json:"strategy"`
	// Attr is the entity attribute the blocking key is derived from.
	Attr string `json:"attr"`
	// KeyPrefix is the normalized-prefix length of the blocking key
	// (blocking.NormalizedPrefix).
	KeyPrefix int `json:"key_prefix"`
	// Threshold, when > 0, matches with the edit-distance matcher at
	// this similarity threshold; 0 counts comparisons without matching.
	Threshold float64 `json:"threshold"`
	// R is the number of reduce tasks of both jobs.
	R int `json:"r"`
	// UseCombiner enables the BDM job's combiner.
	UseCombiner bool `json:"use_combiner"`
}

// strategy resolves the strategy name.
func (p *DistParams) strategy() (core.Strategy, error) {
	switch strings.ToLower(p.Strategy) {
	case "basic":
		return core.Basic{}, nil
	case "blocksplit":
		return core.BlockSplit{}, nil
	case "pairrange":
		return core.PairRange{}, nil
	default:
		return nil, fmt.Errorf("er: unknown distributed strategy %q (want basic, blocksplit, or pairrange)", p.Strategy)
	}
}

// config expands the declarative parameters into the pipeline Config —
// the single definition both sides of the wire share.
func (p *DistParams) config() (Config, error) {
	strat, err := p.strategy()
	if err != nil {
		return Config{}, err
	}
	cfg := Config{
		Strategy:    strat,
		Attr:        p.Attr,
		BlockKey:    blocking.NormalizedPrefix(p.KeyPrefix),
		R:           p.R,
		UseCombiner: p.UseCombiner,
	}
	if p.Threshold > 0 {
		cfg.PreparedMatcher = match.EditDistance(p.Attr, p.Threshold)
	}
	return cfg, nil
}

// matchSpec is the er/match job spec: the parameters plus the BDM in
// its canonical text serialization ("" for Basic).
type matchSpec struct {
	Params DistParams `json:"params"`
	BDM    string     `json:"bdm,omitempty"`
}

// RunDistributedPipeline executes the workflow of Figure 2 with both
// jobs' tasks dispatched to worker processes: it starts (or borrows)
// a dist master, waits for opts.Workers registrations, and runs the
// BDM and matching jobs with Engine.Remote bound to per-job sessions.
// Results are byte-identical to RunPipeline over the same parameters —
// the distributed differential suite holds this across strategies and
// worker-kill chaos. If every worker dies (or none registers), the
// engine completes the run locally with a logged warning.
func RunDistributedPipeline(ctx context.Context, src Source, p DistParams, opts RunOptions) (*Result, error) {
	cfg, err := p.config()
	if err != nil {
		return nil, err
	}
	cfg.RunOptions = opts
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	parts, err := src.Partitions()
	if err != nil {
		return nil, err
	}

	master := opts.Master
	if master == nil {
		master = dist.NewMaster(dist.MasterOptions{Addr: opts.MasterAddr, Obs: opts.Obs})
		if err := master.Start(); err != nil {
			return nil, err
		}
		defer master.Close()
	}
	if opts.Workers > 0 {
		wctx, cancel := context.WithTimeout(ctx, time.Minute)
		err := master.AwaitWorkers(wctx, opts.Workers)
		cancel()
		if err != nil {
			return nil, err
		}
	}

	baseEng := cfg.ResolveEngine()
	paramsJSON, err := json.Marshal(&p)
	if err != nil {
		return nil, err
	}
	res := &Result{}

	var job2Input [][]core.AnnotatedEntity
	if cfg.Strategy.NeedsBDM() {
		eng := *baseEng
		session := master.Session("er/bdm", paramsJSON)
		eng.Remote = session
		matrix, side, bdmRes, err := bdm.ComputeContext(ctx, &eng, parts, bdm.JobOptions{
			Attr:           cfg.Attr,
			KeyFunc:        cfg.BlockKey,
			NumReduceTasks: cfg.R,
			UseCombiner:    cfg.UseCombiner,
		})
		session.Close()
		if err != nil {
			return nil, err
		}
		res.BDM = matrix
		res.BDMResult = bdmRes
		job2Input = side
	} else {
		job2Input = AnnotateInput(parts, cfg.Attr, cfg.BlockKey)
	}

	spec := matchSpec{Params: p}
	if res.BDM != nil {
		var buf bytes.Buffer
		if _, err := res.BDM.WriteTo(&buf); err != nil {
			return nil, err
		}
		spec.BDM = buf.String()
	}
	specJSON, err := json.Marshal(&spec)
	if err != nil {
		return nil, err
	}
	job, err := cfg.Strategy.JobPrepared(res.BDM, cfg.R, cfg.PreparedMatcher)
	if err != nil {
		return nil, err
	}
	eng := *baseEng
	session := master.Session("er/match", specJSON)
	eng.Remote = session
	matchRes, matches, err := runMatchJob(ctx, &eng, job, job2Input, cfg.Sink)
	session.Close()
	if err != nil {
		return nil, err
	}
	res.MatchResult = matchRes
	res.Comparisons = matchRes.Counter(core.ComparisonsCounter)
	res.Matches = matches
	return res, nil
}

func init() {
	dist.RegisterJob("er/bdm", func(spec []byte) (mapreduce.RemoteRunnable, error) {
		var p DistParams
		if err := json.Unmarshal(spec, &p); err != nil {
			return nil, fmt.Errorf("er/bdm spec: %w", err)
		}
		cfg, err := p.config()
		if err != nil {
			return nil, err
		}
		return mapreduce.NewRemoteRunnable(bdm.Job(bdm.JobOptions{
			Attr:           cfg.Attr,
			KeyFunc:        cfg.BlockKey,
			NumReduceTasks: cfg.R,
			UseCombiner:    cfg.UseCombiner,
		}))
	})
	dist.RegisterJob("er/match", func(specJSON []byte) (mapreduce.RemoteRunnable, error) {
		var spec matchSpec
		if err := json.Unmarshal(specJSON, &spec); err != nil {
			return nil, fmt.Errorf("er/match spec: %w", err)
		}
		cfg, err := spec.Params.config()
		if err != nil {
			return nil, err
		}
		var matrix *bdm.Matrix
		if spec.BDM != "" {
			matrix, err = bdm.ReadFrom(strings.NewReader(spec.BDM))
			if err != nil {
				return nil, fmt.Errorf("er/match spec BDM: %w", err)
			}
		}
		job, err := cfg.Strategy.JobPrepared(matrix, cfg.R, cfg.PreparedMatcher)
		if err != nil {
			return nil, err
		}
		return core.RemoteRunnableFor(job)
	})
}
