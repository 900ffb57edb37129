package er

import (
	"context"
	"fmt"

	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/entity"
)

// Section III of the paper: entities R∅ ⊆ R without a valid blocking key
// (e.g., products with missing manufacturer) cannot be blocked and must
// be matched against *all* entities. The paper decomposes the problem:
//
//	matchB(R) = matchB(R−R∅)            (the ordinary blocked matching)
//	          ∪ match⊥(R∅, R−R∅)        (Cartesian product, two sources)
//	          ∪ match⊥(R∅)              (Cartesian product within R∅)
//
// where ⊥ is a constant blocking key so that every pair is considered.
// RunWithMissingKeysPipeline implements this decomposition with the library's
// existing one- and two-source pipelines.

// noKeySentinel is the constant ⊥ block used for the Cartesian parts.
const noKeySentinel = "\x00⊥"

// MissingKeyResult aggregates the three sub-runs of the decomposition.
type MissingKeyResult struct {
	// Matches is the union of the three match results, deduplicated and
	// sorted canonically.
	Matches []core.MatchPair
	// Comparisons is the total over all three sub-runs.
	Comparisons int64
	// Keyed, Cross, and NoKey expose the individual sub-results
	// (Cross/NoKey are nil when R∅ is empty; Keyed is nil when no
	// entity has a key).
	Keyed *Result
	Cross *DualResult
	NoKey *Result
}

// dualStrategyFor pairs each one-source strategy with its two-source
// counterpart for the Cartesian cross part. Basic has no dual variant in
// the paper; BlockSplitDual degenerates gracefully (one block) and keeps
// the Cartesian product balanced, so it serves as Basic's stand-in.
func dualStrategyFor(s core.Strategy) core.DualStrategy {
	if _, ok := s.(core.PairRange); ok {
		return core.PairRangeDual{}
	}
	return core.BlockSplitDual{}
}

// RunWithMissingKeysPipeline runs the full decomposition over the
// source's partitions. cfg.BlockKey may return "" for entities without
// a valid key; those are routed through the Cartesian parts. All other
// configuration — the whole embedded RunOptions included, so spilling
// and a configured Sink apply to every sub-run — is forwarded to each
// of the three sub-pipelines. The three parts produce disjoint pair
// sets (each pair falls into exactly one part by which sides carry a
// key), so a streaming sink sees each match once; without a sink the
// union is additionally deduplicated and canonically sorted into
// MissingKeyResult.Matches.
func RunWithMissingKeysPipeline(ctx context.Context, src Source, cfg Config) (*MissingKeyResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	parts, err := src.Partitions()
	if err != nil {
		return nil, err
	}
	keyed := make(entity.Partitions, len(parts))
	noKey := make(entity.Partitions, len(parts))
	var nKeyed, nNoKey int
	for i, part := range parts {
		for _, e := range part {
			if cfg.BlockKey(e.Attr(cfg.Attr)) == "" {
				noKey[i] = append(noKey[i], e)
				nNoKey++
			} else {
				keyed[i] = append(keyed[i], e)
				nKeyed++
			}
		}
	}

	out := &MissingKeyResult{}
	seen := make(map[core.MatchPair]bool)
	add := func(pairs []core.MatchPair) {
		for _, p := range pairs {
			if !seen[p] {
				seen[p] = true
				out.Matches = append(out.Matches, p)
			}
		}
	}

	// Part 1: ordinary blocked matching of the keyed entities.
	if nKeyed > 0 {
		res, err := RunPipeline(ctx, FromPartitions(compact(keyed)), cfg)
		if err != nil {
			return nil, fmt.Errorf("er: missing-keys decomposition, keyed part: %w", err)
		}
		out.Keyed = res
		out.Comparisons += res.Comparisons
		add(res.Matches)
	}

	// Part 2: R∅ × (R−R∅) under the constant key ⊥ (two sources).
	if nNoKey > 0 && nKeyed > 0 {
		res, err := RunDualPipeline(ctx, FromPartitions(compact(noKey)), FromPartitions(compact(keyed)), DualConfig{
			RunOptions:      cfg.RunOptions,
			Strategy:        dualStrategyFor(cfg.Strategy),
			Attr:            cfg.Attr,
			BlockKey:        blocking.Constant(noKeySentinel),
			PreparedMatcher: cfg.PreparedMatcher,
			R:               cfg.R,
		})
		if err != nil {
			return nil, fmt.Errorf("er: missing-keys decomposition, cross part: %w", err)
		}
		out.Cross = res
		out.Comparisons += res.Comparisons
		add(res.Matches)
	}

	// Part 3: the Cartesian product within R∅ itself.
	if nNoKey > 1 {
		sub := cfg
		sub.BlockKey = blocking.Constant(noKeySentinel)
		res, err := RunPipeline(ctx, FromPartitions(compact(noKey)), sub)
		if err != nil {
			return nil, fmt.Errorf("er: missing-keys decomposition, no-key part: %w", err)
		}
		out.NoKey = res
		out.Comparisons += res.Comparisons
		add(res.Matches)
	}

	// Degenerate inputs (no keyed entities and fewer than two keyless
	// ones) run zero sub-pipelines; flush the sink anyway so every
	// successful run honours the MatchSink contract (writer sinks emit
	// their header, buffers drain).
	if cfg.Sink != nil && out.Keyed == nil && out.Cross == nil && out.NoKey == nil {
		if err := cfg.Sink.Flush(); err != nil {
			return nil, err
		}
	}

	SortMatches(out.Matches)
	return out, nil
}

// compact drops empty partitions (the pipelines require at least one
// entity-bearing partition and m equals the partition count, so empty
// tails would skew the BDM for no benefit) while preserving order.
func compact(parts entity.Partitions) entity.Partitions {
	out := make(entity.Partitions, 0, len(parts))
	for _, p := range parts {
		if len(p) > 0 {
			out = append(out, p)
		}
	}
	if len(out) == 0 {
		return entity.Partitions{{}}
	}
	return out
}
