package repro_test

import (
	"testing"

	"repro/internal/bdm"
	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/entity"
	"repro/internal/er"
	"repro/internal/mapreduce"
	"repro/internal/multipass"
	"repro/internal/sn"
)

// BenchmarkExtensionSortedNeighborhood contrasts the related-work
// Sorted Neighborhood approach ([11] in the paper) with BlockSplit on a
// heavily skewed dataset. SN's window bounds every entity's comparisons,
// so its total work stays linear where block-based matching is
// quadratic — at the price of a different (window-limited) candidate
// set. Metric: SN comparisons as a fraction of the blocked pair count.
func BenchmarkExtensionSortedNeighborhood(b *testing.B) {
	es := datagen.Exponential(4000, 20, 0.8, 3)
	parts := entity.SplitRoundRobin(es, 4)
	blockedPairs := func() int64 {
		_, comps := er.SerialMatch(es, datagen.AttrBlock, blocking.Identity(), nil)
		return comps
	}()
	var frac float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sn.RunPipeline(b.Context(), er.FromPartitions(parts), sn.Config{
			Attr:       datagen.AttrBlock,
			Key:        func(v string) string { return v },
			Window:     10,
			R:          8,
			RunOptions: er.RunOptions{Engine: &mapreduce.Engine{Parallelism: 4}},
		})
		if err != nil {
			b.Fatal(err)
		}
		frac = float64(res.Comparisons) / float64(blockedPairs)
	}
	b.ReportMetric(frac, "sn/blocked-comparisons")
}

// BenchmarkExtensionRankedSN contrasts naive key-range-partitioned SN
// with the rank-partitioned variant on a skewed dataset. Metric: the
// keyed variant's straggler factor divided by the ranked variant's
// (≫1 means rank partitioning pays off).
func BenchmarkExtensionRankedSN(b *testing.B) {
	es := datagen.Exponential(4000, 20, 1.0, 5)
	parts := entity.SplitRoundRobin(es, 4)
	cfg := sn.Config{
		Attr:       datagen.AttrBlock,
		Key:        func(v string) string { return v },
		Window:     10,
		R:          8,
		RunOptions: er.RunOptions{Engine: &mapreduce.Engine{Parallelism: 4}},
	}
	straggler := func(res *sn.Result) float64 {
		var mx, total int64
		for _, rm := range res.MatchResult.ReduceMetrics {
			c := rm.Counter(core.ComparisonsCounter)
			total += c
			if c > mx {
				mx = c
			}
		}
		if total == 0 {
			return 1
		}
		return float64(mx) * float64(len(res.MatchResult.ReduceMetrics)) / float64(total)
	}
	var ratio float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		keyed, err := sn.RunPipeline(b.Context(), er.FromPartitions(parts), cfg)
		if err != nil {
			b.Fatal(err)
		}
		ranked, err := sn.RunRankedPipeline(b.Context(), er.FromPartitions(parts), cfg)
		if err != nil {
			b.Fatal(err)
		}
		ratio = straggler(keyed) / straggler(ranked)
	}
	b.ReportMetric(ratio, "keyed/ranked-straggler")
}

// BenchmarkExtensionMultiPass measures the two-pass (prefix + suffix)
// blocking pipeline end to end with PairRange, reporting the candidate
// redundancy the least-common-key rule absorbs.
func BenchmarkExtensionMultiPass(b *testing.B) {
	es, _ := datagen.Generate(datagen.DS1Spec(0.01))
	parts := entity.SplitRoundRobin(es, 4)
	passes := []multipass.Pass{
		{Name: "prefix", Attr: datagen.AttrTitle, Key: blocking.NormalizedPrefix(3)},
		{Name: "suffix", Attr: datagen.AttrTitle, Key: blocking.Suffix(4)},
	}
	overhead := multipass.Overhead(es, passes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := multipass.RunPipeline(b.Context(), er.FromPartitions(parts), multipass.Config{
			RunOptions:  er.RunOptions{Engine: &mapreduce.Engine{Parallelism: 4}},
			Passes:      passes,
			Strategy:    core.PairRange{},
			R:           16,
			UseCombiner: true,
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(overhead, "candidate-redundancy")
}

// BenchmarkExtensionMissingKeys runs the Section III decomposition
// (blocked + Cartesian parts) end to end.
func BenchmarkExtensionMissingKeys(b *testing.B) {
	es, _ := datagen.Generate(datagen.DS1Spec(0.005))
	// Knock the blocking key out of 5% of the entities.
	key := func(v string) string {
		if len(v) > 0 && v[0] == 'q' { // ~1/26 of prefixes
			return ""
		}
		return blocking.Prefix(3)(v)
	}
	parts := entity.SplitRoundRobin(es, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := er.RunWithMissingKeysPipeline(b.Context(), er.FromPartitions(parts), er.Config{
			Strategy:   core.BlockSplit{},
			Attr:       datagen.AttrTitle,
			BlockKey:   key,
			R:          8,
			RunOptions: er.RunOptions{Engine: &mapreduce.Engine{Parallelism: 4}},
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.Comparisons), "comparisons")
		}
	}
}

// BenchmarkExtensionMemoryCap quantifies the balance cost of bounding
// reduce-side buffers (BlockSplit.MaxEntitiesPerTask).
func BenchmarkExtensionMemoryCap(b *testing.B) {
	es, _ := datagen.Generate(datagen.DS1Spec(0.05))
	x, err := bdmOf(es, 20)
	if err != nil {
		b.Fatal(err)
	}
	var ratio float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		def, err := core.BlockSplit{}.Plan(x, 20, 100)
		if err != nil {
			b.Fatal(err)
		}
		capped, err := core.BlockSplit{MaxEntitiesPerTask: 32}.Plan(x, 20, 100)
		if err != nil {
			b.Fatal(err)
		}
		ratio = float64(capped.MaxReduceComparisons()) / float64(def.MaxReduceComparisons())
	}
	b.ReportMetric(ratio, "capped/uncapped-maxload")
}

func bdmOf(es []entity.Entity, m int) (*bdm.Matrix, error) {
	return bdm.FromPartitions(entity.SplitRoundRobin(es, m), datagen.AttrTitle, datagen.BlockKey())
}
