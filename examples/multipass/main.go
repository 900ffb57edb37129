// Multipass demonstrates the paper's future-work extension: multi-pass
// blocking assigns each entity one block per pass (here: title prefix
// AND title suffix), which recovers duplicates whose typo falls inside
// the prefix — single-pass prefix blocking misses those entirely. The
// least-common-block-key rule keeps each candidate pair evaluated
// exactly once despite the replication.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/entity"
	"repro/internal/er"
	"repro/internal/multipass"
	"repro/internal/similarity"
)

func main() {
	entities := catalog()

	matcher := core.Matcher(func(a, b entity.Entity) (float64, bool) {
		sim := similarity.LevenshteinSimilarity(a.Attr("title"), b.Attr("title"))
		return sim, sim >= 0.8
	})

	ctx := context.Background()
	src := er.FromEntities(entities, 2)

	// Single-pass baseline: title-prefix blocking only.
	single, err := er.RunPipeline(ctx, src, er.Config{
		Strategy:        core.PairRange{},
		Attr:            "title",
		BlockKey:        blocking.NormalizedPrefix(3),
		PreparedMatcher: matcher,
		R:               4,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Multi-pass: prefix plus suffix.
	passes := []multipass.Pass{
		{Name: "prefix", Attr: "title", Key: blocking.NormalizedPrefix(3)},
		{Name: "suffix", Attr: "title", Key: blocking.Suffix(4)},
	}
	multi, err := multipass.RunPipeline(ctx, src, multipass.Config{
		Passes:          passes,
		Strategy:        core.PairRange{},
		PreparedMatcher: matcher,
		R:               4,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("single-pass (prefix):      %d comparisons, %d matches\n",
		single.Comparisons, len(single.Matches))
	fmt.Printf("multi-pass (prefix+suffix): %d candidates shuffled, %d matches\n",
		multi.Comparisons, len(multi.Matches))
	fmt.Printf("redundancy overhead of the blocking: %.2fx\n",
		multipass.Overhead(entities, passes))

	fmt.Println("\nduplicates only multi-pass finds (typo in the prefix):")
	seen := make(map[core.MatchPair]bool)
	for _, p := range single.Matches {
		seen[p] = true
	}
	byID := make(map[string]string)
	for _, e := range entities {
		byID[e.ID] = e.Attr("title")
	}
	for _, p := range multi.Matches {
		if !seen[p] {
			fmt.Printf("  %s (%q) == %s (%q)\n", p.A, byID[p.A], p.B, byID[p.B])
		}
	}
}

func catalog() []entity.Entity {
	titles := map[string]string{
		"p1": "thinkpad x1 carbon gen 9",
		"p2": "thinkpad x1 carbon gen 9 ", // trailing space: same prefix & suffix
		"p3": "thinkpad x1 yoga gen 6",
		"p4": "macbook pro 14 inch m1",
		"p5": "nacbook pro 14 inch m1", // typo in prefix: only the suffix pass blocks it with p4
		"p6": "dell xps 13 plus",
		"p7": "bell xps 13 plus", // prefix typo again
		"p8": "asus zenbook 14 oled",
	}
	var es []entity.Entity
	for id, title := range titles {
		es = append(es, entity.New(id, "title", title))
	}
	entity.SortByAttr(es, "title") // deterministic iteration
	return entity.SortByAttr(es, "title")
}
