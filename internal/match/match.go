// Package match provides ready-made prepared matchers bridging the
// similarity kernels to the core.PreparedMatcher interface. Each matcher
// derives a similarity.Prepared form of one entity attribute exactly
// once per reduce-group membership; the per-pair hot path then runs on
// cached runes, token sets, and n-gram profiles and allocates nothing in
// steady state.
//
// Every constructor returns a core.PreparedMatcher; the serial
// references, which take a plain core.Matcher, wrap it with
// core.PlainMatcher for identical decisions at the per-pair preparation
// cost.
//
// All matchers draw their prepared forms from similarity's free list
// and implement core.PreparedReleaser, so the strategy reducers recycle
// every prepared entity once its reduce group is finished — the
// steady-state matching pipeline allocates no prepared forms at all.
package match

import (
	"repro/internal/core"
	"repro/internal/entity"
	"repro/internal/similarity"
)

// EditDistance matches two entities when the normalized Levenshtein
// similarity of their attr values reaches threshold — the paper's match
// rule (threshold 0.8). The kernel rejects clearly dissimilar pairs with
// length and bag-distance pre-filters before running the banded DP.
func EditDistance(attr string, threshold float64) core.PreparedMatcher {
	return editDistance{attr: attr, th: similarity.NewThresholder(threshold)}
}

type editDistance struct {
	attr string
	th   *similarity.Thresholder
}

func (m editDistance) Prepare(e entity.Entity) core.PreparedEntity {
	return similarity.PreparePooled(e.Attr(m.attr))
}

// ReleasePrepared implements core.PreparedReleaser.
func (editDistance) ReleasePrepared(p core.PreparedEntity) { releasePrepared(p) }

func (m editDistance) MatchPrepared(a, b core.PreparedEntity) (float64, bool) {
	return m.th.Match(a.(*similarity.Prepared), b.(*similarity.Prepared))
}

// TokenJaccard matches two entities when the Jaccard coefficient of the
// lowercase whitespace token sets of their attr values reaches
// threshold.
func TokenJaccard(attr string, threshold float64) core.PreparedMatcher {
	return tokenJaccard{attr: attr, threshold: threshold}
}

type tokenJaccard struct {
	attr      string
	threshold float64
}

func (m tokenJaccard) Prepare(e entity.Entity) core.PreparedEntity {
	p := similarity.PreparePooled(e.Attr(m.attr))
	p.Tokens() // materialize now: comparisons stay read-only
	return p
}

// ReleasePrepared implements core.PreparedReleaser.
func (tokenJaccard) ReleasePrepared(p core.PreparedEntity) { releasePrepared(p) }

func (m tokenJaccard) MatchPrepared(a, b core.PreparedEntity) (float64, bool) {
	sim := similarity.TokenJaccardPrepared(a.(*similarity.Prepared), b.(*similarity.Prepared))
	return sim, sim >= m.threshold
}

// NGramJaccard matches two entities when the multiset Jaccard
// coefficient of the rune n-gram profiles of their attr values reaches
// threshold.
func NGramJaccard(attr string, n int, threshold float64) core.PreparedMatcher {
	if n <= 0 {
		panic("match: NGramJaccard requires n > 0")
	}
	return ngramJaccard{attr: attr, n: n, threshold: threshold}
}

type ngramJaccard struct {
	attr      string
	n         int
	threshold float64
}

func (m ngramJaccard) Prepare(e entity.Entity) core.PreparedEntity {
	p := similarity.PreparePooled(e.Attr(m.attr))
	p.NGramProfile(m.n) // materialize now: comparisons stay read-only
	return p
}

// ReleasePrepared implements core.PreparedReleaser.
func (ngramJaccard) ReleasePrepared(p core.PreparedEntity) { releasePrepared(p) }

func (m ngramJaccard) MatchPrepared(a, b core.PreparedEntity) (float64, bool) {
	sim := similarity.JaccardNGramPrepared(a.(*similarity.Prepared), b.(*similarity.Prepared), m.n)
	return sim, sim >= m.threshold
}

// releasePrepared returns a prepared form to similarity's free list.
func releasePrepared(p core.PreparedEntity) {
	if sp, ok := p.(*similarity.Prepared); ok {
		sp.Release()
	}
}
