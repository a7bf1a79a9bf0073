// Package rank scores meaningful RTFs for result ordering — the ranking the
// paper's conclusion names as future work ("the ranking of the retrieved
// meaningful RTFs is still needed").
//
// The scorer follows the XRank intuition adapted to fragments: each keyword
// occurrence contributes the keyword's inverse document frequency, decayed
// by the occurrence's distance from the fragment root, and occurrences of
// rare keywords near the root dominate. More specific (deeper-rooted)
// fragments additionally win ties because their occurrences sit closer to
// their root.
package rank

import (
	"math"

	"xks/internal/lca"
	"xks/internal/nid"
)

// Scorer assigns scores to fragments.
type Scorer struct {
	// Decay is the per-level attenuation of keyword occurrences below the
	// fragment root, in (0,1]. Defaults to 0.8.
	Decay float64
	// IDF returns the inverse-document-frequency weight of a keyword.
	IDF func(word string) float64
}

// IndexStats is the read surface a scorer needs from an index-like source:
// per-word document frequency and the indexed node count. Both *index.Index
// and a delta snapshot satisfy it.
type IndexStats interface {
	Frequency(word string) int
	NumNodes() int
}

// NewScorerFrom builds a scorer whose IDF derives from the posting-list
// sizes of the given source: idf(w) = log(1 + N/df(w)). Any IndexStats
// source serves, letting snapshot views score with IDF weights reflecting
// exactly the nodes they can see — the same floating-point op order as an
// index freshly rebuilt at that state, so scores stay bit-identical.
func NewScorerFrom(ix IndexStats) *Scorer {
	return &Scorer{
		Decay: 0.8,
		IDF: func(word string) float64 {
			df := float64(ix.Frequency(word))
			if df == 0 {
				return 0
			}
			return math.Log1p(float64(ix.NumNodes()) / df)
		},
	}
}

// ScoreIDs rates one fragment: root is the fragment root, events its
// keyword nodes with their match masks, and words the query keywords in
// mask-bit order. Higher is better. It is the incremental fold over the
// materialized events, for callers holding a whole list; the request path
// folds its own runs into one IncrementalScorer per query instead.
func (s *Scorer) ScoreIDs(t *nid.Table, root nid.ID, events []lca.IDEvent, words []string) float64 {
	inc := s.Incremental(words)
	best, extra := make([]float64, inc.K()), make([]float64, inc.K())
	for _, ev := range events {
		inc.Update(best, extra, int(t.Depth(ev.ID)-t.Depth(root)), ev.Mask)
	}
	return inc.Finish(best, extra)
}

// IncrementalScorer is the one implementation of the score: it scores roots
// one keyword event at a time, without ever materializing the event list —
// the score-without-events dispatch mode folds each event into per-root
// accumulators as the RTF stage streams by, and the unlimited ranked path
// folds each root's run. IDF weights are precomputed per query term, and
// Update/Finish perform exactly the floating-point operations the Dewey-code
// reference.Score performs, in the same order, so for events fed in document
// order the score is bit-identical to it (pinned by tests).
type IncrementalScorer struct {
	decay float64
	idf   []float64
}

// Incremental precomputes the per-term weights for one query. words must be
// in mask-bit order.
func (s *Scorer) Incremental(words []string) *IncrementalScorer {
	decay := s.Decay
	if decay <= 0 || decay > 1 {
		decay = 0.8
	}
	idf := make([]float64, len(words))
	for i, w := range words {
		idf[i] = s.idf(w)
	}
	return &IncrementalScorer{decay: decay, idf: idf}
}

// K returns the number of query terms (the length Update expects of the
// best/extra accumulator slices).
func (sc *IncrementalScorer) K() int { return len(sc.idf) }

// Update folds one keyword event — dist levels below its root, matching the
// masked terms — into the root's accumulators (each of length K, zeroed
// before the first event).
func (sc *IncrementalScorer) Update(best, extra []float64, dist int, mask uint64) {
	if dist < 0 {
		dist = 0
	}
	w := math.Pow(sc.decay, float64(dist))
	for i := range sc.idf {
		if mask&(1<<uint(i)) == 0 {
			continue
		}
		contrib := w * sc.idf[i]
		if contrib > best[i] {
			extra[i] += best[i]
			best[i] = contrib
		} else {
			extra[i] += contrib
		}
	}
}

// Finish collapses the accumulators into the root's final score.
func (sc *IncrementalScorer) Finish(best, extra []float64) float64 {
	score := 0.0
	for i := range sc.idf {
		score += best[i] + 0.1*extra[i]
	}
	return score
}

func (s *Scorer) idf(word string) float64 {
	if s.IDF == nil {
		return 1
	}
	return s.IDF(word)
}
