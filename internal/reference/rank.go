package reference

import (
	"math"
	"sort"

	"xks/internal/dewey"
)

// Score is the XRank-style fragment score of rank.Scorer written over Dewey
// codes, with the scorer's Decay and IDF passed in: root is the fragment
// root, events its keyword nodes with their match masks, and words the query
// keywords in mask-bit order. Higher is better. A decay outside (0,1] means
// 0.8 and a nil idf weighs every word 1, as the scorer does.
// rank.IncrementalScorer folds the same floating-point operations in the
// same order, so production scores are bit-identical to this one.
func Score(decay float64, idf func(string) float64, root dewey.Code, events []Event, words []string) float64 {
	if decay <= 0 || decay > 1 {
		decay = 0.8
	}
	weight := func(w string) float64 {
		if idf == nil {
			return 1
		}
		return idf(w)
	}
	// Per keyword, take the best (closest to the root) occurrence and add a
	// small bonus for additional occurrences, so a fragment with the same
	// best occurrences but more support ranks higher.
	best := make([]float64, len(words))
	extra := make([]float64, len(words))
	for _, ev := range events {
		dist := len(ev.Code) - len(root)
		if dist < 0 {
			dist = 0
		}
		w := math.Pow(decay, float64(dist))
		for i := range words {
			if ev.Mask&(1<<uint(i)) == 0 {
				continue
			}
			contrib := w * weight(words[i])
			if contrib > best[i] {
				extra[i] += best[i]
				best[i] = contrib
			} else {
				extra[i] += contrib
			}
		}
	}
	score := 0.0
	for i := range words {
		score += best[i] + 0.1*extra[i]
	}
	return score
}

// Ranked pairs an index into a fragment list with its score.
type Ranked struct {
	Index int
	Score float64
}

// Order returns the fragment indices ordered by descending score, breaking
// ties by ascending index (document order).
func Order(scores []float64) []Ranked {
	out := make([]Ranked, len(scores))
	for i, s := range scores {
		out[i] = Ranked{Index: i, Score: s}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Score > out[j].Score })
	return out
}
