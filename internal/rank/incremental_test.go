package rank

import (
	"math"
	"math/rand"
	"testing"

	"xks/internal/dewey"
	"xks/internal/lca"
	"xks/internal/nid"
	"xks/internal/reference"
)

// The incremental scorer must be bit-identical to the Dewey-code reference
// score when fed the same events in the same order — every ranked request
// depends on it.
func TestIncrementalMatchesScoreIDsBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.Intn(6)
		words := make([]string, k)
		idf := make(map[string]float64, k)
		for i := range words {
			words[i] = string(rune('a' + i))
			idf[words[i]] = rng.Float64() * 5
		}
		s := &Scorer{
			Decay: 0.5 + rng.Float64()/2,
			IDF:   func(w string) float64 { return idf[w] },
		}

		codes := make([]dewey.Code, 0, 40)
		for i := 0; i < 40; i++ {
			depth := 1 + rng.Intn(6)
			c := make(dewey.Code, depth)
			for d := range c {
				c[d] = uint32(rng.Intn(3) + 1)
			}
			codes = append(codes, c)
		}
		tab := nid.FromCodes(codes)
		root := nid.ID(rng.Intn(tab.Len()))
		events := make([]lca.IDEvent, 1+rng.Intn(20))
		for i := range events {
			events[i] = lca.IDEvent{
				ID:   nid.ID(rng.Intn(tab.Len())),
				Mask: uint64(rng.Intn(1<<k-1) + 1),
			}
		}

		codeEvents := make([]reference.Event, len(events))
		for i, ev := range events {
			codeEvents[i] = reference.Event{Code: tab.Code(ev.ID), Mask: ev.Mask}
		}
		want := reference.Score(s.Decay, s.IDF, tab.Code(root), codeEvents, words)

		inc := s.Incremental(words)
		best := make([]float64, inc.K())
		extra := make([]float64, inc.K())
		rootDepth := tab.Depth(root)
		for _, ev := range events {
			inc.Update(best, extra, int(tab.Depth(ev.ID)-rootDepth), ev.Mask)
		}
		got := inc.Finish(best, extra)

		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: incremental score %v != reference %v (bitwise)", trial, got, want)
		}
		if wrapped := s.ScoreIDs(tab, root, events, words); math.Float64bits(wrapped) != math.Float64bits(want) {
			t.Fatalf("trial %d: ScoreIDs %v != reference %v (bitwise)", trial, wrapped, want)
		}
	}
}
