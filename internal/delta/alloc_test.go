//go:build !race

// Allocation pins (the race detector changes allocation behaviour, so CI
// runs these in its race-free benchmark job).

package delta

import (
	"slices"
	"testing"
)

// TestLookupIDsAllocsNothing: with 64 live segments a lookup of a word every
// one of them touches is a map probe and a cut — at the newest boundary, at
// an older one the shared list has since grown past, and on a head written
// as a literal (once its overlay is built). No merged list is assembled per
// query.
func TestLookupIDsAllocsNothing(t *testing.T) {
	g, base, _ := newGrower(7, 20)
	chained := &Head{Tab: g.tab, Base: base}
	older := chained
	for i := range 64 {
		sg := g.segment(t)
		chained = chained.Append(g.tab, sg)
		if i == 31 {
			older = chained
		}
	}
	literal := &Head{Tab: chained.Tab, Base: base, Segs: slices.Clone(chained.Segs)}
	for name, h := range map[string]*Head{"newest": chained, "older boundary": older, "literal head": literal} {
		s, err := h.At(h.Tab.Len(), nil)
		if err != nil {
			t.Fatal(err)
		}
		touched := 0
		for _, w := range vocab {
			if len(s.LookupIDs(w)) > len(base.LookupIDs(w)) {
				touched++
			}
			if allocs := testing.AllocsPerRun(100, func() { s.LookupIDs(w) }); allocs != 0 {
				t.Errorf("%s: LookupIDs(%q) over %d segments allocates %.0f objects per call, want 0", name, w, s.Segments(), allocs)
			}
			if allocs := testing.AllocsPerRun(100, func() { s.Frequency(w) }); allocs != 0 {
				t.Errorf("%s: Frequency(%q) over %d segments allocates %.0f objects per call, want 0", name, w, s.Segments(), allocs)
			}
		}
		if touched != len(vocab) {
			t.Fatalf("%s: %d of %d words grew past the base; want every word touched", name, touched, len(vocab))
		}
		if allocs := testing.AllocsPerRun(100, func() { s.Stats() }); allocs != 0 {
			t.Errorf("%s: Stats over %d segments allocates %.0f objects per call, want 0", name, s.Segments(), allocs)
		}
	}
}
