//go:build !race

package lca

import (
	"context"
	"math/rand"
	"testing"

	"xks/internal/nid"
)

// TestMergeAllocs: the merge's arrays, the ELCA stack and the windows'
// list positions are pooled or on the stack, so once the pool holds a merge
// wide enough, an ELCA dispatch and a windowed merge allocate nothing; the
// loser tree they replace allocated up to five objects a request. The race
// detector's sync.Pool drops entries at random, hence the build tag.
func TestMergeAllocs(t *testing.T) {
	tab, sets := randomIDSets(rand.New(rand.NewSource(51)), 2000, 3)
	n := 0
	for _, s := range sets {
		n += len(s)
	}
	ctx := context.Background()
	roots := make([]nid.ID, 0, n)
	buf := make([]IDEvent, n)
	dispatched := 0
	sink := func(_ nid.ID, events []IDEvent) { dispatched += len(events) }
	elca := func() {
		var err error
		if roots, err = ELCAStackDispatch(ctx, roots[:0], tab, sets, buf, sink); err != nil {
			t.Fatal(err)
		}
	}
	elca()
	if len(roots) == 0 || dispatched == 0 {
		t.Fatalf("%d roots and %d dispatched events; want some of each", len(roots), dispatched)
	}
	if allocs := testing.AllocsPerRun(100, elca); allocs != 0 {
		t.Errorf("a warm ELCA dispatch allocates %v objects, want 0", allocs)
	}

	window := func() {
		m := NewMerge(sets)
		lo, hi := roots[0], tab.SubtreeEnd(roots[0])
		buf = appendWindow(m, buf[:0], lo, hi)
		m.Window(hi, nid.ID(tab.Len())) // abandoned: Release clears it
		m.Release()
	}
	window()
	if allocs := testing.AllocsPerRun(100, window); allocs != 0 {
		t.Errorf("a warm windowed merge allocates %v objects, want 0", allocs)
	}
}
