package lca

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"xks/internal/dewey"
	"xks/internal/nid"
)

// randomIDSets builds a random node table plus k posting lists over it.
func randomIDSets(rng *rand.Rand, nodes, k int) (*nid.Table, [][]nid.ID) {
	codes := make([]dewey.Code, 0, nodes)
	for i := 0; i < nodes; i++ {
		depth := 1 + rng.Intn(6)
		c := make(dewey.Code, depth)
		for d := range c {
			c[d] = uint32(rng.Intn(3) + 1)
		}
		codes = append(codes, c)
	}
	t := nid.FromCodes(codes)
	sets := make([][]nid.ID, k)
	for i := range sets {
		// Skewed sizes: list i holds roughly nodes/(i+1) entries.
		want := t.Len()/(i+1) + 1
		seen := map[nid.ID]bool{}
		for j := 0; j < want; j++ {
			id := nid.ID(rng.Intn(t.Len()))
			if !seen[id] {
				seen[id] = true
				sets[i] = append(sets[i], id)
			}
		}
		slices.Sort(sets[i])
	}
	return t, sets
}

// mergeAll reads the merge of sets over their whole span.
func mergeAll(sets [][]nid.ID) []IDEvent {
	m := NewMerge(sets)
	defer m.Release()
	return appendWindow(m, nil, 0, mergeEnd(sets))
}

// mergeEnd is one past the largest ID of sets.
func mergeEnd(sets [][]nid.ID) nid.ID {
	end := nid.ID(0)
	for _, s := range sets {
		if len(s) > 0 {
			end = max(end, s[len(s)-1]+1)
		}
	}
	return end
}

// The merged stream must not depend on the order the lists come in:
// permuting the lists permutes each event's mask bits and nothing else, so
// the planner's rarest-first order has nothing left to steer.
func TestOrderedMergerStreamIndependentOfOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 100; trial++ {
		k := 1 + rng.Intn(6)
		_, sets := randomIDSets(rng, 20+rng.Intn(200), k)
		want := mergeAll(sets)
		order := rng.Perm(k)
		permuted := make([][]nid.ID, k)
		for i, src := range order {
			permuted[i] = sets[src]
		}
		got := mergeAll(permuted)
		if len(got) != len(want) {
			t.Fatalf("trial %d order %v: %d events, want %d", trial, order, len(got), len(want))
		}
		for i := range want {
			var mask uint64
			for b, src := range order {
				mask |= (got[i].Mask >> uint(b) & 1) << uint(src)
			}
			if got[i].ID != want[i].ID || mask != want[i].Mask {
				t.Fatalf("trial %d order %v: event %d = %+v (mask %b in query order), want %+v", trial, order, i, got[i], mask, want[i])
			}
		}
	}
}

// A window must behave exactly like draining the events below it: after a
// window read only in part (or not at all), the next window yields every
// event at or above its lo, and nothing from the one before.
func TestMergerSkipToMatchesDrain(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 100; trial++ {
		k := 1 + rng.Intn(5)
		tab, sets := randomIDSets(rng, 20+rng.Intn(150), k)
		target := nid.ID(rng.Intn(tab.Len() + 1))
		var want []IDEvent
		for _, ev := range mergeAll(sets) {
			if ev.ID >= target {
				want = append(want, ev)
			}
		}

		m := NewMerge(sets)
		m.Window(0, target)
		for i := rng.Intn(4); i > 0; i-- {
			if ev, ok := m.Next(); ok && ev.ID >= target {
				t.Fatalf("trial %d: event %d read past the window's end %d", trial, ev.ID, target)
			}
		}
		got := appendWindow(m, nil, target, nid.ID(tab.Len()))
		m.Release()
		if !sameEvents(got, want) {
			t.Fatalf("trial %d: window from %d = %v, want %v", trial, target, got, want)
		}
	}
}

func sameEvents(a, b []IDEvent) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// The scan-merge entry point (now the galloping kernel) must equal the
// scan-merge definition of SLCA: the ELCAs with no ELCA proper descendant
// (any deeper all-keyword subtree contains an SLCA, which is always an ELCA).
func TestSLCAScanMergeMatchesIndexed(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 150; trial++ {
		k := 1 + rng.Intn(5)
		tab, sets := randomIDSets(rng, 20+rng.Intn(250), k)
		elcas := elcaIDs(tab, sets)
		var want []nid.ID
		for i, c := range elcas {
			if i+1 == len(elcas) || !tab.IsAncestorOf(c, elcas[i+1]) {
				want = append(want, c)
			}
		}
		var order []int
		if rng.Intn(2) == 0 {
			order = rng.Perm(k)
		}
		got, err := SLCAScanMergeIDsCtx(context.Background(), tab, sets, order)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d SLCAs, want %d (got %v want %v)", trial, len(got), len(want), got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: SLCA %d = %d, want %d", trial, i, got[i], want[i])
			}
		}
	}
}

// The ordered ELCA merge must be output-identical to the query-order merge.
func TestELCAOrderedMatchesUnordered(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 100; trial++ {
		k := 1 + rng.Intn(5)
		tab, sets := randomIDSets(rng, 20+rng.Intn(250), k)
		want := elcaIDs(tab, sets)
		got, err := ELCAStackMergeIDsOrderedCtx(context.Background(), tab, sets, rng.Perm(k))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d ELCAs, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: ELCA %d = %d, want %d", trial, i, got[i], want[i])
			}
		}
	}
}
