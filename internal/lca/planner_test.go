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

func drain(m *Merger) []IDEvent {
	var out []IDEvent
	for {
		ev, ok := m.Next()
		if !ok {
			return out
		}
		out = append(out, ev)
	}
}

// The merged, coalesced event stream must be identical for every loser-tree
// leaf permutation: rarest-first ordering is output-neutral by construction.
func TestOrderedMergerStreamIndependentOfOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 100; trial++ {
		k := 1 + rng.Intn(6)
		_, sets := randomIDSets(rng, 20+rng.Intn(200), k)
		want := drain(NewMergerOrdered(sets, nil))
		order := rng.Perm(k)
		got := drain(NewMergerOrdered(sets, order))
		if len(got) != len(want) {
			t.Fatalf("trial %d order %v: %d events, want %d", trial, order, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d order %v: event %d = %+v, want %+v", trial, order, i, got[i], want[i])
			}
		}
	}
}

// SkipTo must behave exactly like draining events below the target.
func TestMergerSkipToMatchesDrain(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 100; trial++ {
		k := 1 + rng.Intn(5)
		tab, sets := randomIDSets(rng, 20+rng.Intn(150), k)
		target := nid.ID(rng.Intn(tab.Len() + 1))

		ref := NewMergerOrdered(sets, nil)
		var want []IDEvent
		for {
			ev, ok := ref.Next()
			if !ok {
				break
			}
			if ev.ID >= target {
				want = append(want, ev)
			}
		}

		var order []int
		if rng.Intn(2) == 0 {
			order = rng.Perm(k)
		}
		m := NewMergerOrdered(sets, order)
		// Consume a random prefix (still below target) before skipping, so
		// SkipTo is exercised mid-stream, not only from the start.
		for i := rng.Intn(4); i > 0; i-- {
			ev, ok := m.Next()
			if !ok || ev.ID >= target {
				goto fresh // prefix crossed the target; restart plain
			}
		}
		m.SkipTo(target)
		if got := drain(m); !sameEvents(got, want) {
			t.Fatalf("trial %d: SkipTo(%d) stream diverged", trial, target)
		}
		continue
	fresh:
		m = NewMergerOrdered(sets, order)
		m.SkipTo(target)
		if got := drain(m); !sameEvents(got, want) {
			t.Fatalf("trial %d: SkipTo(%d) from start diverged", trial, target)
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
