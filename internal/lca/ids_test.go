package lca

import (
	"context"
	"math/rand"
	"testing"

	"xks/internal/dewey"
	"xks/internal/nid"
	"xks/internal/reference"
)

// idHarness maps random code posting sets onto a node table so the ID
// implementations can be cross-checked against the code-based references.
type idHarness struct {
	tab  *nid.Table
	sets [][]nid.ID
}

func harness(sets [][]dewey.Code) idHarness {
	var all []dewey.Code
	for _, s := range sets {
		all = append(all, s...)
	}
	tab := nid.FromCodes(all)
	h := idHarness{tab: tab, sets: make([][]nid.ID, len(sets))}
	for i, s := range sets {
		for _, c := range s {
			id, ok := tab.Find(c)
			if !ok {
				panic("code " + c.String() + " missing from the table built over it")
			}
			h.sets[i] = append(h.sets[i], id)
		}
	}
	return h
}

// codesOf maps IDs back to codes; no IDs map to nil, as the references
// return no codes.
func (h idHarness) codesOf(ids []nid.ID) []dewey.Code {
	if len(ids) == 0 {
		return nil
	}
	out := make([]dewey.Code, len(ids))
	for i, id := range ids {
		out[i] = h.tab.Code(id)
	}
	return out
}

func randomCodeSets(rng *rand.Rand, k int) [][]dewey.Code {
	sets := make([][]dewey.Code, k)
	for i := range sets {
		n := 1 + rng.Intn(6)
		for j := 0; j < n; j++ {
			depth := 1 + rng.Intn(4)
			c := make(dewey.Code, depth)
			c[0] = 0
			for l := 1; l < depth; l++ {
				c[l] = uint32(rng.Intn(3))
			}
			sets[i] = append(sets[i], c)
		}
		dewey.Sort(sets[i])
		sets[i] = reference.Dedup(sets[i])
	}
	return sets
}

func sameCodeSlices(a, b []dewey.Code) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !dewey.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestMergerMatchesMergeSets: the mask merge yields exactly the events of the
// materialized reference merge.
func TestMergerMatchesMergeSets(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		sets := randomCodeSets(rng, 1+rng.Intn(5))
		h := harness(sets)
		want := reference.MergeSets(sets)
		var got []reference.Event
		for _, ev := range mergeAll(h.sets) {
			got = append(got, reference.Event{Code: h.tab.Code(ev.ID), Mask: ev.Mask})
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d events, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if !dewey.Equal(got[i].Code, want[i].Code) || got[i].Mask != want[i].Mask {
				t.Fatalf("trial %d event %d: (%s, %b) vs (%s, %b)",
					trial, i, got[i].Code, got[i].Mask, want[i].Code, want[i].Mask)
			}
		}
	}
}

// TestELCAStackMergeIDsMatchesCodes cross-checks the ID stack merge against
// the code-based implementation (itself verified against ELCANaive).
func TestELCAStackMergeIDsMatchesCodes(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 1000; trial++ {
		sets := randomCodeSets(rng, 1+rng.Intn(4))
		h := harness(sets)
		want := reference.ELCAStackMerge(sets)
		got := h.codesOf(elcaIDs(h.tab, h.sets))
		if !sameCodeSlices(got, want) {
			t.Fatalf("trial %d: %v vs %v (sets %v)", trial, got, want, sets)
		}
	}
}

// TestSLCAIDsMatchesCodes cross-checks the ID SLCA against the code-based
// Indexed Lookup Eager implementation.
func TestSLCAIDsMatchesCodes(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 1000; trial++ {
		sets := randomCodeSets(rng, 1+rng.Intn(4))
		h := harness(sets)
		want := reference.SLCA(sets)
		got := h.codesOf(slcaIDs(h.tab, h.sets))
		if !sameCodeSlices(got, want) {
			t.Fatalf("trial %d: %v vs %v (sets %v)", trial, got, want, sets)
		}
	}
}

// elcaIDs runs the ELCA stack merge in query order, uncancelled.
func elcaIDs(t *nid.Table, sets [][]nid.ID) []nid.ID {
	out, _ := ELCAStackMergeIDsOrderedCtx(context.Background(), t, sets, nil)
	return out
}

// slcaIDs runs the SLCA kernel, uncancelled.
func slcaIDs(t *nid.Table, sets [][]nid.ID) []nid.ID {
	out, _ := AppendSLCAIDs(nil, nil, t, sets)
	return out
}

// TestMergerSingleList: the k=1 degenerate shape streams the list as-is.
func TestMergerSingleList(t *testing.T) {
	h := harness([][]dewey.Code{{dewey.MustParse("0.0"), dewey.MustParse("0.1")}})
	m := NewMerge(h.sets)
	defer m.Release()
	m.Window(0, mergeEnd(h.sets))
	for i := 0; i < 2; i++ {
		ev, ok := m.Next()
		if !ok || ev.Mask != 1 {
			t.Fatalf("event %d: ok=%v mask=%b", i, ok, ev.Mask)
		}
	}
	if _, ok := m.Next(); ok {
		t.Fatal("stream should be exhausted")
	}
}
