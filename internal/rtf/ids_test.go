package rtf

import (
	"context"
	"math/rand"
	"testing"

	"xks/internal/dewey"
	"xks/internal/lca"
	"xks/internal/nid"
	"xks/internal/reference"
)

// TestBuildIDsMatchesBuild cross-checks the ID dispatch against the
// code-based Build over random posting sets: same roots, same partitions,
// same masks, in the same order.
// buildIDs is getRTF as a pass of its own, in query order and without
// skipping or cancellation: the tests' reference for the producers requests
// run.
func buildIDs(t *nid.Table, lcas []nid.ID, sets [][]nid.ID) []*IDRTF {
	out, _ := BuildIDsPlanned(context.Background(), t, lcas, sets, nil, false)
	return out
}

func TestBuildIDsMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 1000; trial++ {
		k := 1 + rng.Intn(3)
		sets := randomSets(rng, k)

		var all []dewey.Code
		for _, s := range sets {
			all = append(all, s...)
		}
		tab := nid.FromCodes(all)
		idSets := make([][]nid.ID, len(sets))
		for i, s := range sets {
			for _, c := range s {
				id, ok := tab.Find(c)
				if !ok {
					t.Fatalf("code %s missing from table", c)
				}
				idSets[i] = append(idSets[i], id)
			}
		}

		roots := reference.ELCAStackMerge(sets)
		idRoots, _ := lca.ELCAStackMergeIDsOrderedCtx(context.Background(), tab, idSets, nil)

		want := reference.Build(roots, sets)
		got := buildIDs(tab, idRoots, idSets)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d fragments vs %d", trial, len(got), len(want))
		}
		for i := range got {
			if !dewey.Equal(tab.Code(got[i].Root), want[i].Root) {
				t.Fatalf("trial %d fragment %d: root %s vs %s",
					trial, i, tab.Code(got[i].Root), want[i].Root)
			}
			if len(got[i].KeywordNodes) != len(want[i].KeywordNodes) {
				t.Fatalf("trial %d fragment %d: %d keyword nodes vs %d",
					trial, i, len(got[i].KeywordNodes), len(want[i].KeywordNodes))
			}
			for j, ev := range got[i].KeywordNodes {
				ref := want[i].KeywordNodes[j]
				if !dewey.Equal(tab.Code(ev.ID), ref.Code) || ev.Mask != ref.Mask {
					t.Fatalf("trial %d fragment %d event %d: (%s, %b) vs (%s, %b)",
						trial, i, j, tab.Code(ev.ID), ev.Mask, ref.Code, ref.Mask)
				}
			}
			if got[i].Mask() != want[i].Mask() {
				t.Fatalf("trial %d fragment %d: mask %b vs %b", trial, i, got[i].Mask(), want[i].Mask())
			}
		}
	}
}
