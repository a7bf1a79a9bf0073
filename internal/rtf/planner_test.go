package rtf

import (
	"context"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"xks/internal/dewey"
	"xks/internal/lca"
	"xks/internal/nid"
	"xks/internal/rank"
	"xks/internal/reference"
)

// randomDispatchInput builds a random table, k skewed posting lists, and
// the interesting-LCA roots the dispatch runs over.
func randomDispatchInput(rng *rand.Rand, nodes, k int) (*nid.Table, [][]nid.ID, []nid.ID) {
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
		want := t.Len()/(2*i+1) + 1
		seen := map[nid.ID]bool{}
		for j := 0; j < want; j++ {
			id := nid.ID(rng.Intn(t.Len()))
			if !seen[id] {
				seen[id] = true
				sets[i] = append(sets[i], id)
			}
		}
	}
	for i := range sets {
		s := sets[i]
		for a := 1; a < len(s); a++ {
			for b := a; b > 0 && s[b-1] > s[b]; b-- {
				s[b-1], s[b] = s[b], s[b-1]
			}
		}
	}
	roots, _ := lca.ELCAStackMergeIDsOrderedCtx(context.Background(), t, sets, nil)
	return t, sets, roots
}

func sameRTFs(a, b []*IDRTF) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Root != b[i].Root || len(a[i].KeywordNodes) != len(b[i].KeywordNodes) {
			return false
		}
		for j := range a[i].KeywordNodes {
			if a[i].KeywordNodes[j] != b[i].KeywordNodes[j] {
				return false
			}
		}
	}
	return true
}

// naiveDispatch is getRTF by its definition, with no merge: every node of
// some list, with the OR of the bits of the lists holding it, goes to the
// deepest root that is its ancestor-or-self, and the roots whose nodes cover
// the query are kept.
func naiveDispatch(tab *nid.Table, roots []nid.ID, sets [][]nid.ID) []*IDRTF {
	masks := map[nid.ID]uint64{}
	for i, s := range sets {
		for _, id := range s {
			masks[id] |= 1 << uint(i)
		}
	}
	ids := slices.Sorted(maps.Keys(masks))
	var out []*IDRTF
	for _, r := range roots {
		rtf := &IDRTF{Root: r}
		for _, id := range ids {
			deepest := nid.None
			for _, a := range roots {
				if tab.IsAncestorOrSelf(a, id) {
					deepest = a // roots are in pre-order: a later ancestor is deeper
				}
			}
			if deepest == r {
				rtf.KeywordNodes = append(rtf.KeywordNodes, lca.IDEvent{ID: id, Mask: masks[id]})
			}
		}
		if rtf.Mask() == lca.FullMask(len(sets)) {
			out = append(out, rtf)
		}
	}
	return out
}

// The dispatch over merged subtree windows must emit exactly the partitions
// of the definition, whatever merge order and skip flag the planner passes.
func TestBuildIDsPlannedMatchesPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 150; trial++ {
		k := 1 + rng.Intn(5)
		tab, sets, roots := randomDispatchInput(rng, 20+rng.Intn(250), k)
		want := naiveDispatch(tab, roots, sets)
		for _, skip := range []bool{false, true} {
			got, err := BuildIDsPlanned(context.Background(), tab, roots, sets, rng.Perm(k), skip)
			if err != nil {
				t.Fatal(err)
			}
			if !sameRTFs(got, want) {
				t.Fatalf("trial %d skip=%t: planned dispatch diverged", trial, skip)
			}
		}
	}
}

// The scored single-pass build must keep the same covering roots and give
// each the bitwise-identical score the Dewey-code reference gives its
// materialized events.
func TestBuildScoredIDsMatchesMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 150; trial++ {
		k := 1 + rng.Intn(5)
		tab, sets, roots := randomDispatchInput(rng, 20+rng.Intn(250), k)
		words := make([]string, k)
		idf := map[string]float64{}
		for i := range words {
			words[i] = string(rune('a' + i))
			idf[words[i]] = 0.5 + rng.Float64()*4
		}
		scorer := &rank.Scorer{Decay: 0.8, IDF: func(w string) float64 { return idf[w] }}

		want := buildIDs(tab, roots, sets)
		got, err := BuildScoredIDsCtx(context.Background(), tab, roots, sets,
			scorer.Incremental(words), rng.Perm(k), rng.Intn(2) == 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d scored roots, want %d", trial, len(got), len(want))
		}
		for i, s := range got {
			if s.Root != want[i].Root {
				t.Fatalf("trial %d: root %d = %d, want %d", trial, i, s.Root, want[i].Root)
			}
			events := make([]reference.Event, len(want[i].KeywordNodes))
			for j, ev := range want[i].KeywordNodes {
				events[j] = reference.Event{Code: tab.Code(ev.ID), Mask: ev.Mask}
			}
			ref := reference.Score(scorer.Decay, scorer.IDF, tab.Code(want[i].Root), events, words)
			if math.Float64bits(s.Score) != math.Float64bits(ref) {
				t.Fatalf("trial %d root %d: score %v != %v (bitwise)", trial, s.Root, s.Score, ref)
			}
		}
	}
}

// Lazy hydration must reconstruct exactly the event list the eager build
// dispatched to each covering root, over ELCA roots (windows with and
// without nested roots) and SLCA roots, for k up to 9.
func TestEventsForMatchesBuildIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	flat, nested := 0, 0
	// acc hydrates every window back to back, as a page's block does.
	var acc []lca.IDEvent
	for trial := 0; trial < 300; trial++ {
		k := 1 + rng.Intn(9)
		tab, sets, roots := randomDispatchInput(rng, 20+rng.Intn(250), k)
		if trial%2 == 1 {
			roots, _ = lca.SLCAIDsCtx(context.Background(), tab, sets)
		}
		for i, r := range buildIDs(tab, roots, sets) {
			if end := tab.SubtreeEnd(r.Root); i+1 < len(roots) && roots[i+1] < end {
				nested++
			} else {
				flat++
			}
			got := EventsFor(tab, r.Root, roots, sets)
			n := len(acc)
			if acc = AppendEventsFor(acc, tab, r.Root, roots, sets); !slices.Equal(acc[n:], got) {
				t.Fatalf("trial %d root %d: AppendEventsFor appended %v, EventsFor returned %v", trial, r.Root, acc[n:], got)
			}
			if len(got) != len(r.KeywordNodes) {
				t.Fatalf("trial %d root %d: %d events, want %d", trial, r.Root, len(got), len(r.KeywordNodes))
			}
			for j := range got {
				if got[j] != r.KeywordNodes[j] {
					t.Fatalf("trial %d root %d: event %d = %+v, want %+v",
						trial, r.Root, j, got[j], r.KeywordNodes[j])
				}
			}
		}
	}
	if flat == 0 || nested == 0 {
		t.Fatalf("hydrated %d windows without and %d with nested roots; want both shapes", flat, nested)
	}
}
