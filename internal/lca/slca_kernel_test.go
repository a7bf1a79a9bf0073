package lca

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"xks/internal/delta"
	"xks/internal/dewey"
	"xks/internal/index"
	"xks/internal/nid"
	"xks/internal/planner"
	"xks/internal/reference"
)

// randomTree returns the pre-order codes of a random single-rooted tree of
// about n nodes: each node takes 0..fanout children, down to maxDepth.
func randomTree(rng *rand.Rand, n, fanout, maxDepth int) []dewey.Code {
	codes := []dewey.Code{{0}}
	var grow func(c dewey.Code)
	grow = func(c dewey.Code) {
		if len(c) > maxDepth {
			return
		}
		for i := range rng.Intn(fanout + 1) {
			if len(codes) >= n {
				return
			}
			child := c.Child(uint32(i))
			codes = append(codes, child)
			grow(child)
		}
	}
	for len(codes) < n {
		root := dewey.Code{0, uint32(len(codes))}
		codes = append(codes, root)
		grow(root)
	}
	return codes
}

// kernelSets draws k posting lists over a table of size n: the smallest of
// s1 nodes, the others s1 × a random skew up to maxSkew, capped at the
// table. Some trials plant shared nodes (a node matching several keywords)
// and the document root.
func kernelSets(rng *rand.Rand, n, k, s1, maxSkew int) [][]nid.ID {
	sets := make([][]nid.ID, k)
	shared := nid.ID(rng.Intn(n))
	for i := range sets {
		size := s1
		if i > 0 {
			size = min(n, s1*(1+rng.Intn(maxSkew)))
		}
		seen := map[nid.ID]bool{}
		for len(seen) < size {
			seen[nid.ID(rng.Intn(n))] = true
		}
		if rng.Intn(4) == 0 {
			seen[shared] = true
		}
		if rng.Intn(8) == 0 {
			seen[0] = true
		}
		for id := range seen {
			sets[i] = append(sets[i], id)
		}
		slices.Sort(sets[i])
	}
	return sets
}

// checkKernel compares the kernel, under both of its exported entry points,
// against the code-based Indexed Lookup Eager SLCA and, when naive is set,
// the definition itself.
func checkKernel(t *testing.T, label string, tab *nid.Table, sets [][]nid.ID, naive bool) {
	t.Helper()
	codeSets := make([][]dewey.Code, len(sets))
	for i, s := range sets {
		for _, id := range s {
			codeSets[i] = append(codeSets[i], tab.Code(id))
		}
	}
	want := reference.SLCA(codeSets)
	if naive {
		if ref := reference.SLCANaive(codeSets); !sameCodeSlices(ref, want) {
			t.Fatalf("%s: the references disagree: ILE %v, naive %v", label, want, ref)
		}
	}
	got := make([]dewey.Code, 0, len(want))
	for _, id := range slcaIDs(tab, sets) {
		got = append(got, tab.Code(id))
	}
	if !sameCodeSlices(got, want) {
		t.Fatalf("%s: kernel %v, want %v", label, got, want)
	}
	scan, err := SLCAScanMergeIDsCtx(context.Background(), tab, sets, rand.Perm(len(sets)))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(scan, slcaIDs(tab, sets)) {
		t.Fatalf("%s: the scan-merge entry point diverged", label)
	}
}

// TestSLCAKernelDifferential pits the galloping kernel against the
// references over seeded random trees: skew from 1:1 to 1:10 000, k = 1…9
// (past the kernel's eight stack-held cursors), single-node lists, nodes
// matching several keywords and lists holding the document root.
func TestSLCAKernelDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(2609))
	for trial := range 4000 {
		n := 2 + rng.Intn(300)
		tab := nid.FromCodes(randomTree(rng, n, 1+rng.Intn(5), 1+rng.Intn(8)))
		k := 1 + rng.Intn(9)
		s1 := 1 + rng.Intn(4)
		sets := kernelSets(rng, tab.Len(), k, min(s1, tab.Len()), 1+rng.Intn(20))
		checkKernel(t, fmt.Sprintf("small trial %d (k=%d)", trial, k), tab, sets, n <= 120)
	}
	for trial := range 40 {
		tab := nid.FromCodes(randomTree(rng, 12000+rng.Intn(8000), 2+rng.Intn(6), 3+rng.Intn(10)))
		k := 2 + rng.Intn(8)
		skew := []int{1, 10, 100, 1000, 10000}[trial%5]
		s1 := 1 + rng.Intn(max(1, tab.Len()/skew))
		sets := kernelSets(rng, tab.Len(), k, min(s1, 40), skew)
		checkKernel(t, fmt.Sprintf("large trial %d (k=%d skew=%d)", trial, k, skew), tab, sets, false)
	}
}

// TestSLCAKernelOverDelta runs the kernel over posting lists read through a
// delta overlay — a base index plus tail segments whose lists the snapshot
// serves as merged, shared slices.
func TestSLCAKernelOverDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(2610))
	words := []string{"alpha", "beta", "gamma", "delta", "eps"}
	for trial := range 200 {
		codes := randomTree(rng, 40+rng.Intn(200), 1+rng.Intn(4), 1+rng.Intn(5))
		tab := nid.FromCodes(codes)
		next := uint32(len(codes)) // the root's children are numbered by position
		post := func(ids []nid.ID) map[string][]nid.ID {
			m := map[string][]nid.ID{}
			for _, id := range ids {
				for _, w := range words {
					if rng.Intn(3) == 0 {
						m[w] = append(m[w], id)
					}
				}
			}
			return m
		}
		all := make([]nid.ID, tab.Len())
		for i := range all {
			all[i] = nid.ID(i)
		}
		h := &delta.Head{Tab: tab, Base: new(index.Index).With(tab, post(all[1:]), planner.Stats{})}
		for range 1 + rng.Intn(4) {
			top := dewey.Code{0, next}
			next++
			rec := []dewey.Code{top}
			for c := range rng.Intn(4) {
				rec = append(rec, top.Child(uint32(c)))
			}
			start := nid.ID(tab.Len())
			grown, ids, err := tab.Extend(rec)
			if err != nil {
				t.Fatal(err)
			}
			sg, err := delta.NewSegment(start, nid.ID(grown.Len()), post(ids))
			if err != nil {
				t.Fatal(err)
			}
			tab, h = grown, h.Append(grown, sg)
		}
		snap, err := h.At(tab.Len(), nil)
		if err != nil {
			t.Fatal(err)
		}
		k := 1 + rng.Intn(len(words))
		var sets [][]nid.ID
		for _, w := range rng.Perm(len(words))[:k] {
			if list := snap.LookupIDs(words[w]); len(list) > 0 {
				sets = append(sets, list)
			}
		}
		if snap.Segments() == 0 {
			t.Fatalf("trial %d: no live segment", trial)
		}
		if len(sets) > 0 {
			checkKernel(t, fmt.Sprintf("delta trial %d", trial), snap.Table(), sets, true)
		}
		snap.Release()
	}
}
