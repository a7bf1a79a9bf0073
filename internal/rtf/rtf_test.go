package rtf

import (
	"math/rand"
	"slices"
	"testing"

	"xks/internal/analysis"
	"xks/internal/dewey"
	"xks/internal/index"
	"xks/internal/lca"
	"xks/internal/reference"
)

func setsFor(t *testing.T, query string, pub bool) [][]dewey.Code {
	t.Helper()
	tree := reference.Publications()
	if !pub {
		tree = reference.Team()
	}
	_, sets, err := reference.KeywordSets(index.Build(tree, analysis.New()), query)
	if err != nil {
		t.Fatalf("KeywordSets(%q): %v", query, err)
	}
	return sets
}

func buildFor(t *testing.T, query string, pub bool) []*reference.RTF {
	sets := setsFor(t, query, pub)
	return reference.Build(reference.ELCAStackMerge(sets), sets)
}

func roots(rs []*reference.RTF) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.Root.String()
	}
	return out
}

func knodeStrings(r *reference.RTF) []string {
	out := make([]string, len(r.KeywordNodes))
	for i, ev := range r.KeywordNodes {
		out[i] = ev.Code.String()
	}
	return out
}

func equalStrings(a, b []string) bool {
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

// Paper, Example 4: for "Liu Keyword" on Figure 1(a) the two RTF partitions
// are {r} (rooted at the ref node) and {n, t, a} (rooted at article 0.2.0).
func TestExample4Partitions(t *testing.T) {
	rs := buildFor(t, reference.QLiuKeyword, true)
	if !equalStrings(roots(rs), []string{"0.2.0", "0.2.0.3.0"}) {
		t.Fatalf("roots = %v", roots(rs))
	}
	if !equalStrings(knodeStrings(rs[0]), []string{"0.2.0.0.0.0", "0.2.0.1", "0.2.0.2"}) {
		t.Errorf("article partition = %v", knodeStrings(rs[0]))
	}
	if !equalStrings(knodeStrings(rs[1]), []string{"0.2.0.3.0"}) {
		t.Errorf("ref partition = %v", knodeStrings(rs[1]))
	}
}

// The brute-force Definition 1+2 enumeration agrees with getRTF on the
// paper's running example.
func TestExample4BruteForceAgrees(t *testing.T) {
	sets := setsFor(t, reference.QLiuKeyword, true)
	fast := reference.Build(reference.ELCAStackMerge(sets), sets)
	slow := reference.BruteForce(sets)
	if len(fast) != len(slow) {
		t.Fatalf("fast %v vs brute %v", roots(fast), roots(slow))
	}
	for i := range fast {
		if !dewey.Equal(fast[i].Root, slow[i].Root) {
			t.Fatalf("root %d: %s vs %s", i, fast[i].Root, slow[i].Root)
		}
		if !equalStrings(knodeStrings(fast[i]), knodeStrings(slow[i])) {
			t.Errorf("partition %d: %v vs %v", i, knodeStrings(fast[i]), knodeStrings(slow[i]))
		}
	}
}

// Paper, Example 3: ECTQ for "Liu Keyword" has 11 elements (not 21, because
// the ref node occurs in both posting lists).
func TestExample3ECTQCount(t *testing.T) {
	sets := setsFor(t, reference.QLiuKeyword, true)
	combos := reference.EnumerateECTQ(sets)
	if len(combos) != 11 {
		t.Fatalf("|ECTQ| = %d, want 11", len(combos))
	}
	// Every combination covers both keywords.
	for _, v := range combos {
		if !meets(v, sets[0]) || !meets(v, sets[1]) {
			t.Errorf("combination %v misses a keyword", v)
		}
	}
}

// Paper, Example 6: the single RTF for Q3 holds all five keyword nodes.
func TestExample6RTF(t *testing.T) {
	rs := buildFor(t, reference.Q3, true)
	if !equalStrings(roots(rs), []string{"0"}) {
		t.Fatalf("roots = %v", roots(rs))
	}
	want := []string{"0.0", "0.2.0.1", "0.2.0.2", "0.2.0.3.0", "0.2.1.1"}
	if !equalStrings(knodeStrings(rs[0]), want) {
		t.Errorf("knodes = %v, want %v", knodeStrings(rs[0]), want)
	}
	// Figure 2(c): the raw RTF node set.
	wantPaths := []string{"0", "0.0", "0.2", "0.2.0", "0.2.0.1", "0.2.0.2", "0.2.0.3", "0.2.0.3.0", "0.2.1", "0.2.1.1"}
	var got []string
	for _, c := range rs[0].PathNodes() {
		got = append(got, c.String())
	}
	if !equalStrings(got, wantPaths) {
		t.Errorf("path nodes = %v, want %v", got, wantPaths)
	}
}

// Q2 yields the two fragments of Figures 2(a) and 2(b); only the ref one is
// SLCA-rooted.
func TestQ2SLCAFlag(t *testing.T) {
	rs := buildFor(t, reference.Q2, true)
	if !equalStrings(roots(rs), []string{"0.2.0", "0.2.0.3.0"}) {
		t.Fatalf("roots = %v", roots(rs))
	}
	all := []dewey.Code{rs[0].Root, rs[1].Root}
	if rs[0].IsSLCA(all) {
		t.Error("article fragment should not be SLCA-rooted")
	}
	if !rs[1].IsSLCA(all) {
		t.Error("ref fragment should be SLCA-rooted")
	}
}

// Q4 on the team: single RTF rooted at team with the Grizzlies name node and
// the three position nodes (Figure 3(d) raw content).
func TestQ4TeamRTF(t *testing.T) {
	rs := buildFor(t, reference.Q4, false)
	if !equalStrings(roots(rs), []string{"0"}) {
		t.Fatalf("roots = %v", roots(rs))
	}
	want := []string{"0.0", "0.1.0.1", "0.1.1.1", "0.1.2.1"}
	if !equalStrings(knodeStrings(rs[0]), want) {
		t.Errorf("knodes = %v, want %v", knodeStrings(rs[0]), want)
	}
}

func TestBuildEmpty(t *testing.T) {
	if got := reference.Build(nil, nil); got != nil {
		t.Errorf("Build(nil,nil) = %v", got)
	}
	if got := reference.BruteForce(nil); got != nil {
		t.Errorf("BruteForce(nil) = %v", got)
	}
	if got := reference.BruteForce([][]dewey.Code{{}}); got != nil {
		t.Errorf("BruteForce with empty list = %v", got)
	}
}

func TestMask(t *testing.T) {
	r := &reference.RTF{Root: dewey.MustParse("0"), KeywordNodes: []reference.Event{
		{Code: dewey.MustParse("0.1"), Mask: 1},
		{Code: dewey.MustParse("0.2"), Mask: 2},
	}}
	if r.Mask() != 3 {
		t.Errorf("Mask = %b", r.Mask())
	}
}

// meets reports whether the combination v holds a node of the posting list.
func meets(v, list []dewey.Code) bool {
	return slices.ContainsFunc(v, func(c dewey.Code) bool {
		return slices.ContainsFunc(list, func(x dewey.Code) bool { return dewey.Equal(x, c) })
	})
}

func randomSets(rng *rand.Rand, k int) [][]dewey.Code {
	sets := make([][]dewey.Code, k)
	for i := range sets {
		n := 1 + rng.Intn(3)
		m := map[string]dewey.Code{}
		for j := 0; j < n; j++ {
			depth := 1 + rng.Intn(4)
			c := make(dewey.Code, depth+1)
			c[0] = 0
			for d := 1; d <= depth; d++ {
				c[d] = uint32(rng.Intn(3))
			}
			m[reference.Key(c)] = c
		}
		for _, c := range m {
			sets[i] = append(sets[i], c)
		}
		dewey.Sort(sets[i])
	}
	return sets
}

// Invariants of the partition produced by Build (the paper's keyword /
// uniqueness / completeness requirements):
//  1. every RTF covers all keywords;
//  2. roots are unique, partitions disjoint;
//  3. each RTF's keyword node set has LCA equal to its root;
//  4. a keyword node is always dispatched to the deepest interesting LCA
//     that is its ancestor-or-self.
func TestBuildInvariantsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 2000; trial++ {
		k := 1 + rng.Intn(3)
		sets := randomSets(rng, k)
		lcas := reference.ELCAStackMerge(sets)
		rs := reference.Build(lcas, sets)
		full := lca.FullMask(k)

		seenRoot := map[string]bool{}
		seenNode := map[string]string{}
		for _, r := range rs {
			if r.Mask() != full {
				t.Fatalf("trial %d: RTF %s misses keywords: %b", trial, r.Root, r.Mask())
			}
			if seenRoot[reference.Key(r.Root)] {
				t.Fatalf("trial %d: duplicate root %s", trial, r.Root)
			}
			seenRoot[reference.Key(r.Root)] = true
			var all []dewey.Code
			for _, ev := range r.KeywordNodes {
				if prev, dup := seenNode[reference.Key(ev.Code)]; dup {
					t.Fatalf("trial %d: node %s in partitions %s and %s", trial, ev.Code, prev, r.Root)
				}
				seenNode[reference.Key(ev.Code)] = r.Root.String()
				all = append(all, ev.Code)
			}
			if got := reference.LCAAll(all...); !dewey.Equal(got, r.Root) {
				t.Fatalf("trial %d: LCA of partition = %s, root = %s", trial, got, r.Root)
			}
		}

		// Dispatch depth check: every keyword node in a partition must have
		// its deepest interesting-LCA ancestor equal to that partition root.
		for _, r := range rs {
			for _, ev := range r.KeywordNodes {
				var deepest dewey.Code
				for _, a := range lcas {
					if reference.IsAncestorOrSelf(a, ev.Code) && (deepest == nil || len(a) > len(deepest)) {
						deepest = a
					}
				}
				if !dewey.Equal(deepest, r.Root) {
					t.Fatalf("trial %d: node %s dispatched to %s, deepest LCA is %s", trial, ev.Code, r.Root, deepest)
				}
			}
		}
	}
}

// PathNodes always forms an ancestor-closed set rooted at the RTF root.
func TestPathNodesAncestorClosed(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 500; trial++ {
		sets := randomSets(rng, 1+rng.Intn(3))
		rs := reference.Build(reference.ELCAStackMerge(sets), sets)
		for _, r := range rs {
			nodes := r.PathNodes()
			keep := map[string]bool{}
			for _, c := range nodes {
				keep[reference.Key(c)] = true
			}
			if !keep[reference.Key(r.Root)] {
				t.Fatalf("trial %d: root missing from PathNodes", trial)
			}
			for _, c := range nodes {
				if len(c) > len(r.Root) {
					if !keep[reference.Key(c[:len(c)-1])] {
						t.Fatalf("trial %d: parent of %s missing", trial, c)
					}
				}
			}
		}
	}
}

func BenchmarkBuild(b *testing.B) {
	tab, sets, roots := randomDispatchInput(rand.New(rand.NewSource(9)), 6000, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buildIDs(tab, roots, sets)
	}
}
