package lca

import (
	"math/rand"
	"testing"

	"xks/internal/analysis"
	"xks/internal/dewey"
	"xks/internal/index"
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

func codeStrings(cs []dewey.Code) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = c.String()
	}
	return out
}

func wantCodes(t *testing.T, got []dewey.Code, want ...string) {
	t.Helper()
	gs := codeStrings(got)
	if len(gs) != len(want) {
		t.Fatalf("got %v, want %v", gs, want)
	}
	for i := range gs {
		if gs[i] != want[i] {
			t.Fatalf("got %v, want %v", gs, want)
		}
	}
}

// Paper, Example 1 [SLCA vs LCA]: for Q2 on Figure 1(a) the SLCA is the ref
// node 0.2.0.3.0 and the article 0.2.0 is an additional interesting LCA.
func TestQ2SLCAAndELCA(t *testing.T) {
	sets := setsFor(t, reference.Q2, true)
	wantCodes(t, reference.SLCA(sets), "0.2.0.3.0")
	for name, f := range elcaImpls() {
		wantCodes(t, f(sets), "0.2.0", "0.2.0.3.0")
		_ = name
	}
}

// Paper, Example 1/6: for Q3 the only interesting LCA (and SLCA) is the root.
func TestQ3RootOnly(t *testing.T) {
	sets := setsFor(t, reference.Q3, true)
	wantCodes(t, reference.SLCA(sets), "0")
	for _, f := range elcaImpls() {
		wantCodes(t, f(sets), "0")
	}
}

// Paper, Example 2 [false positive]: for Q1 the only SLCA is article 0.2.1.
func TestQ1SLCA(t *testing.T) {
	sets := setsFor(t, reference.Q1, true)
	wantCodes(t, reference.SLCA(sets), "0.2.1")
	for _, f := range elcaImpls() {
		wantCodes(t, f(sets), "0.2.1")
	}
}

// Paper, Example 2 [redundancy]: Q4 "Grizzlies position" on the team
// segment; the root is the only LCA.
func TestQ4TeamRoot(t *testing.T) {
	sets := setsFor(t, reference.Q4, false)
	wantCodes(t, reference.SLCA(sets), "0")
	for _, f := range elcaImpls() {
		wantCodes(t, f(sets), "0")
	}
}

// For Q5 "Grizzlies Gassol position" only the team root contains all three
// keywords.
func TestQ5TeamRoot(t *testing.T) {
	sets := setsFor(t, reference.Q5, false)
	wantCodes(t, reference.SLCA(sets), "0")
	for _, f := range elcaImpls() {
		wantCodes(t, f(sets), "0")
	}
}

// Without the team name ("Gassol position") the player node 0.1.0 is the
// only interesting LCA: the root is all-containing but its sole "Gassol"
// witness lies under the all-containing player node, so it is excluded.
func TestGassolPositionPlayerOnly(t *testing.T) {
	sets := setsFor(t, "Gassol position", false)
	wantCodes(t, reference.SLCA(sets), "0.1.0")
	for _, f := range elcaImpls() {
		wantCodes(t, f(sets), "0.1.0")
	}
}

// elcaImpls are the ELCA computations the paper-query tests hold to the same
// answer: the two references and the production stack merge on node IDs.
func elcaImpls() map[string]func([][]dewey.Code) []dewey.Code {
	return map[string]func([][]dewey.Code) []dewey.Code{
		"stack": reference.ELCAStackMerge,
		"naive": reference.ELCANaive,
		"ids": func(sets [][]dewey.Code) []dewey.Code {
			h := harness(sets)
			return h.codesOf(elcaIDs(h.tab, h.sets))
		},
	}
}

func TestEmptyInputs(t *testing.T) {
	if got := reference.SLCA(nil); got != nil {
		t.Errorf("SLCA(nil) = %v", got)
	}
	empty := [][]dewey.Code{{dewey.MustParse("0.1")}, {}}
	if got := reference.SLCA(empty); got != nil {
		t.Errorf("SLCA with empty list = %v", got)
	}
	for name, f := range elcaImpls() {
		if got := f(nil); got != nil {
			t.Errorf("%s(nil) = %v", name, got)
		}
		if got := f(empty); got != nil {
			t.Errorf("%s with empty list = %v", name, got)
		}
	}
}

func TestSingleKeyword(t *testing.T) {
	// With one keyword every keyword node is its own SLCA unless it has a
	// keyword-node descendant.
	sets := [][]dewey.Code{{
		dewey.MustParse("0.1"),
		dewey.MustParse("0.1.2"),
		dewey.MustParse("0.3"),
	}}
	wantCodes(t, reference.SLCA(sets), "0.1.2", "0.3")
	// ELCA additionally keeps 0.1: its own occurrence is a witness not
	// contained in any all-containing descendant... 0.1 itself matches, and
	// the occurrence at 0.1 is not under 0.1.2.
	for _, f := range elcaImpls() {
		wantCodes(t, f(sets), "0.1", "0.1.2", "0.3")
	}
}

func TestMergeSets(t *testing.T) {
	sets := [][]dewey.Code{
		{dewey.MustParse("0.1"), dewey.MustParse("0.3")},
		{dewey.MustParse("0.1"), dewey.MustParse("0.2")},
	}
	ev := reference.MergeSets(sets)
	if len(ev) != 3 {
		t.Fatalf("MergeSets len = %d, want 3", len(ev))
	}
	if ev[0].Code.String() != "0.1" || ev[0].Mask != 3 {
		t.Errorf("ev[0] = %v mask %b", ev[0].Code, ev[0].Mask)
	}
	if ev[1].Code.String() != "0.2" || ev[1].Mask != 2 {
		t.Errorf("ev[1] = %v mask %b", ev[1].Code, ev[1].Mask)
	}
	if ev[2].Code.String() != "0.3" || ev[2].Mask != 1 {
		t.Errorf("ev[2] = %v mask %b", ev[2].Code, ev[2].Mask)
	}
}

func TestFullMask(t *testing.T) {
	if FullMask(0) != 0 {
		t.Error("FullMask(0)")
	}
	if FullMask(3) != 0b111 {
		t.Error("FullMask(3)")
	}
	if FullMask(64) != ^uint64(0) {
		t.Error("FullMask(64)")
	}
	if FullMask(100) != ^uint64(0) {
		t.Error("FullMask(100)")
	}
}

// randomSets builds k random posting lists over a synthetic tree universe.
func randomSets(rng *rand.Rand, k int) [][]dewey.Code {
	sets := make([][]dewey.Code, k)
	for i := range sets {
		n := 1 + rng.Intn(6)
		m := map[string]dewey.Code{}
		for j := 0; j < n; j++ {
			depth := 1 + rng.Intn(5)
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

// Property: the ELCA stack merge agrees with the naive definition, and SLCA
// with its naive reference, over thousands of random inputs.
func TestImplementationsAgreeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 3000; trial++ {
		k := 1 + rng.Intn(4)
		sets := randomSets(rng, k)

		slcaFast := reference.SLCA(sets)
		slcaRef := reference.SLCANaive(sets)
		assertSame(t, trial, "SLCA", slcaFast, slcaRef, sets)

		stack := reference.ELCAStackMerge(sets)
		naive := reference.ELCANaive(sets)
		assertSame(t, trial, "ELCA stack vs naive", stack, naive, sets)
	}
}

func assertSame(t *testing.T, trial int, what string, got, want []dewey.Code, sets [][]dewey.Code) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("trial %d %s: got %v want %v (sets %v)", trial, what, codeStrings(got), codeStrings(want), sets)
	}
	for i := range got {
		if !dewey.Equal(got[i], want[i]) {
			t.Fatalf("trial %d %s: got %v want %v (sets %v)", trial, what, codeStrings(got), codeStrings(want), sets)
		}
	}
}

// Property: every SLCA is an ELCA, and every ELCA contains all keywords.
func TestSLCASubsetOfELCA(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 1000; trial++ {
		sets := randomSets(rng, 1+rng.Intn(3))
		slcas := reference.SLCA(sets)
		elcas := reference.ELCAStackMerge(sets)
		em := map[string]bool{}
		for _, e := range elcas {
			em[reference.Key(e)] = true
		}
		for _, s := range slcas {
			if !em[reference.Key(s)] {
				t.Fatalf("trial %d: SLCA %s not in ELCA set %v", trial, s, codeStrings(elcas))
			}
		}
		for _, e := range elcas {
			for i, set := range sets {
				found := false
				for _, x := range set {
					if reference.IsAncestorOrSelf(e, x) {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("trial %d: ELCA %s misses keyword %d", trial, e, i)
				}
			}
		}
	}
}

// Property: SLCAs form an antichain (no SLCA is an ancestor of another).
func TestSLCAAntichain(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 1000; trial++ {
		sets := randomSets(rng, 1+rng.Intn(3))
		slcas := reference.SLCA(sets)
		for i := range slcas {
			for j := range slcas {
				if i != j && reference.IsAncestor(slcas[i], slcas[j]) {
					t.Fatalf("trial %d: SLCA %s is ancestor of SLCA %s", trial, slcas[i], slcas[j])
				}
			}
		}
	}
}

func BenchmarkSLCA(b *testing.B) {
	h := harness(benchmarkSets(rand.New(rand.NewSource(5)), 3, 2000))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slcaIDs(h.tab, h.sets)
	}
}

func BenchmarkELCAStackMerge(b *testing.B) {
	h := harness(benchmarkSets(rand.New(rand.NewSource(5)), 3, 2000))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		elcaIDs(h.tab, h.sets)
	}
}

func benchmarkSets(rng *rand.Rand, k, n int) [][]dewey.Code {
	sets := make([][]dewey.Code, k)
	for i := range sets {
		m := map[string]dewey.Code{}
		for j := 0; j < n; j++ {
			depth := 2 + rng.Intn(8)
			c := make(dewey.Code, depth+1)
			c[0] = 0
			for d := 1; d <= depth; d++ {
				c[d] = uint32(rng.Intn(10))
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
