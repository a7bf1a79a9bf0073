package prune

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"xks/internal/analysis"
	"xks/internal/dewey"
	"xks/internal/index"
	"xks/internal/lca"
	"xks/internal/nid"
	"xks/internal/reference"
	"xks/internal/rtf"
	"xks/internal/xmltree"
)

// code returns node i's Dewey code.
func (f *Fragment) code(i int32) dewey.Code {
	return f.tab.Code(f.s.nodes[i].id)
}

// harness builds all fragments for a query over a tree: the RTFs of the
// Dewey-code getRTF, carried over to the index's node table.
type harness struct {
	tree *xmltree.Tree
	an   *analysis.Analyzer
	tab  *nid.Table
	rtfs []*rtf.IDRTF
}

func newHarness(t *testing.T, tree *xmltree.Tree, query string) *harness {
	t.Helper()
	an := analysis.New()
	ix := index.Build(tree, an)
	_, sets, err := reference.KeywordSets(ix, query)
	if err != nil {
		t.Fatalf("KeywordSets(%q): %v", query, err)
	}
	h := &harness{tree: tree, an: an, tab: ix.Table()}
	id := func(c dewey.Code) nid.ID {
		id, ok := h.tab.Find(c)
		if !ok {
			t.Fatalf("code %s missing from the node table", c)
		}
		return id
	}
	for _, r := range reference.Build(reference.ELCAStackMerge(sets), sets) {
		ir := &rtf.IDRTF{Root: id(r.Root)}
		for _, ev := range r.KeywordNodes {
			ir.KeywordNodes = append(ir.KeywordNodes, lca.IDEvent{ID: id(ev.Code), Mask: ev.Mask})
		}
		h.rtfs = append(h.rtfs, ir)
	}
	return h
}

func (h *harness) labelOf(id nid.ID) string {
	return h.tree.NodeAt(h.tab.Code(id)).Label
}

func (h *harness) contentOf(id nid.ID) []string {
	return h.an.ContentSet(h.tree.NodeAt(h.tab.Code(id)).ContentPieces()...)
}

func (h *harness) fragment(t *testing.T, i int, opts Options) *Fragment {
	t.Helper()
	if i >= len(h.rtfs) {
		t.Fatalf("only %d fragments", len(h.rtfs))
	}
	return BuildFragmentIDs(h.tab, h.rtfs[i], h.labelOf, h.contentOf, opts)
}

func keptStrings(r *Result) []string {
	out := make([]string, len(r.Kept))
	for i, c := range r.Kept {
		out[i] = c.String()
	}
	return out
}

func assertKept(t *testing.T, r *Result, want ...string) {
	t.Helper()
	got := keptStrings(r)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("kept = %v, want %v", got, want)
	}
}

// nodeAt returns the index of the fragment node with the given code, or -1.
func nodeAt(f *Fragment, code string) int32 {
	c := dewey.MustParse(code)
	for i := range f.s.nodes {
		if dewey.Equal(f.code(int32(i)), c) {
			return int32(i)
		}
	}
	return -1
}

func contains(r *Result, code string) bool {
	return slices.ContainsFunc(r.Kept, func(c dewey.Code) bool { return dewey.Equal(c, dewey.MustParse(code)) })
}

func equalKept(a, b *Result) bool {
	return slices.EqualFunc(a.Kept, b.Kept, dewey.Equal)
}

// chkLists returns the Children Info filtering builds for node p: per label
// group in first-occurrence order, the child count and the sorted distinct
// child key numbers.
func chkLists(f *Fragment, p int32) (counts []int32, chk [][]uint64) {
	f.Prune(NoPruning, Options{}) // sizes the working arrays
	f.filter(p, ValidContributor, false)
	for _, g := range f.s.groups {
		var ks []uint64
		for i := g.first; i >= 0; i = f.s.knums[i].next {
			ks = append(ks, f.s.knums[i].k)
		}
		slices.Sort(ks)
		counts, chk = append(counts, g.count), append(chk, ks)
	}
	return counts, chk
}

// sketch renders the fragment's annotated nodes in the style of Figure
// 4(b): code, label, key number and cID per node.
func sketch(f *Fragment, labelOf IDLabelFunc) string {
	var b strings.Builder
	for i, n := range f.s.nodes {
		c := f.code(int32(i))
		fmt.Fprintf(&b, "%s%s (%s) k=%d cID=%s\n", strings.Repeat("  ", len(c)-len(f.code(0))), c, labelOf(n.id), n.klist, f.cid(int32(i)))
	}
	return b.String()
}

// Figure 3(b): the raw RTF for Q1; ValidRTF keeps all of it (rule 1 saves
// the uniquely-labelled title node — no false positive).
func TestQ1ValidRTFKeepsTitle(t *testing.T) {
	h := newHarness(t, reference.Publications(), reference.Q1)
	f := h.fragment(t, 0, Options{})
	res := f.Prune(ValidContributor, Options{})
	assertKept(t, res,
		"0.2.1", "0.2.1.0", "0.2.1.0.0", "0.2.1.0.0.0",
		"0.2.1.0.1", "0.2.1.0.1.0", "0.2.1.1", "0.2.1.2")
}

// Figure 3(c): MaxMatch discards the title node for Q1 (the false positive
// problem: dMatch(title) ⊂ dMatch(abstract)).
func TestQ1MaxMatchDiscardsTitle(t *testing.T) {
	h := newHarness(t, reference.Publications(), reference.Q1)
	f := h.fragment(t, 0, Options{})
	res := f.Prune(Contributor, Options{})
	assertKept(t, res,
		"0.2.1", "0.2.1.0", "0.2.1.0.0", "0.2.1.0.0.0",
		"0.2.1.0.1", "0.2.1.0.1.0", "0.2.1.2")
	if contains(res, "0.2.1.1") {
		t.Error("MaxMatch should discard the title node")
	}
}

// Figure 2(d): the meaningful RTF for Q3 after valid-contributor pruning;
// article 0.2.1 is discarded by rule 2(a), everything on the 0.2.0 branch
// and the VLDB title node are kept.
func TestQ3ValidRTFFigure2d(t *testing.T) {
	h := newHarness(t, reference.Publications(), reference.Q3)
	f := h.fragment(t, 0, Options{})
	res := f.Prune(ValidContributor, Options{})
	assertKept(t, res,
		"0", "0.0", "0.2", "0.2.0", "0.2.0.1", "0.2.0.2", "0.2.0.3", "0.2.0.3.0")
}

// MaxMatch on the Q3 RTF additionally discards the abstract and references
// branches (their keyword sets are strict subsets of the title's),
// illustrating the false positive problem on deeper structures.
func TestQ3MaxMatchOverprunes(t *testing.T) {
	h := newHarness(t, reference.Publications(), reference.Q3)
	f := h.fragment(t, 0, Options{})
	res := f.Prune(Contributor, Options{})
	assertKept(t, res, "0", "0.0", "0.2", "0.2.0", "0.2.0.1")
}

// NoPruning returns the raw RTF (Figure 2(c)).
func TestQ3NoPruning(t *testing.T) {
	h := newHarness(t, reference.Publications(), reference.Q3)
	f := h.fragment(t, 0, Options{})
	res := f.Prune(NoPruning, Options{})
	assertKept(t, res,
		"0", "0.0", "0.2", "0.2.0", "0.2.0.1", "0.2.0.2", "0.2.0.3", "0.2.0.3.0", "0.2.1", "0.2.1.1")
}

// Figure 3(d) → Example 5 [redundancy]: for Q4 ValidRTF keeps one forward
// and one guard player; MaxMatch keeps all three position branches.
func TestQ4RedundancyProblem(t *testing.T) {
	h := newHarness(t, reference.Team(), reference.Q4)
	f := h.fragment(t, 0, Options{})

	valid := f.Prune(ValidContributor, Options{})
	assertKept(t, valid, "0", "0.0", "0.1", "0.1.0", "0.1.0.1", "0.1.1", "0.1.1.1")

	max := f.Prune(Contributor, Options{})
	assertKept(t, max, "0", "0.0", "0.1",
		"0.1.0", "0.1.0.1", "0.1.1", "0.1.1.1", "0.1.2", "0.1.2.1")
}

// Figure 3(a) → Example 5 [positive example]: for Q5 both mechanisms agree
// and return the Gassol fragment inside the team.
func TestQ5PositiveExample(t *testing.T) {
	h := newHarness(t, reference.Team(), reference.Q5)
	f := h.fragment(t, 0, Options{})
	want := []string{"0", "0.0", "0.1", "0.1.0", "0.1.0.0", "0.1.0.1"}
	assertKept(t, f.Prune(ValidContributor, Options{}), want...)
	assertKept(t, f.Prune(Contributor, Options{}), want...)
}

// Q2 produces two fragments; both filtering mechanisms keep them whole
// (Figures 2(a) and 2(b)).
func TestQ2BothFragmentsStable(t *testing.T) {
	h := newHarness(t, reference.Publications(), reference.Q2)
	if len(h.rtfs) != 2 {
		t.Fatalf("want 2 RTFs, got %d", len(h.rtfs))
	}
	art := h.fragment(t, 0, Options{})
	assertKept(t, art.Prune(ValidContributor, Options{}),
		"0.2.0", "0.2.0.0", "0.2.0.0.0", "0.2.0.0.0.0", "0.2.0.1", "0.2.0.2")
	ref := h.fragment(t, 1, Options{})
	assertKept(t, ref.Prune(ValidContributor, Options{}), "0.2.0.3.0")
	if !equalKept(art.Prune(ValidContributor, Options{}), art.Prune(Contributor, Options{})) {
		t.Error("Q2 article fragment should be identical under both mechanisms")
	}
}

// Figure 4(c)-style inspection of the constructed node data structure for
// Q3: key numbers (our bit order: bit i = query keyword i) and label groups.
func TestQ3NodeDataStructure(t *testing.T) {
	h := newHarness(t, reference.Publications(), reference.Q3)
	f := h.fragment(t, 0, Options{})

	// Q3 = vldb(b0) title(b1) xml(b2) keyword(b3) search(b4).
	if k := f.s.nodes[0].klist; k != 0b11111 {
		t.Errorf("root kList = %b, want 11111", k)
	}
	if counts, _ := chkLists(f, 0); len(counts) != 2 {
		t.Fatalf("root label groups = %d, want 2 (title, Articles)", len(counts))
	}

	articles := nodeAt(f, "0.2")
	if k := f.s.nodes[articles].klist; k != 0b11110 {
		t.Errorf("Articles kList = %b, want 11110", k)
	}
	counts, chk := chkLists(f, articles)
	if len(counts) != 1 || counts[0] != 2 {
		t.Fatalf("Articles should have one label group with counter 2, got %v", counts)
	}
	if len(chk[0]) != 2 || chk[0][0] != 0b00010 || chk[0][1] != 0b11110 {
		t.Errorf("chkList = %b, want [10 11110]", chk[0])
	}
	for _, e := range f.s.knums {
		if e.covered != (e.k == 0b00010) {
			t.Errorf("key number %b covered = %v: 2 is covered by 30, the maximal one is not", e.k, e.covered)
		}
	}

	if k := f.s.nodes[nodeAt(f, "0.0")].klist; k != 0b00011 {
		t.Errorf("node 0.0 kList = %b, want 11", k)
	}
}

// cID features: the team players of Q4 have the content features the paper
// derives in Example 5 (lower-cased by our analyzer).
func TestQ4CIDFeatures(t *testing.T) {
	h := newHarness(t, reference.Team(), reference.Q4)
	f := h.fragment(t, 0, Options{})
	p0 := f.cid(nodeAt(f, "0.1.0"))
	if p0 != (CID{Min: "forward", Max: "position"}) {
		t.Errorf("player 0 cID = %s", p0)
	}
	if p1 := f.cid(nodeAt(f, "0.1.1")); p1 != (CID{Min: "guard", Max: "position"}) {
		t.Errorf("player 1 cID = %s", p1)
	}
	if p2 := f.cid(nodeAt(f, "0.1.2")); p2 != p0 {
		t.Errorf("players 0 and 2 should share a cID: %s vs %s", p0, p2)
	}
}

// ExactContent mode agrees with the cID approximation on the paper data and
// still prunes the duplicate forward player.
func TestQ4ExactContent(t *testing.T) {
	h := newHarness(t, reference.Team(), reference.Q4)
	opts := Options{ExactContent: true}
	f := h.fragment(t, 0, opts)
	res := f.Prune(ValidContributor, opts)
	assertKept(t, res, "0", "0.0", "0.1", "0.1.0", "0.1.0.1", "0.1.1", "0.1.1.1")
	p0 := map[string]struct{}{}
	for id := range f.content[nodeAt(f, "0.1.0")] {
		p0[f.column.Words[id]] = struct{}{}
	}
	if _, guard := p0["guard"]; guard || len(p0) == 0 {
		t.Errorf("exact content set wrong for player 0: %v", p0)
	}
	if _, forward := p0["forward"]; !forward {
		t.Errorf("exact content set of player 0 misses its position: %v", p0)
	}
}

// The cID approximation can treat two different content sets as equal; the
// exact mode distinguishes them. This constructs two same-label siblings
// whose content sets differ only in a middle word.
func TestCIDApproximationVsExact(t *testing.T) {
	tree := xmltree.Build(xmltree.E{Label: "root", Kids: []xmltree.E{
		{Label: "tag", Text: "special"},
		{Label: "item", Text: "alpha keyword zebra"},
		{Label: "item", Text: "alpha keyword middle zebra"},
	}})
	h := newHarness(t, tree, "special keyword")
	approx := h.fragment(t, 0, Options{})
	resApprox := approx.Prune(ValidContributor, Options{})
	// Equal kLists and equal cIDs (alpha, zebra): the approximation treats
	// the second item as a duplicate even though "middle" differs.
	assertKept(t, resApprox, "0", "0.0", "0.1")

	exactOpts := Options{ExactContent: true}
	exact := h.fragment(t, 0, exactOpts)
	resExact := exact.Prune(ValidContributor, exactOpts)
	// Exact comparison sees the differing "middle" word and keeps both.
	assertKept(t, resExact, "0", "0.0", "0.1", "0.2")
}

// Root is never pruned, even as a single keyword node fragment.
func TestRootOnlyFragment(t *testing.T) {
	h := newHarness(t, reference.Publications(), reference.Q2)
	ref := h.fragment(t, 1, Options{})
	for _, mode := range []Mode{ValidContributor, Contributor, NoPruning} {
		res := ref.Prune(mode, Options{})
		if len(res.Kept) != 1 || !contains(res, "0.2.0.3.0") {
			t.Errorf("mode %s: ref fragment = %v", mode, keptStrings(res))
		}
	}
}

// Discarding a child must discard its whole subtree (BFS never descends).
func TestDiscardIsRecursive(t *testing.T) {
	tree := xmltree.Build(xmltree.E{Label: "root", Kids: []xmltree.E{
		{Label: "marker", Text: "gamma"},
		{Label: "rich", Kids: []xmltree.E{
			{Label: "x", Text: "alpha"},
			{Label: "y", Text: "beta"},
		}},
		{Label: "rich", Kids: []xmltree.E{
			{Label: "x", Text: "alpha"},
		}},
	}})
	h := newHarness(t, tree, "gamma alpha beta")
	f := h.fragment(t, 0, Options{})
	res := f.Prune(ValidContributor, Options{})
	// Second "rich" ({alpha} ⊂ {alpha,beta}) goes away along with its child
	// 0.2.0, which must not be visited.
	assertKept(t, res, "0", "0.0", "0.1", "0.1.0", "0.1.1")
}

// Prune leaves the fragment reusable: the same mode twice gives the same
// result, another mode in between does not disturb it.
func TestPruneRepeatable(t *testing.T) {
	h := newHarness(t, reference.Team(), reference.Q4)
	f := h.fragment(t, 0, Options{})
	a := f.Prune(ValidContributor, Options{})
	c := f.Prune(Contributor, Options{})
	b := f.Prune(ValidContributor, Options{})
	if !equalKept(a, b) {
		t.Error("identical prunes should be equal")
	}
	if equalKept(a, c) {
		t.Error("different prunes should not be equal")
	}
	if a.Root.String() != "0" {
		t.Errorf("Root = %s", a.Root)
	}
}

func TestModeString(t *testing.T) {
	if ValidContributor.String() != "ValidContributor" || Contributor.String() != "Contributor" ||
		NoPruning.String() != "NoPruning" || Mode(42).String() != "Mode(42)" {
		t.Error("Mode.String broken")
	}
}

func TestFragmentAccessors(t *testing.T) {
	h := newHarness(t, reference.Team(), reference.Q4)
	f := h.fragment(t, 0, Options{})
	if f.Size() != 9 {
		t.Errorf("Size = %d, want 9", f.Size())
	}
	if nodeAt(f, "9.9") != -1 {
		t.Error("nodeAt absent should be -1")
	}
	if sk := sketch(f, h.labelOf); !strings.Contains(sk, "0.1.0 (player) k=2 cID=(forward,position)") {
		t.Errorf("sketch output unexpected:\n%s", sk)
	}
}
