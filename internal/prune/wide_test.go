package prune

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"xks/internal/dewey"
	"xks/internal/index"
	"xks/internal/lca"
	"xks/internal/nid"
	"xks/internal/rtf"
)

// refNode is one node of a synthetic fragment, annotated the naive way:
// every tree value is recomputed from the node's own subtree, nothing is
// transferred along paths.
type refNode struct {
	code  dewey.Code
	label string
	mask  uint64   // keywords the node itself matches
	words []string // its own content set
	kids  []*refNode

	tk      uint64              // tree keyword set
	content map[string]struct{} // tree content set
	cid     CID
}

func (n *refNode) annotate() {
	n.tk, n.content = n.mask, map[string]struct{}{}
	for _, w := range n.words {
		n.content[w] = struct{}{}
	}
	for _, k := range n.kids {
		k.annotate()
		n.tk |= k.tk
		maps.Copy(n.content, k.content)
	}
	if len(n.content) > 0 {
		ws := slices.Sorted(maps.Keys(n.content))
		n.cid = CID{Min: ws[0], Max: ws[len(ws)-1]}
	}
}

// synthetic is a generated fragment over its own node table.
type synthetic struct {
	root    *refNode
	tab     *nid.Table
	idRTF   *rtf.IDRTF
	labels  []string          // by table ID
	column  index.LabelColumn // labels interned: the label column BuildFragment reads
	words   [][]string        // by table ID
	content index.Content     // words interned: the content column BuildFragment reads
}

func (s *synthetic) labelOfID(id nid.ID) string     { return s.labels[id] }
func (s *synthetic) contentOfID(id nid.ID) []string { return s.words[id] }

// add registers n (nodes arrive in pre-order, so table IDs count up) and
// its keyword event.
func (s *synthetic) add(n *refNode, codes *[]dewey.Code) {
	id := nid.ID(len(*codes))
	*codes = append(*codes, n.code)
	s.labels = append(s.labels, n.label)
	s.words = append(s.words, n.words)
	if n.mask != 0 {
		s.idRTF.KeywordNodes = append(s.idRTF.KeywordNodes, lca.IDEvent{ID: id, Mask: n.mask})
	}
	for _, k := range n.kids {
		s.add(k, codes)
	}
}

func finish(root *refNode) *synthetic {
	root.annotate()
	s := &synthetic{root: root, idRTF: &rtf.IDRTF{}}
	var codes []dewey.Code
	s.add(root, &codes)
	s.tab = nid.FromCodes(codes)
	s.column = internLabels(s.labels, nil)
	s.content = internContent(s.words, nil)
	return s
}

// internLabels builds the label column of labels (by table ID) over a
// dictionary that starts with extra, unused names.
func internLabels(labels, extra []string) index.LabelColumn {
	col := index.LabelColumn{Names: slices.Clone(extra)}
	ids := map[string]uint32{}
	for _, l := range labels {
		id, ok := ids[l]
		if !ok {
			id = uint32(len(col.Names))
			col.Names = append(col.Names, l)
			ids[l] = id
		}
		col.IDs = append(col.IDs, id)
	}
	return col
}

// internContent builds the content column of words (by table ID, each row
// sorted) over their sorted dictionary, or over order when it is not nil: a
// permutation of the dictionary, as appends leave one whose IDs do not
// ascend with the words.
func internContent(words [][]string, order func(dict []string)) index.Content {
	var dict []string
	for _, ws := range words {
		dict = append(dict, ws...)
	}
	slices.Sort(dict)
	dict = slices.Compact(dict)
	if order != nil {
		order(dict)
	}
	ids := map[string]uint32{}
	for id, w := range dict {
		ids[w] = uint32(id)
	}
	col := index.Content{Off: []uint32{0}, Words: dict}
	for _, ws := range words {
		for _, w := range ws {
			col.IDs = append(col.IDs, ids[w])
		}
		col.Off = append(col.Off, uint32(len(col.IDs)))
	}
	return col
}

// vocabulary is small on purpose: (min,max) features collide between
// children whose content sets differ, and between children of different
// keyword sets.
var vocabulary = []string{"a", "b", "c", "d", "e", "f"}

// randomWide generates a fragment whose root has n children over the given
// number of labels and k query keywords. A child is a keyword node, the
// parent of up to three keyword nodes, or both.
func randomWide(rng *rand.Rand, n, labels, k int) *synthetic {
	label := func() string { return fmt.Sprintf("l%d", rng.Intn(labels)) }
	keyword := func(n *refNode) {
		n.mask = 1 + uint64(rng.Intn(1<<k-1))
		for range 1 + rng.Intn(3) {
			if w := vocabulary[rng.Intn(len(vocabulary))]; !slices.Contains(n.words, w) {
				n.words = append(n.words, w)
			}
		}
		slices.Sort(n.words) // content rows are in word order (index.Content)
	}
	root := &refNode{code: dewey.Code{0}, label: "root"}
	for i := range n {
		c := &refNode{code: root.code.Child(uint32(i)), label: label()}
		grandchildren := 0
		if rng.Intn(10) < 3 {
			grandchildren = 1 + rng.Intn(3)
		}
		if grandchildren == 0 || rng.Intn(2) == 0 {
			keyword(c)
		}
		for j := range grandchildren {
			g := &refNode{code: c.code.Child(uint32(j)), label: label()}
			keyword(g)
			c.kids = append(c.kids, g)
		}
		root.kids = append(root.kids, c)
	}
	return finish(root)
}

// randomDeep generates a fragment of n nodes of random shape and depth over
// three labels: a new node hangs under one of the latest few nodes (so paths
// run deep) or under any earlier one (so sibling groups form at every
// level). Every leaf, and about a third of the inner nodes, is a keyword
// node.
func randomDeep(rng *rand.Rand, n, k int) *synthetic {
	root := &refNode{code: dewey.Code{0}, label: "root"}
	all := []*refNode{root}
	for range n - 1 {
		p := all[rng.Intn(len(all))]
		if rng.Intn(3) > 0 {
			p = all[len(all)-1-rng.Intn(min(3, len(all)))]
		}
		c := &refNode{code: p.code.Child(uint32(len(p.kids))), label: fmt.Sprintf("l%d", rng.Intn(3))}
		p.kids = append(p.kids, c)
		all = append(all, c)
	}
	for _, v := range all {
		if len(v.kids) > 0 && rng.Intn(3) > 0 {
			continue
		}
		v.mask = 1 + uint64(rng.Intn(1<<k-1))
		for range rng.Intn(3) { // some keyword nodes have no content words
			if w := vocabulary[rng.Intn(len(vocabulary))]; !slices.Contains(v.words, w) {
				v.words = append(v.words, w)
			}
		}
		slices.Sort(v.words)
	}
	return finish(root)
}

// refNodes indexes the reference tree under v by Dewey string.
func refNodes(v *refNode, into map[string]*refNode) map[string]*refNode {
	into[v.code.String()] = v
	for _, k := range v.kids {
		refNodes(k, into)
	}
	return into
}

// syntheticFragments is the differential corpus of the on-demand cID and
// label-column tests: wide sibling groups over up to four labels or up to
// 200, and deep random trees.
func syntheticFragments(rng *rand.Rand) []*synthetic {
	var out []*synthetic
	for i := range 60 {
		labels := 1 + rng.Intn(4)
		if i%2 == 1 {
			labels = 1 + rng.Intn(200)
		}
		out = append(out, randomWide(rng, 1+rng.Intn(80), labels, 1+rng.Intn(5)))
		out = append(out, randomDeep(rng, 1+rng.Intn(30+i*4), 1+rng.Intn(5)))
	}
	return out
}

// TestOnDemandCIDMatchesNaive: the cID read off a node's run of keyword
// events is, for every node of every synthetic fragment, the (min,max) of the
// node's whole tree content set.
func TestOnDemandCIDMatchesNaive(t *testing.T) {
	for n, s := range syntheticFragments(rand.New(rand.NewSource(31))) {
		ref := refNodes(s.root, map[string]*refNode{})
		for _, exact := range []bool{false, true} {
			f := BuildFragmentIDs(s.tab, s.idRTF, s.labelOfID, s.contentOfID, Options{ExactContent: exact})
			if f.Size() != len(ref) {
				t.Fatalf("fragment %d: %d nodes, the reference tree has %d", n, f.Size(), len(ref))
			}
			for i := range int32(f.Size()) {
				c := f.code(i).String()
				if got, want := f.cid(i), ref[c].cid; got != want {
					t.Fatalf("fragment %d exact=%v: node %s cID %v, its tree content set gives %v", n, exact, c, got, want)
				}
			}
			f.Release()
		}
	}
}

// eventsUnder counts the keyword nodes of v's subtree.
func eventsUnder(v *refNode) int {
	n := 0
	if v.mask != 0 {
		n++
	}
	for _, k := range v.kids {
		n += eventsUnder(k)
	}
	return n
}

func height(v *refNode) int {
	h := 0
	for _, k := range v.kids {
		h = max(h, height(k))
	}
	return h + 1
}

// ruleTwoBReads is what ValidContributor pruning must read: below every node
// the naive rules keep, the keyword nodes under each child that reaches rule
// 2(b) — a child with a same-label sibling and no same-label sibling whose
// keyword set strictly covers its own.
func ruleTwoBReads(v *refNode) int {
	n := 0
	for i, u := range v.kids {
		same, covered := 0, false
		for _, w := range v.kids {
			if w.label == u.label {
				same++
				covered = covered || strictlyCovers(w, u)
			}
		}
		if same > 1 && !covered {
			n += eventsUnder(u)
		}
		if naiveKeeps(v.kids, i, ValidContributor, false) {
			n += ruleTwoBReads(u)
		}
	}
	return n
}

// TestContentReadsOnDemand counts the content sets pruning reads: MaxMatch
// and the raw fragment read none, ValidRTF reads exactly the keyword nodes
// under children that reach rule 2(b) — never more than events × depth — and
// ExactContent reads every keyword node once, while building.
func TestContentReadsOnDemand(t *testing.T) {
	for n, s := range syntheticFragments(rand.New(rand.NewSource(32))) {
		reads := 0
		contentOf := func(id nid.ID) []string { reads++; return s.contentOfID(id) }
		events := len(s.idRTF.KeywordNodes)
		want := ruleTwoBReads(s.root)
		if bound := events * height(s.root); want > bound {
			t.Fatalf("fragment %d: rule 2(b) reaches %d events, past events × depth = %d", n, want, bound)
		}
		f := BuildFragmentIDs(s.tab, s.idRTF, s.labelOfID, contentOf, Options{})
		if reads != 0 {
			t.Fatalf("fragment %d: building read %d content sets, want 0", n, reads)
		}
		for _, mode := range []Mode{Contributor, NoPruning} {
			f.Prune(mode, Options{})
			if reads != 0 {
				t.Fatalf("fragment %d: %s read %d content sets, want 0", n, mode, reads)
			}
		}
		f.Prune(ValidContributor, Options{})
		if reads != want {
			t.Fatalf("fragment %d: ValidContributor read %d content sets, want %d (the events under rule-2(b) children)", n, reads, want)
		}
		f.Release()

		reads = 0
		opts := Options{ExactContent: true}
		f = BuildFragmentIDs(s.tab, s.idRTF, s.labelOfID, contentOf, opts)
		if reads != events {
			t.Fatalf("fragment %d: an ExactContent build read %d content sets for %d keyword nodes", n, reads, events)
		}
		f.Prune(ValidContributor, opts)
		if reads != events {
			t.Fatalf("fragment %d: ExactContent pruning read %d more content sets, want 0", n, reads-events)
		}
		f.Release()
	}
}

// naiveKept is the all-pairs reading of the filtering rules: every child is
// compared with every sibling. It returns the kept codes in pre-order.
func naiveKept(v *refNode, mode Mode, exact bool) []string {
	out := []string{v.code.String()}
	for i, u := range v.kids {
		if naiveKeeps(v.kids, i, mode, exact) {
			out = append(out, naiveKept(u, mode, exact)...)
		}
	}
	return out
}

func strictlyCovers(w, u *refNode) bool { return w.tk != u.tk && w.tk&u.tk == u.tk }

func naiveKeeps(sibs []*refNode, i int, mode Mode, exact bool) bool {
	u := sibs[i]
	// covered(x, group): some other member of group strictly covers x.
	covered := func(x *refNode, sameLabel bool) bool {
		for _, w := range sibs {
			if w != x && (!sameLabel || w.label == x.label) && strictlyCovers(w, x) {
				return true
			}
		}
		return false
	}
	switch mode {
	case NoPruning:
		return true
	case Contributor:
		// MaxMatch: no sibling's keyword set strictly covers u's.
		return !covered(u, false)
	}
	// Definition 4. Rule 1: a label unique among the siblings.
	unique := true
	for j, w := range sibs {
		unique = unique && (j == i || w.label != u.label)
	}
	if unique {
		return true
	}
	// Rule 2(a): no same-label sibling strictly covers u.
	if covered(u, true) {
		return false
	}
	// Rule 2(b): among same-label siblings of equal keyword set, equal
	// content keeps only the first.
	first := true
	for _, w := range sibs[:i] {
		if w.label != u.label {
			continue
		}
		if w.tk == u.tk {
			first = false
			if exact && maps.EqualFunc(w.content, u.content, func(struct{}, struct{}) bool { return true }) {
				return false
			}
		}
	}
	if exact || first {
		return true
	}
	// With the cID feature, Algorithm 1 holds one used-cID list per label
	// item: a later child of a keyword set already seen is dropped when
	// any earlier surviving-rule-2(a) sibling of its label — whatever that
	// sibling's keyword set — has its cID.
	for _, w := range sibs[:i] {
		if w.label == u.label && w.cid == u.cid && !covered(w, true) {
			return false
		}
	}
	return true
}

func codeStrings(cs []dewey.Code) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = c.String()
	}
	return out
}

var allModes = []Mode{ValidContributor, Contributor, NoPruning}

// TestWideGroupsMatchNaive pits the kernel against the all-pairs rules on
// seeded random sibling groups.
func TestWideGroupsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	sizes := []int{1, 2, 3, 5, 9, 17, 40, 150, 700, 5000}
	for trial := range 120 {
		n := sizes[trial%len(sizes)]
		if n == 5000 && trial >= 3*len(sizes) {
			n = 1 + rng.Intn(300) // three all-pairs passes at full width are enough
		}
		labels := 1 + rng.Intn(4)
		if trial%7 == 0 {
			labels = 12 // past the linearly scanned label list
		}
		s := randomWide(rng, n, labels, 1+rng.Intn(6))
		for _, exact := range []bool{false, true} {
			opts := Options{ExactContent: exact}
			f := BuildFragment(s.tab, s.idRTF, s.column, s.content, opts)
			for _, mode := range allModes {
				want := naiveKept(s.root, mode, exact)
				got := f.Prune(mode, opts)
				if !slices.Equal(codeStrings(got.Kept), want) {
					t.Fatalf("trial %d (%d children, %d labels) %s exact=%v:\n got %v\nwant %v",
						trial, n, labels, mode, exact, codeStrings(got.Kept), want)
				}
				if got.Visited != f.Size() {
					t.Fatalf("trial %d: Visited %d, fragment has %d nodes", trial, got.Visited, f.Size())
				}
			}
			f.Release()
		}
	}
}

// TestResultsOutliveScratch: Results own their memory. Four goroutines
// build, prune and release fragments from the shared pool; every Result
// they retained must still read as it did when it was produced.
func TestResultsOutliveScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var frags []*synthetic
	var want [][]string
	for i := range 24 {
		s := randomWide(rng, 1+rng.Intn(400), 1+rng.Intn(3), 1+rng.Intn(4))
		frags = append(frags, s)
		want = append(want, naiveKept(s.root, allModes[i%len(allModes)], false))
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			retained := make([]*Result, len(frags))
			check := func(i int) {
				r := retained[i]
				if r == nil {
					return
				}
				if !slices.Equal(codeStrings(r.Kept), want[i]) {
					t.Errorf("goroutine %d: retained result of fragment %d changed", g, i)
				}
				for j, id := range r.KeptIDs {
					if !dewey.Equal(frags[i].tab.Code(id), r.Kept[j]) {
						t.Errorf("goroutine %d: fragment %d KeptIDs[%d] no longer matches Kept", g, i, j)
					}
				}
			}
			for round := range 40 {
				i := (round*7 + g*5) % len(frags)
				check(i)
				s := frags[i]
				f := BuildFragment(s.tab, s.idRTF, s.column, s.content, Options{})
				retained[i] = f.Prune(allModes[i%len(allModes)], Options{})
				f.Release()
			}
			for i := range retained {
				check(i)
			}
		}()
	}
	wg.Wait()
}

// sameLabelChildren is the DBLP root in miniature: n children of one label,
// each the parent of one keyword node, three keyword sets (one of them
// covering the others), content features mostly distinct.
func sameLabelChildren(n int) *synthetic {
	root := &refNode{code: dewey.Code{0}, label: "dblp"}
	for i := range n {
		c := &refNode{code: root.code.Child(uint32(i)), label: "article"}
		words := []string{fmt.Sprintf("w%03d", i%211), fmt.Sprintf("w%03d", i*7%193)}
		slices.Sort(words)
		c.kids = []*refNode{{code: c.code.Child(0), label: "title", mask: 1 + uint64(i%3), words: words}}
		root.kids = append(root.kids, c)
	}
	return finish(root)
}

var sink *Result

// BenchmarkBuildAndPrune times the production path, BuildFragment +
// Prune + Release. The wide cases must scale linearly: 8192 children cost
// about twice 4096.
func BenchmarkBuildAndPrune(b *testing.B) {
	run := func(b *testing.B, s *synthetic, mode Mode) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f := BuildFragment(s.tab, s.idRTF, s.column, s.content, Options{})
			sink = f.Prune(mode, Options{})
			f.Release()
		}
	}
	small := randomWide(rand.New(rand.NewSource(1)), 4, 2, 3)
	b.Run("small", func(b *testing.B) { run(b, small, ValidContributor) })
	for _, n := range []int{4096, 8192} {
		s := sameLabelChildren(n)
		for _, mode := range []Mode{ValidContributor, Contributor} {
			b.Run(fmt.Sprintf("wide/%d/%s", n, mode), func(b *testing.B) { run(b, s, mode) })
		}
	}
}

// TestLabelColumnMatchesStringAdapter: grouping through a document's label
// column and through BuildFragmentIDs' interning of label strings keeps the
// same nodes and visits as many, in every mode and both content modes. The
// column's dictionary is shuffled and padded with labels no node carries, so
// its IDs share nothing with the adapter's first-come numbering. The content
// column's dictionary is shuffled too, as appends leave one: its rows stay
// in word order while their IDs do not ascend.
func TestLabelColumnMatchesStringAdapter(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for n, s := range syntheticFragments(rng) {
		extra := make([]string, rng.Intn(50))
		for i := range extra {
			extra[i] = fmt.Sprintf("unused%d", i)
		}
		col := internLabels(s.labels, extra)
		perm := rng.Perm(len(col.Names))
		shuffled := index.LabelColumn{Names: make([]string, len(col.Names))}
		for old, name := range col.Names {
			shuffled.Names[perm[old]] = name
		}
		for _, id := range col.IDs {
			shuffled.IDs = append(shuffled.IDs, uint32(perm[id]))
		}
		content := internContent(s.words, func(dict []string) {
			rng.Shuffle(len(dict), func(i, j int) { dict[i], dict[j] = dict[j], dict[i] })
		})
		for _, exact := range []bool{false, true} {
			opts := Options{ExactContent: exact}
			byColumn := BuildFragment(s.tab, s.idRTF, shuffled, content, opts)
			byString := BuildFragmentIDs(s.tab, s.idRTF, s.labelOfID, s.contentOfID, opts)
			for _, mode := range allModes {
				got, gotVisited := byColumn.AppendKeptIDs(nil, mode, opts)
				want, wantVisited := byString.AppendKeptIDs(nil, mode, opts)
				if !slices.Equal(got, want) || gotVisited != wantVisited {
					t.Fatalf("fragment %d %s exact=%v: column keeps %v of %d, adapter %v of %d",
						n, mode, exact, got, gotVisited, want, wantVisited)
				}
			}
			byColumn.Release()
			byString.Release()
		}
	}
}

// TestLabelStampsSurviveWraparound: when the filter-pass counter wraps, the
// per-label slots are wiped, so the small stamps an earlier round left
// cannot pass for the new round's and misgroup a child.
func TestLabelStampsSurviveWraparound(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for n, s := range syntheticFragments(rng) {
		f := BuildFragment(s.tab, s.idRTF, s.column, s.content, Options{})
		want, _ := f.AppendKeptIDs(nil, ValidContributor, Options{})
		for range 2 {
			slots := f.s.byLabel[:cap(f.s.byLabel)]
			for i := range slots {
				slots[i] = labelSlot{epoch: uint32(1 + rng.Intn(8)), group: int32(rng.Intn(4))}
			}
			f.s.epoch = math.MaxUint32 - uint32(rng.Intn(3))
			if got, _ := f.AppendKeptIDs(nil, ValidContributor, Options{}); !slices.Equal(got, want) {
				t.Fatalf("fragment %d: after the counter wrapped the kept IDs are %v, want %v", n, got, want)
			}
		}
		f.Release()
	}
}

// BenchmarkPruneSmallFragmentManyLabels prunes a 10-node fragment whose
// labels are spread over a dictionary of 100 and of 100 000 labels: the
// epoch-stamped slots make a fragment cost the same over either.
func BenchmarkPruneSmallFragmentManyLabels(b *testing.B) {
	s := randomWide(rand.New(rand.NewSource(5)), 9, 3, 3)
	for _, size := range []int{100, 100000} {
		col := index.LabelColumn{Names: make([]string, size)}
		for i := range col.Names {
			col.Names[i] = fmt.Sprintf("l%d", i)
		}
		for _, l := range s.labels {
			id := 0
			fmt.Sscanf(l, "l%d", &id) // "root" reads as label 0
			col.IDs = append(col.IDs, uint32((id*7919+1)%size))
		}
		b.Run(fmt.Sprintf("labels=%d", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f := BuildFragment(s.tab, s.idRTF, col, s.content, Options{})
				sinkIDs, _ = f.AppendKeptIDs(nil, ValidContributor, Options{})
				f.Release()
			}
		})
	}
}

var sinkIDs []nid.ID
