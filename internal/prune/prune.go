// Package prune implements the pruneRTF stage of ValidRTF (Algorithm 1 of
// the paper) and the contributor-based pruning of the revised MaxMatch
// baseline (Liu & Chen, VLDB 2008, adapted to RTFs).
//
// A Fragment is the annotated node tree of §4.1 in one flat slice: the RTF's
// nodes in pre-order, each carrying its kList (tree keyword set as a bitmask
// — its integer value is the paper's "key number"), the index one past its
// last descendant, so a node's children are reached by hopping from subtree
// to subtree, and the number of keyword events before it, so its subtree's
// events are one contiguous run of the RTF's. The cID (the (min,max)
// word-pair feature approximating the tree content set) is read off that run
// when rule 2(b) asks for it, and only then. A node's label is an integer,
// its ID in the document's label column (index.LabelColumn), read only for the
// children ValidContributor filtering groups; Dewey codes are resolved only
// for the results. The "Children Info" of §4.1 — per label, the child count
// and the distinct child key numbers (chkList) — is computed while
// filtering, for nodes with at least two children.
//
// Prune(ValidContributor) keeps exactly the valid contributors of
// Definition 4: a child with a label unique among its siblings is always
// kept (rule 1, fixing MaxMatch's false positive problem); among same-label
// siblings, a child whose keyword set is strictly covered by a sibling's is
// discarded (rule 2a), and of several children with equal keyword sets and
// equal content only the first is kept (rule 2b, fixing the redundancy
// problem).
//
// Prune(Contributor) keeps MaxMatch's contributors: a child is discarded
// exactly when some sibling's keyword set strictly covers its own,
// regardless of labels and content.
//
// Complexity contract. Building is O(path nodes) and reads no content set:
// every node is created once, as a 24-byte record holding no pointers, by a
// path-stack pass over the keyword nodes (which arrive in pre-order), and
// kList is folded bottom-up in one reverse sweep. A cID costs the events of
// the node's subtree, and only children that reach rule 2(b) — a ValidRTF
// child with a same-label sibling and a key number no such sibling covers —
// have one computed, so cIDs cost O(events under rule-2(b) children), at
// most events × depth; MaxMatch and the raw fragment read no content at all.
// Each event adds O(1) whatever its content: a content set is a row of term
// IDs in the lexical order of its words (index.Content), so the (min,max)
// feature is the min and max of the rows' first and last words, one
// dictionary index each. Filtering a parent is O(children + Σ d²)
// for k query keywords, where d ≤ 2^k is the number of distinct key numbers
// in one of its label groups: a child finds its group's chkList entry for
// its key number in an open-addressed hash table sized for the parent's
// children, never by testing its siblings, and rule 2(a) tests each
// distinct key number against the others of its group, once. A child finds
// its label group in one slot per dictionary label, and the slots are
// epoch-stamped: each parent bumps a counter, and a slot stamped by an
// earlier parent reads as empty, so no parent and no fragment clears them
// and a parent costs O(children) however many labels the document has. Rule
// 2(b)'s used cIDs live in the same table once the chkList is built. All of
// it is pooled memory, so a wide sibling group costs a constant per child
// and allocates nothing. The one exception is ExactContent, which reads
// every word into per-node content sets while building and compares a
// child's set with its kept equal-keyword siblings.
//
// A fragment is built from an rtf.IDRTF over a node table and the
// document's label and content columns (BuildFragment) and filtered in one
// pass, which AppendKeptIDs appends to a caller's buffer as node IDs (the
// engine path) and Prune also returns as Dewey codes. BuildFragmentIDs is
// the same build for a caller holding a label and a content function
// instead of columns.
//
// Pooling. The Fragment handle, the node slice and the filtering pass's
// working arrays come from a sync.Pool; Release hands them back whatever
// their size, and results never alias them. A search whose RTF is the
// document root (tens of thousands of nodes — most Figure 5 queries return
// it as an ELCA) reuses the previous search's arrays instead of allocating
// and zeroing megabytes. The pool is the only bound on what stays resident:
// an entry idle for two garbage collections is dropped, and until then it
// holds what the largest recent fragment needed, about 43 bytes a node with
// the node array's slack — 1.5 MB of live heap after the fig5-full mix,
// whose largest fragment (the DBLP document root) has 36 k nodes — plus 8
// bytes a label of the largest label dictionary it served.
package prune

import (
	"fmt"
	"hash/maphash"
	"maps"
	"math/bits"
	"slices"
	"sync"

	"xks/internal/dewey"
	"xks/internal/index"
	"xks/internal/lca"
	"xks/internal/nid"
	"xks/internal/rtf"
)

// Mode selects the filtering mechanism.
type Mode int

const (
	// ValidContributor is the paper's valid-contributor filtering
	// (Definition 4), used by ValidRTF.
	ValidContributor Mode = iota
	// Contributor is MaxMatch's contributor filtering: discard a child iff
	// a sibling's keyword set strictly covers its own.
	Contributor
	// NoPruning keeps the whole RTF (the raw fragment).
	NoPruning
)

func (m Mode) String() string {
	switch m {
	case ValidContributor:
		return "ValidContributor"
	case Contributor:
		return "Contributor"
	case NoPruning:
		return "NoPruning"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Options tunes pruning behaviour.
type Options struct {
	// ExactContent compares full tree content sets in rule 2b instead of
	// the (min,max) cID feature. The paper uses the cID approximation
	// (§4.1); exact comparison is provided for the ablation study.
	ExactContent bool
}

// CID is the (min,max) content feature of §4.1.
type CID struct {
	Min, Max string
}

func (c CID) String() string { return "(" + c.Min + "," + c.Max + ")" }

// merge widens c to cover o; the zero CID covers nothing.
func (c *CID) merge(o CID) {
	switch {
	case o.Max == "":
	case c.Max == "":
		*c = o
	default:
		if o.Min < c.Min {
			c.Min = o.Min
		}
		if o.Max > c.Max {
			c.Max = o.Max
		}
	}
}

// node is the "Self Info" of §4.1 for one fragment node. Nodes sit in
// pre-order, so node i's subtree is the index range [i, end) and its
// children are i+1, nodes[i+1].end, … up to end. Keyword events arrive in
// pre-order too, so the subtree's events are the run [ev, nodes[end].ev) —
// up to the last event when end is the fragment's size. The record holds no
// pointer, so the collector never scans the node array.
type node struct {
	id     nid.ID // table ID
	parent int32
	end    int32
	ev     int32  // keyword events matched before the node was pushed
	klist  uint64 // tree keyword set TKv; its integer value is the key number
}

// IDLabelFunc resolves a node's label from its table ID.
type IDLabelFunc func(nid.ID) string

// IDContentFunc resolves the content word set Cv of a keyword node from its
// table ID, for BuildFragmentIDs. The set must come back in lexical order
// (duplicates are harmless), as analysis.ContentSet and the store's
// ContentAt return it, for the same reason a content column's rows must
// be in word order: a cID takes the first and the last word and reads
// nothing between. An unsorted set or row does not fail, it yields a wrong
// cID and with it a wrong rule 2(b) decision; this package's tests run
// under a hook that rejects one where a cID reads it. Only ExactContent
// reads every word, and without it a row or set is read only for the
// keyword nodes under children that reach rule 2(b).
type IDContentFunc func(nid.ID) []string

// group is the "Children Info" of one label under the current parent.
type group struct {
	count int32 // children with the label
	first int32 // head of the label's chkList chain in scratch.knums; -1 when empty
}

// labelSlot is one label's entry in the per-label slots: its group under the
// parent whose filter pass stamped it, and no group when epoch is not the
// current pass's.
type labelSlot struct {
	epoch uint32
	group int32
}

// knum is one chkList entry: a distinct key number among the children of
// one label group.
type knum struct {
	k       uint64
	group   int32
	next    int32 // next entry of the same group; -1 at the end
	covered bool  // a key number of the group strictly contains k (rule 2a)
	used    bool  // a child with this key number was already kept
}

// usedCID is one entry of rule 2(b)'s used-cID list of a label group.
type usedCID struct {
	cid   CID
	group int32
}

// scratch is the pooled memory of one fragment: the handle itself, the node
// slice, the builder's path stack and Prune's working arrays.
type scratch struct {
	frag  Fragment
	nodes []node
	stack []int32  // path from the fragment root to the current node
	anc   []nid.ID // ancestors of the current keyword node below that path
	local []uint32 // per node: its label ID, when BuildFragmentIDs interned them

	keep []bool  // per node: kept by the filtering of its parent
	slot []int32 // per node: its chkList entry in knums
	kept []int32 // the kept nodes, in pre-order

	groups []group
	// byLabel has a slot per dictionary label; epoch numbers the
	// ValidContributor filter passes, so a slot whose stamp is older than
	// the current pass is empty without being cleared.
	byLabel []labelSlot
	epoch   uint32
	knums   []knum
	cids    []usedCID // the current parent's cIDs computed for rule 2(b)
	// table is an open-addressed hash table over the current parent's
	// knums while its chkList is built, then over its cids (entry+1 per
	// slot, 0 when free).
	table []int32
}

var seed = maphash.MakeSeed()

// resetTable empties the table and sizes it for m entries at most half full.
func (s *scratch) resetTable(m int) {
	s.table = resize(s.table, 1<<bits.Len(uint(2*m-1)))
	clear(s.table)
}

// usedBefore reports whether group g's used-cID list already holds c, and
// adds c when it does not.
func (s *scratch) usedBefore(g int32, c CID) bool {
	h := maphash.String(seed, c.Min) + 31*maphash.String(seed, c.Max) + uint64(g)
	mask := uint64(len(s.table) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		switch w := s.table[i] - 1; {
		case w < 0:
			s.table[i] = int32(len(s.cids)) + 1
			s.cids = append(s.cids, usedCID{c, g})
			return false
		case s.cids[w].group == g && s.cids[w].cid == c:
			return true
		}
	}
}

// nextEpoch starts a filter pass over the per-label slots. When the counter
// wraps, every stamp is wiped, the array's whole capacity included, so no
// stamp of an earlier round can pass for one of the new round.
func (s *scratch) nextEpoch() {
	if s.epoch++; s.epoch == 0 {
		clear(s.byLabel[:cap(s.byLabel)])
		s.epoch = 1
	}
}

var pool = sync.Pool{New: func() any {
	return &scratch{stack: make([]int32, 0, 16), anc: make([]nid.ID, 0, 16)}
}}

// Fragment is one RTF materialized as an annotated node tree, ready for
// pruning. Build it once, prune it under one or several modes, Release it.
// It is not safe for concurrent use.
type Fragment struct {
	s *scratch // nil once released

	// Codes resolve through the node table, labels through the label
	// column (labels, by table ID; s.local, by node index, when labels is
	// nil), content sets through the RTF's keyword events and the content
	// column. Every label ID is below nlabels.
	tab      *nid.Table
	labels   []uint32
	nlabels  int
	idEvents []lca.IDEvent
	column   index.Content
	// contentOf and dict are BuildFragmentIDs': each read resolves a set
	// through contentOf and interns its words into column.Words.
	contentOf IDContentFunc
	dict      map[string]uint32
	row       []uint32

	events int32 // keyword events matched so far: all of them once built

	// content holds every node's full tree content set as term IDs,
	// parallel to s.nodes; nil unless built with ExactContent.
	content []map[uint32]struct{}
}

func newFragment(events int, opts Options) *Fragment {
	s := pool.Get().(*scratch)
	// Two nodes per keyword node is the common shape (record + field).
	if want := 2*events + 4; cap(s.nodes) < want {
		s.nodes = make([]node, 0, want)
	}
	s.nodes, s.stack = s.nodes[:0], s.stack[:0]
	s.frag = Fragment{s: s}
	if opts.ExactContent {
		s.frag.content = make([]map[uint32]struct{}, 0, cap(s.nodes))
	}
	return &s.frag
}

// BuildFragment runs the constructing step of pruneRTF over a node table:
// a single pass over the RTF's keyword nodes (which arrive in pre-order)
// maintaining the path stack from the RTF root to the current node, so every
// path node is created exactly once, in document order. Keyword masks are
// then transferred to every ancestor up to the RTF root (the paper's lines
// 11–12). labels and content must cover every table ID of the fragment;
// a keyword node's content row is read only where a cID is read (or for
// every keyword node under ExactContent). The fragment reads r's events
// and the columns until it is released.
func BuildFragment(t *nid.Table, r *rtf.IDRTF, labels index.LabelColumn, content index.Content, opts Options) *Fragment {
	return build(t, r, labels, content, nil, opts)
}

// build is BuildFragment, reading content through contentOf when it is
// not nil.
func build(t *nid.Table, r *rtf.IDRTF, labels index.LabelColumn, content index.Content, contentOf IDContentFunc, opts Options) *Fragment {
	f := newFragment(len(r.KeywordNodes), opts)
	f.tab, f.labels, f.nlabels = t, labels.IDs, len(labels.Names)
	f.idEvents, f.column, f.contentOf = r.KeywordNodes, content, contentOf
	s := f.s
	rootDepth := t.Depth(r.Root)
	f.push(r.Root)
	for _, ev := range r.KeywordNodes {
		// Climb from the keyword node to the deepest node already on the
		// path stack; what was passed on the way is new.
		s.anc = s.anc[:0]
		for cur := ev.ID; ; cur = t.Parent(cur) {
			d := int(t.Depth(cur) - rootDepth)
			if d < len(s.stack) && s.nodes[s.stack[d]].id == cur {
				s.stack = s.stack[:d+1]
				break
			}
			s.anc = append(s.anc, cur)
		}
		for j := len(s.anc) - 1; j >= 0; j-- {
			f.push(s.anc[j])
		}
		f.match(ev.Mask)
	}
	f.fold()
	return f
}

// BuildFragmentIDs is BuildFragment for a caller that resolves labels and
// content sets one node at a time: labelOf's strings for the fragment's
// nodes are interned into a label column of the fragment's own, and
// filtering groups through it as it groups through a document's; each read
// of a content set calls contentOf and interns its words into a dictionary
// of the fragment's own, so rows compare by ID as a column's do.
func BuildFragmentIDs(t *nid.Table, r *rtf.IDRTF, labelOf IDLabelFunc, contentOf IDContentFunc, opts Options) *Fragment {
	f := build(t, r, index.LabelColumn{}, index.Content{}, contentOf, opts)
	s := f.s
	s.local = resize(s.local, len(s.nodes))
	ids := map[string]uint32{}
	for i, n := range s.nodes {
		l := labelOf(n.id)
		id, ok := ids[l]
		if !ok {
			id = uint32(len(ids))
			ids[l] = id
		}
		s.local[i] = id
	}
	f.nlabels = len(ids)
	return f
}

// push appends a node as the last child of the path stack's top and makes
// it the new top.
func (f *Fragment) push(id nid.ID) {
	s := f.s
	i := int32(len(s.nodes))
	parent := int32(-1)
	if len(s.stack) > 0 {
		parent = s.stack[len(s.stack)-1]
	}
	s.nodes = append(s.nodes, node{id: id, parent: parent, end: i + 1, ev: f.events})
	s.stack = append(s.stack, i)
	if f.content != nil {
		f.content = append(f.content, nil)
	}
}

// match records the next keyword event on the path stack's top. Only
// ExactContent reads its content set here.
func (f *Fragment) match(mask uint64) {
	i := f.s.stack[len(f.s.stack)-1]
	f.s.nodes[i].klist |= mask
	if f.content != nil {
		m := f.contentSet(i)
		for _, w := range f.words(f.events) {
			m[w] = struct{}{}
		}
	}
	f.events++
}

// fold transfers every node's keyword set (and content set, under
// ExactContent) to its parent, deepest nodes first, and closes the subtree
// ranges.
func (f *Fragment) fold() {
	nodes := f.s.nodes
	for i := len(nodes) - 1; i > 0; i-- {
		c := &nodes[i]
		p := &nodes[c.parent]
		p.klist |= c.klist
		p.end = max(p.end, c.end)
		if f.content != nil {
			m := f.contentSet(c.parent)
			for w := range f.content[i] {
				m[w] = struct{}{}
			}
		}
	}
}

// contentSet returns node i's tree content set, creating it when absent.
func (f *Fragment) contentSet(i int32) map[uint32]struct{} {
	if f.content[i] == nil {
		f.content[i] = make(map[uint32]struct{})
	}
	return f.content[i]
}

// words returns the content set of keyword event e as term IDs over
// f.column.Words, in the lexical order of their words. Under
// BuildFragmentIDs the row is the fragment's, valid until the next call.
func (f *Fragment) words(e int32) []uint32 {
	id := f.idEvents[e].ID
	if f.contentOf == nil {
		return f.column.Row(id)
	}
	if f.dict == nil {
		f.dict = map[string]uint32{}
	}
	f.row = f.row[:0]
	for _, w := range f.contentOf(id) {
		t, ok := f.dict[w]
		if !ok {
			t = uint32(len(f.column.Words))
			f.column.Words = append(f.column.Words, w)
			f.dict[w] = t
		}
		f.row = append(f.row, t)
	}
	return f.row
}

// checkContent is nil outside this package's tests, which set it to fail on a
// content row whose words (over dictionary words) are out of lexical order.
var checkContent func(row []uint32, words []string)

// cid computes node i's cID, the (min,max) of its tree content set, from its
// subtree's run of keyword events: each content row is in word order, so
// its ends are its own (min,max).
func (f *Fragment) cid(i int32) CID {
	nodes := f.s.nodes
	last := f.events
	if end := nodes[i].end; int(end) < len(nodes) {
		last = nodes[end].ev
	}
	var c CID
	for e := nodes[i].ev; e < last; e++ {
		row := f.words(e)
		if checkContent != nil {
			checkContent(row, f.column.Words)
		}
		if len(row) > 0 {
			c.merge(CID{Min: f.column.Words[row[0]], Max: f.column.Words[row[len(row)-1]]})
		}
	}
	return c
}

// labelID returns node i's label ID.
func (f *Fragment) labelID(i int32) uint32 {
	if f.labels == nil {
		return f.s.local[i]
	}
	return f.labels[f.s.nodes[i].id]
}

// Size returns the number of nodes in the unpruned fragment.
func (f *Fragment) Size() int { return len(f.s.nodes) }

// Release returns the fragment to the pool; results obtained from it stay
// valid. Release a fragment once and use it no more. The handle is itself
// pooled memory: Release clears it, so a second Release right after finds
// nothing to return, but the next build may hand the same handle out again,
// and a Release through a stale pointer would then return that fragment.
func (f *Fragment) Release() {
	if s := f.s; s != nil {
		// The pool keeps nothing of the fragment's: no table, label column,
		// function or event slice stays reachable from it.
		*f = Fragment{}
		pool.Put(s)
	}
}

// Result is the outcome of pruning a fragment under one mode: the kept node
// codes in pre-order.
type Result struct {
	Root dewey.Code
	Kept []dewey.Code
	// KeptIDs parallels Kept with table IDs.
	KeptIDs []nid.ID
	// Visited is the node count of the unpruned fragment tree, so
	// Visited-len(Kept) is how many nodes the pruning mechanism removed —
	// the per-fragment effectiveness number the explain/tracing surfaces
	// report.
	Visited int
}

// Prune applies the selected filtering mechanism (the pruning step of
// pruneRTF) and returns the kept node set as Dewey codes — the view tests and
// stage replays read — beside the IDs. The fragment's nodes are not mutated,
// so several modes can be applied to the same fragment in turn.
func (f *Fragment) Prune(mode Mode, opts Options) *Result {
	ids, visited := f.AppendKeptIDs(nil, mode, opts)
	res := &Result{Kept: f.tab.Codes(ids), KeptIDs: ids, Visited: visited}
	res.Root = res.Kept[0]
	return res
}

// AppendKeptIDs is Prune for the engine path, which never looks at a Dewey
// slice: it appends the kept node IDs, in pre-order, to dst and returns the
// extended slice with Result.Visited, so a caller pruning many fragments
// stages every keep-set in one buffer. The root is always kept, first.
func (f *Fragment) AppendKeptIDs(dst []nid.ID, mode Mode, opts Options) ([]nid.ID, int) {
	kept := f.sweep(mode, opts)
	dst = slices.Grow(dst, len(kept))
	for _, i := range kept {
		dst = append(dst, f.s.nodes[i].id)
	}
	return dst, len(f.s.nodes)
}

// sweep is the one filtering pass: it returns the kept nodes' indices in
// pre-order, in pooled memory that the next sweep or Release reclaims.
func (f *Fragment) sweep(mode Mode, opts Options) []int32 {
	s := f.s
	nodes := s.nodes
	s.keep = resize(s.keep, len(nodes))
	clear(s.keep)
	s.slot = resize(s.slot, len(nodes))
	// The label slots keep their stale stamps: every pass stamps anew.
	s.byLabel = resize(s.byLabel, f.nlabels)
	exact := f.content != nil && opts.ExactContent

	// One pre-order sweep both filters and emits: a kept node flags its
	// surviving children, which all lie ahead, and a discarded node's
	// subtree is stepped over without being visited.
	kept := resize(s.kept, len(nodes))[:0]
	s.keep[0] = true
	for i := int32(0); int(i) < len(nodes); {
		if !s.keep[i] {
			i = nodes[i].end
			continue
		}
		kept = append(kept, i)
		if nodes[i].end > i+1 {
			f.filter(i, mode, exact)
		}
		i++
	}
	s.kept = kept
	return kept
}

func resize[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}

// filter flags the children of p that survive the mode's filtering — lines
// 16–26 of Algorithm 1 for ValidContributor, MaxMatch's pruneMatches
// condition (one group, labels and content ignored) for Contributor.
func (f *Fragment) filter(p int32, mode Mode, exact bool) {
	s := f.s
	nodes, keep := s.nodes, s.keep
	first, end := p+1, nodes[p].end
	if nodes[first].end == end || mode == NoPruning {
		// An only child has no sibling to lose against.
		for c := first; c < end; c = nodes[c].end {
			keep[c] = true
		}
		return
	}

	// Children Info: the label groups and each group's distinct key numbers.
	s.groups, s.knums = s.groups[:0], s.knums[:0]
	if mode == ValidContributor {
		s.nextEpoch()
	}
	m := 0 // children of p
	for c := first; c < end; c = nodes[c].end {
		m++
	}
	s.resetTable(m)
	for c := first; c < end; c = nodes[c].end {
		g := int32(0)
		if mode == ValidContributor {
			l := &s.byLabel[f.labelID(c)]
			if l.epoch != s.epoch {
				*l = labelSlot{epoch: s.epoch, group: int32(len(s.groups))}
			}
			g = l.group
		}
		if int(g) == len(s.groups) {
			s.groups = append(s.groups, group{first: -1})
		}
		s.groups[g].count++
		s.slot[c] = s.knumOf(g, nodes[c].klist)
	}
	// Rule 2(a), once per distinct key number instead of once per child.
	for i := range s.knums {
		a := &s.knums[i]
		for j := s.groups[a.group].first; j >= 0 && !a.covered; j = s.knums[j].next {
			b := s.knums[j].k
			a.covered = b != a.k && b&a.k == a.k
		}
	}

	cidsReady := false // the used-cID table is reset on the first rule 2(b) child
	for c := first; c < end; c = nodes[c].end {
		e := &s.knums[s.slot[c]]
		switch {
		case mode == ValidContributor && s.groups[e.group].count == 1:
			// Rule 1: unique label among siblings — always a valid
			// contributor.
			keep[c] = true
		case e.covered:
			// A sibling (of the same label, for rule 2a) has a keyword set
			// strictly covering this child's.
		case mode == Contributor:
			keep[c] = true
		default:
			// Rule 2(b): of the children with this keyword set keep the
			// first, and later ones only when their content is new.
			var dup bool
			if exact {
				dup = e.used && f.duplicateContent(first, c)
			} else {
				if !cidsReady {
					s.resetTable(m)
					s.cids = s.cids[:0]
					cidsReady = true
				}
				// Algorithm 1 keeps one used-cID list per label item, so a
				// cID counts as used whichever key number brought it in.
				dup = s.usedBefore(e.group, f.cid(c)) && e.used
			}
			e.used = true
			keep[c] = !dup
		}
	}
}

// knumOf returns the chkList entry of key number k in label group g, adding
// it to the table and to the group's chain when k is new to the group.
func (s *scratch) knumOf(g int32, k uint64) int32 {
	h := (k + uint64(g)*0x9e3779b97f4a7c15) * 0xbf58476d1ce4e5b9
	h ^= h >> 32
	mask := uint64(len(s.table) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		switch e := s.table[i] - 1; {
		case e < 0:
			e = int32(len(s.knums))
			s.table[i] = e + 1
			s.knums = append(s.knums, knum{k: k, group: g, next: s.groups[g].first})
			s.groups[g].first = e
			return e
		case s.knums[e].k == k && s.knums[e].group == g:
			return e
		}
	}
}

// duplicateContent reports whether a kept sibling before c, of c's label
// and keyword set, has exactly c's tree content set.
func (f *Fragment) duplicateContent(first, c int32) bool {
	s := f.s
	for w := first; w < c; w = s.nodes[w].end {
		if s.keep[w] && s.slot[w] == s.slot[c] && maps.Equal(f.content[w], f.content[c]) {
			return true
		}
	}
	return false
}
