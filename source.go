package xks

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"unicode/utf8"

	"xks/internal/analysis"
	"xks/internal/dewey"
	"xks/internal/nid"
	"xks/internal/prune"
	"xks/internal/store"
	"xks/internal/xmltree"
)

// docSource abstracts where node labels, content and rendering come from:
// the parsed tree (FromTree / Load*) or the shredded store (FromStore).
// Nodes are addressed by table ID. Labels come from one ID-aligned label
// column and dictionary (prune.Labels) that both sources publish in their
// srcState: the tree interns its element names, the store hands out its v3
// labelids section and label table. Content sets (srcState.content) and a
// tree's texts are read off the pinned srcState too. Renderers receive the
// fragment itself: both XML renderers walk its kept IDs (f.keptIDs, pre-order
// and ancestor-closed), resolve nodes by ID and read depths off the
// fragment's node table; only the ASCII tree renderer and Contains take the
// dewey-keyed map (f.keepSet, built on first use).
type docSource interface {
	// pin returns the ID-aligned tables a request reads its labels and
	// content sets from and the fragments it materializes read and render
	// from later (view.src).
	pin() *srcState
	renderASCII(f *Fragment) string
	// renderXMLTo writes the XML rendering into w: XML's string, or straight
	// into the serving layer's response bytes.
	renderXMLTo(w io.Writer, f *Fragment) error
}

// treeSource serves everything from the in-memory document tree.
//
// Concurrency: the tail-append write path mutates the tree (AppendChild
// touches the parent's child slice and the tree's key map) while readers
// walk it, so structural access is guarded by mu — shared for ASCII
// renders, exclusive for appendChild. The ID-aligned
// tables live in an atomically swapped srcState instead: the hot path
// (labels and content sets during pruning, XML rendering) stays lock-free.
// The tables follow the shared-backing discipline of
// internal/delta's package comment: extend (one writer, under the engine's
// write mutex) appends rows on the arrays the previous state uses and
// publishes a longer state; rows below a published length are never
// rewritten and a reader never indexes past the length of the state it
// loaded. New labels go at the dictionary's tail the same way, so a reader
// never finds a label ID its dictionary does not cover. A renumbering
// rebuild publishes fresh arrays (refresh) and leaves the old ones to the
// fragments that pinned them.
type treeSource struct {
	mu    sync.RWMutex // guards tree structure (walks and ASCII renders vs appendChild)
	tree  *xmltree.Tree
	an    *analysis.Analyzer
	state atomic.Pointer[srcState]
	// dict maps a label to its dictionary ID; only the writer (refresh,
	// extend) reads or writes it.
	dict map[string]uint32
}

// srcState is one published version of a source's ID-aligned tables: the
// label column (4 bytes a node) and dictionary, and for a tree the
// pre-order node list and each node's analyzed content set. A node table
// ID indexes each of them (the engine's table is built over the same
// pre-order walk). A store's state has its labels and the store, whose
// content sets it reads.
type srcState struct {
	labels prune.Labels
	nodes  []*xmltree.Node
	words  [][]string
	store  *store.Store
}

// content returns node id's analyzed content set (sorted, read-only): a
// tree's word row or the store's content column, a constant-time,
// allocation-free lookup either way.
func (s *srcState) content(id nid.ID) []string {
	if s.store != nil {
		return s.store.ContentAt(int(id))
	}
	return s.words[id]
}

func newTreeSource(t *xmltree.Tree, an *analysis.Analyzer) *treeSource {
	s := &treeSource{tree: t, an: an}
	s.refresh()
	return s
}

// refresh rebuilds the ID-aligned caches from scratch after the tree
// changed shape (the renumbering rebuild path).
func (s *treeSource) refresh() {
	nodes := s.tree.Nodes()
	st := &srcState{nodes: nodes, words: make([][]string, len(nodes))}
	st.labels.IDs = make([]uint32, len(nodes))
	s.dict = map[string]uint32{}
	for i, n := range nodes {
		st.words[i] = s.an.ContentSet(n.ContentPieces()...)
		st.labels.IDs[i] = s.intern(&st.labels.Names, n.Label)
	}
	s.state.Store(st)
}

// intern returns label's dictionary ID, appending label to *names when it
// is new.
func (s *treeSource) intern(names *[]string, label string) uint32 {
	id, ok := s.dict[label]
	if !ok {
		id = uint32(len(*names))
		*names = append(*names, label)
		s.dict[label] = id
	}
	return id
}

// appendChild splices e under parent as its last child (exclusive lock —
// readers walking the tree see either before or after, never a torn
// child slice) and returns the attached subtree root.
func (s *treeSource) appendChild(parent dewey.Code, e xmltree.E) (*xmltree.Node, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tree.AppendChild(parent, e)
}

// extend publishes a state with the new tail nodes appended — the delta
// append path, where IDs of existing nodes are stable and only the tail
// grows. The rows land on the previous state's arrays while their amortized
// capacity lasts, so the cost is the appended rows, not the document.
func (s *treeSource) extend(nodes []*xmltree.Node, words [][]string) {
	st := s.state.Load()
	labels := st.labels
	for _, n := range nodes {
		labels.IDs = append(labels.IDs, s.intern(&labels.Names, n.Label))
	}
	s.state.Store(&srcState{
		labels: labels,
		nodes:  append(st.nodes, nodes...),
		words:  append(st.words, words...),
	})
}

func (s *treeSource) pin() *srcState { return s.state.Load() }

func (s *treeSource) renderASCII(f *Fragment) string {
	keep := f.keepSet()
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := s.tree.NodeAt(f.v.snap.Table().Code(f.keptIDs[0]))
	if n == nil {
		return ""
	}
	return xmltree.ASCIITree(n, keep)
}

// renderXMLTo writes the kept nodes (pre-order, ancestor-closed, the
// fragment root first) as XML, byte for byte what xmltree.WriteFragmentXML
// writes for the same keep set. Nodes are resolved by ID from the tables the
// fragment pinned when it was materialized — a node's label, attributes and
// text never change once it is attached — so the render takes no lock, looks
// nothing up by Dewey key and never visits a child that was not kept. An
// element has kept children exactly when the next kept node lies deeper.
func (s *treeSource) renderXMLTo(w io.Writer, f *Fragment) error {
	bp := renderBufs.Get().(*[]byte)
	b := (*bp)[:0]
	defer func() { *bp = b; renderBufs.Put(bp) }()
	var open [32]string // labels of the elements still open, outermost first
	stack := open[:0]
	closeTop := func() {
		b = appendIndent(b, len(stack)-1)
		b = append(b, '<', '/')
		b = append(b, stack[len(stack)-1]...)
		b = append(b, '>', '\n')
		stack = stack[:len(stack)-1]
	}
	tab, nodes := f.v.snap.Table(), f.v.src.nodes
	rootDepth := tab.Depth(f.keptIDs[0])
	for i, id := range f.keptIDs {
		n := nodes[id]
		d := tab.Depth(id)
		depth := int(d - rootDepth)
		for len(stack) > depth {
			closeTop()
		}
		b = appendIndent(b, depth)
		b = append(b, '<')
		b = append(b, n.Label...)
		for _, a := range n.Attrs {
			b = append(b, ' ')
			b = append(b, a.Name...)
			b = append(b, '=', '"')
			b = appendXMLEscaped(b, a.Value)
			b = append(b, '"')
		}
		keptKids := i+1 < len(f.keptIDs) && tab.Depth(f.keptIDs[i+1]) > d
		switch {
		case keptKids:
			b = append(b, '>')
			b = appendXMLEscaped(b, n.Text)
			b = append(b, '\n')
			stack = append(stack, n.Label)
		case n.Text == "":
			b = append(b, '/', '>', '\n')
		default:
			b = append(b, '>')
			b = appendXMLEscaped(b, n.Text)
			b = append(b, '<', '/')
			b = append(b, n.Label...)
			b = append(b, '>', '\n')
		}
		if len(b) >= renderFlush {
			if _, err := w.Write(b); err != nil {
				return err
			}
			b = b[:0]
		}
	}
	for len(stack) > 0 {
		closeTop()
	}
	_, err := w.Write(b)
	return err
}

func appendIndent(b []byte, depth int) []byte {
	for ; depth > 0; depth-- {
		b = append(b, ' ', ' ')
	}
	return b
}

// appendXMLEscaped appends s the way xmltree's writer escapes it — the four
// markup characters as entities, a byte that is not UTF-8 as U+FFFD —
// copying the clean runs between them whole.
func appendXMLEscaped(b []byte, s string) []byte {
	clean := 0 // start of the run not yet copied
	for i := 0; i < len(s); {
		var esc string
		switch c := s[i]; {
		case c == '<':
			esc = "&lt;"
		case c == '>':
			esc = "&gt;"
		case c == '&':
			esc = "&amp;"
		case c == '"':
			esc = "&quot;"
		case c >= utf8.RuneSelf:
			if r, size := utf8.DecodeRuneInString(s[i:]); r != utf8.RuneError || size != 1 {
				i += size
				continue
			}
			esc = string(utf8.RuneError)
		default:
			i++
			continue
		}
		b = append(b, s[clean:i]...)
		b = append(b, esc...)
		i++
		clean = i
	}
	return append(b, s[clean:]...)
}

// storeSource serves labels and content from the shredded tables. Node IDs
// equal element row indices (store.BuildIndex shares the store's node
// table), so ID lookups are direct column accesses; its one srcState holds
// the store's label column and table as they are (zero-copy under mmap).
// Original text values are not stored (only their content words are), so
// rendering shows the element skeleton with each node's content words.
type storeSource struct {
	state *srcState
}

func newStoreSource(st *store.Store) *storeSource {
	return &storeSource{state: &srcState{labels: prune.Labels{IDs: st.LabelIDs(), Names: st.Labels()}, store: st}}
}

func (s *storeSource) pin() *srcState { return s.state }

func (s *storeSource) renderASCII(f *Fragment) string {
	var b strings.Builder
	tab := f.v.snap.Table()
	rootDepth := tab.Depth(f.keptIDs[0])
	for _, id := range f.keptIDs {
		c := tab.Code(id)
		b.WriteString(strings.Repeat("  ", int(tab.Depth(id)-rootDepth)))
		fmt.Fprintf(&b, "%s (%s)", c, s.state.labels.Of(id))
		if words := s.state.content(id); len(words) > 0 {
			fmt.Fprintf(&b, " {%s}", strings.Join(words, " "))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// renderBufs recycles the XML renderers' output buffers; renderFlush is the
// size at which a render in progress hands what it has to the writer, so a
// pooled buffer stays small however large the fragment.
var renderBufs = sync.Pool{New: func() any { return new([]byte) }}

const renderFlush = 32 << 10

// renderXMLTo renders the element skeleton of the kept nodes (pre-order,
// ancestor-closed) with each node's content words: tags, indentation and
// words are appended to one pooled buffer, labels and words resolved by
// row index.
func (s *storeSource) renderXMLTo(w io.Writer, f *Fragment) error {
	bp := renderBufs.Get().(*[]byte)
	b := (*bp)[:0]
	defer func() { *bp = b; renderBufs.Put(bp) }()
	var open [32]nid.ID // the elements still open, outermost first
	stack := open[:0]
	closeTop := func() {
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		b = appendIndent(b, len(stack))
		b = append(b, '<', '/')
		b = append(b, s.state.labels.Of(top)...)
		b = append(b, '>', '\n')
	}
	tab := f.v.snap.Table()
	rootDepth := tab.Depth(f.keptIDs[0])
	for _, id := range f.keptIDs {
		// Ancestor-closed pre-order: the open elements are exactly the
		// node's ancestors once the stack is as deep as the node.
		for depth := int(tab.Depth(id) - rootDepth); len(stack) > depth; {
			closeTop()
		}
		b = appendIndent(b, len(stack))
		b = append(b, '<')
		b = append(b, s.state.labels.Of(id)...)
		b = append(b, '>')
		for j, word := range s.state.content(id) {
			if j > 0 {
				b = append(b, ' ')
			}
			b = append(b, word...)
		}
		b = append(b, '\n')
		stack = append(stack, id)
		if len(b) >= renderFlush {
			if _, err := w.Write(b); err != nil {
				return err
			}
			b = b[:0]
		}
	}
	for len(stack) > 0 {
		closeTop()
	}
	_, err := w.Write(b)
	return err
}
