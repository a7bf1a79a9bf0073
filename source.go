package xks

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"

	"xks/internal/analysis"
	"xks/internal/dewey"
	"xks/internal/nid"
	"xks/internal/store"
	"xks/internal/xmltree"
)

// docSource abstracts where node labels, content and rendering come from:
// the parsed tree (FromTree / Load*) or the shredded store (FromStore).
// The hot path addresses nodes by table ID (labelOfID/contentOfID/
// nodeTextID — constant-time, allocation-free lookups); the code-based
// forms remain for the reference/eager paths and label-predicate display.
// Renderers receive the fragment itself and take the view of the kept node
// set they need: the tree renderer the dewey-keyed map (f.keepSet, built
// on first use), the store renderer the ordered slices (f.kept, f.keptIDs)
// — so a store-backed render never builds the map.
type docSource interface {
	labelOf(c dewey.Code) string
	contentOf(c dewey.Code) []string
	nodeText(c dewey.Code) string
	labelOfID(id nid.ID) string
	contentOfID(id nid.ID) []string
	nodeTextID(id nid.ID) string
	renderASCII(f *Fragment) string
	renderXML(f *Fragment) string
	// renderXMLTo writes the XML rendering into w without building the
	// string — the path the serving layer's response encoder uses.
	renderXMLTo(w io.Writer, f *Fragment) error
}

// treeSource serves everything from the in-memory document tree.
//
// Concurrency: the tail-append write path mutates the tree (AppendChild
// touches the parent's child slice and the tree's key map) while readers
// walk it, so structural access is guarded by mu — shared for NodeAt
// lookups and renders, exclusive for appendChild. The ID-aligned caches
// live in an atomically swapped srcState instead: the hot path
// (labelOfID/contentOfID during pruning and scoring) stays lock-free.
// Appends extend the arrays and publish a longer state; a reader that
// loaded an older state never indexes past its own length, so earlier
// prefixes stay immutable. Snapshot renders of pre-append states remain
// byte-identical because appends only add last children, which keep-map
// filtering excludes.
type treeSource struct {
	mu    sync.RWMutex // guards tree structure (walks and renders vs appendChild)
	tree  *xmltree.Tree
	an    *analysis.Analyzer
	state atomic.Pointer[srcState]
}

// srcState is one published version of the pre-order node list and each
// node's analyzed content set. A node table ID doubles as an index into
// both (the engine's table is built over the same pre-order walk).
type srcState struct {
	nodes []*xmltree.Node
	words [][]string
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
	words := make([][]string, len(nodes))
	for i, n := range nodes {
		words[i] = s.an.ContentSet(n.ContentPieces()...)
	}
	s.state.Store(&srcState{nodes: nodes, words: words})
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
// grows.
func (s *treeSource) extend(nodes []*xmltree.Node, words [][]string) {
	st := s.state.Load()
	s.state.Store(&srcState{
		nodes: append(st.nodes[:len(st.nodes):len(st.nodes)], nodes...),
		words: append(st.words[:len(st.words):len(st.words)], words...),
	})
}

func (s *treeSource) nodeAt(c dewey.Code) *xmltree.Node {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tree.NodeAt(c)
}

func (s *treeSource) labelOf(c dewey.Code) string {
	if n := s.nodeAt(c); n != nil {
		return n.Label
	}
	return ""
}

func (s *treeSource) contentOf(c dewey.Code) []string {
	if n := s.nodeAt(c); n != nil {
		return s.an.ContentSet(n.ContentPieces()...)
	}
	return nil
}

func (s *treeSource) nodeText(c dewey.Code) string {
	if n := s.nodeAt(c); n != nil {
		return n.Text
	}
	return ""
}

func (s *treeSource) labelOfID(id nid.ID) string {
	if st := s.state.Load(); int(id) < len(st.nodes) {
		return st.nodes[id].Label
	}
	return ""
}

func (s *treeSource) contentOfID(id nid.ID) []string {
	if st := s.state.Load(); int(id) < len(st.words) {
		return st.words[id]
	}
	return nil
}

func (s *treeSource) nodeTextID(id nid.ID) string {
	if st := s.state.Load(); int(id) < len(st.nodes) {
		return st.nodes[id].Text
	}
	return ""
}

func (s *treeSource) renderASCII(f *Fragment) string {
	keep := f.keepSet()
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := s.tree.NodeAt(f.rootCode)
	if n == nil {
		return ""
	}
	return xmltree.ASCIITree(n, keep)
}

func (s *treeSource) renderXML(f *Fragment) string {
	var b strings.Builder
	if err := s.renderXMLTo(&b, f); err != nil {
		return ""
	}
	return b.String()
}

func (s *treeSource) renderXMLTo(w io.Writer, f *Fragment) error {
	keep := f.keepSet()
	// Held for the duration of the write: a slow w delays appends, but
	// never corrupts them.
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := s.tree.NodeAt(f.rootCode)
	if n == nil {
		return nil
	}
	return xmltree.WriteFragmentXML(w, n, keep)
}

// storeSource serves labels and content from the shredded tables. Node IDs
// equal element row indices (store.BuildIndex builds the table over the
// element rows in order), so ID lookups are direct row accesses. Original
// text values are not stored (only their content words are), so rendering
// shows the element skeleton with each node's content words.
type storeSource struct {
	st *store.Store
}

func (s *storeSource) labelOf(c dewey.Code) string { return s.st.LabelOf(c) }

func (s *storeSource) contentOf(c dewey.Code) []string { return s.st.ContentOf(c) }

func (s *storeSource) nodeText(c dewey.Code) string { return "" }

func (s *storeSource) labelOfID(id nid.ID) string { return s.st.LabelAt(int(id)) }

func (s *storeSource) contentOfID(id nid.ID) []string { return s.st.ContentAt(int(id)) }

func (s *storeSource) nodeTextID(id nid.ID) string { return "" }

func (s *storeSource) renderASCII(f *Fragment) string {
	var b strings.Builder
	for i, c := range f.kept {
		b.WriteString(strings.Repeat("  ", len(c)-len(f.rootCode)))
		fmt.Fprintf(&b, "%s (%s)", c, s.labelOfID(f.keptIDs[i]))
		if words := s.contentOfID(f.keptIDs[i]); len(words) > 0 {
			fmt.Fprintf(&b, " {%s}", strings.Join(words, " "))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func (s *storeSource) renderXML(f *Fragment) string {
	var b strings.Builder
	if err := s.renderXMLTo(&b, f); err != nil {
		return ""
	}
	return b.String()
}

// renderBufs recycles the store renderer's output buffers; renderFlush is
// the size at which a render in progress hands what it has to the writer,
// so a pooled buffer stays small however large the fragment.
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
	var open [32]int32 // indices into f.kept of the elements still open
	stack := open[:0]
	indent := func(depth int) {
		for ; depth > 0; depth-- {
			b = append(b, ' ', ' ')
		}
	}
	closeTop := func() {
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		indent(len(stack))
		b = append(b, '<', '/')
		b = append(b, s.labelOfID(f.keptIDs[top])...)
		b = append(b, '>', '\n')
	}
	for i, c := range f.kept {
		for len(stack) > 0 && !f.kept[stack[len(stack)-1]].IsAncestorOf(c) {
			closeTop()
		}
		indent(len(stack))
		b = append(b, '<')
		b = append(b, s.labelOfID(f.keptIDs[i])...)
		b = append(b, '>')
		for j, word := range s.contentOfID(f.keptIDs[i]) {
			if j > 0 {
				b = append(b, ' ')
			}
			b = append(b, word...)
		}
		b = append(b, '\n')
		stack = append(stack, int32(i))
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
