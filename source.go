package xks

import (
	"io"
	"strconv"
	"sync"

	"xks/internal/nid"
	"xks/internal/prune"
	"xks/internal/store"
	"xks/internal/xmltree"
)

// srcState is the document source: one published version of the tables a
// node table ID indexes. Both backings have the label column (4 bytes a
// node) and dictionary. A tree's state adds the pre-order node list and each
// node's analyzed content set (the engine's table is built over the same
// pre-order walk); a store's adds the store, whose content column it reads
// (node IDs equal element row indices, since store.BuildIndex shares the
// store's node table).
//
// A request pins the state current after its snapshot (view.src), and its
// fragments read labels, texts and content sets and render from that state
// and the snapshot's node table alone — never from the engine or its live
// tree — so a fragment answers alike across later writes.
//
// A tree-backed engine publishes its states under the shared-backing
// discipline of internal/delta's package comment: extend (one writer, under
// the engine's write mutex) appends rows on the arrays the previous state
// uses and publishes a longer state; rows below a published length are never
// rewritten and a reader never indexes past the length of the state it
// loaded. New labels go at the dictionary's tail the same way, so a reader
// never finds a label ID its dictionary does not cover. A store-backed
// engine publishes one state: the store's label column and table as they
// are (zero-copy under mmap).
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

// refresh publishes source tables built from the whole tree, with words
// its nodes' content sets in pre-order. Called once, before e is shared.
func (e *Engine) refresh(words [][]string) {
	nodes := e.tree.Nodes()
	st := &srcState{nodes: nodes, words: words}
	st.labels.IDs = make([]uint32, len(nodes))
	e.dict = map[string]uint32{}
	for i, n := range nodes {
		st.labels.IDs[i] = e.intern(&st.labels.Names, n.Label)
	}
	e.src.Store(st)
}

// intern returns label's dictionary ID, appending label to *names when it
// is new. Caller holds e.mu.
func (e *Engine) intern(names *[]string, label string) uint32 {
	id, ok := e.dict[label]
	if !ok {
		id = uint32(len(*names))
		*names = append(*names, label)
		e.dict[label] = id
	}
	return id
}

// extend publishes a state with the new tail nodes appended — the delta
// append path, where IDs of existing nodes are stable and only the tail
// grows. The rows land on the previous state's arrays while their amortized
// capacity lasts, so the cost is the appended rows, not the document.
// Caller holds e.mu.
func (e *Engine) extend(nodes []*xmltree.Node, words [][]string) {
	st := e.src.Load()
	labels := st.labels
	for _, n := range nodes {
		labels.IDs = append(labels.IDs, e.intern(&labels.Names, n.Label))
	}
	e.src.Store(&srcState{
		labels: labels,
		nodes:  append(st.nodes, nodes...),
		words:  append(st.words, words...),
	})
}

// renderBufs recycles writeXML's output buffers; renderFlush is the size at
// which a render in progress hands what it has to the writer, so a pooled
// buffer stays small however large the fragment.
var renderBufs = sync.Pool{New: func() any { return new([]byte) }}

const renderFlush = 32 << 10

// writeXML writes the nodes kept (IDs of tab: pre-order, ancestor-closed,
// the fragment root first) as XML into w. A tree row opens with its
// attributes and escaped text, byte for byte what xmltree.WriteXML writes
// for the subtree restricted to the same keep set: an element closes on its
// own line when it has kept children — exactly when the next kept node lies
// deeper — and an empty leaf closes itself. A store keeps no text, only
// content words, so its row renders the element skeleton: the words on the
// open tag's line, and every element closed on its own line.
func (s *srcState) writeXML(w io.Writer, tab *nid.Table, kept []nid.ID) error {
	bp := renderBufs.Get().(*[]byte)
	b := (*bp)[:0]
	defer func() { *bp = b; renderBufs.Put(bp) }()
	var open [32]string // labels of the elements still open, outermost first
	stack := open[:0]
	closeTop := func() {
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		b = appendIndent(b, len(stack))
		b = append(b, '<', '/')
		b = append(b, top...)
		b = append(b, '>', '\n')
	}
	rootDepth := tab.Depth(kept[0])
	for i, id := range kept {
		// Ancestor-closed pre-order: the open elements are exactly the
		// node's ancestors once the stack is as deep as the node.
		d := tab.Depth(id)
		for len(stack) > int(d-rootDepth) {
			closeTop()
		}
		label := s.labels.Of(id)
		b = appendIndent(b, len(stack))
		b = append(b, '<')
		b = append(b, label...)
		if s.store != nil {
			b = append(b, '>')
			b = appendWords(b, s.store.ContentAt(int(id)))
			b = append(b, '\n')
			stack = append(stack, label)
		} else {
			n := s.nodes[id]
			for _, a := range n.Attrs {
				b = append(b, ' ')
				b = append(b, a.Name...)
				b = append(b, '=', '"')
				b = xmltree.AppendEscaped(b, a.Value)
				b = append(b, '"')
			}
			switch {
			case i+1 < len(kept) && tab.Depth(kept[i+1]) > d:
				b = append(b, '>')
				b = xmltree.AppendEscaped(b, n.Text)
				b = append(b, '\n')
				stack = append(stack, label)
			case n.Text == "":
				b = append(b, '/', '>', '\n')
			default:
				b = append(b, '>')
				b = xmltree.AppendEscaped(b, n.Text)
				b = append(b, '<', '/')
				b = append(b, label...)
				b = append(b, '>', '\n')
			}
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

// ascii renders the nodes kept (as for writeXML) as an indented tree in the
// style of the paper's figures, one "0.2.0.1 (title)" line a node: a tree
// row ends in its quoted text, a store row in its content words in braces.
func (s *srcState) ascii(tab *nid.Table, kept []nid.ID) string {
	var b []byte
	rootDepth := tab.Depth(kept[0])
	for _, id := range kept {
		b = appendIndent(b, int(tab.Depth(id)-rootDepth))
		b = tab.Code(id).AppendString(b)
		b = append(b, ' ', '(')
		b = append(b, s.labels.Of(id)...)
		b = append(b, ')')
		if s.store != nil {
			if words := s.store.ContentAt(int(id)); len(words) > 0 {
				b = append(b, ' ', '{')
				b = appendWords(b, words)
				b = append(b, '}')
			}
		} else if text := s.nodes[id].Text; text != "" {
			b = append(b, ' ')
			b = strconv.AppendQuote(b, text)
		}
		b = append(b, '\n')
	}
	return string(b)
}

func appendIndent(b []byte, depth int) []byte {
	for ; depth > 0; depth-- {
		b = append(b, ' ', ' ')
	}
	return b
}

// appendWords appends a store row's content words, space-separated.
func appendWords(b []byte, words []string) []byte {
	for j, word := range words {
		if j > 0 {
			b = append(b, ' ')
		}
		b = append(b, word...)
	}
	return b
}
