package xks

import (
	"io"
	"strconv"
	"sync"

	"xks/internal/index"
	"xks/internal/nid"
	"xks/internal/prune"
	"xks/internal/xmltree"
)

// srcState is the document source: one published version of the tables a
// node table ID indexes. Both backings publish the same two columns in the
// same form: the label column (4 bytes a node) with its dictionary, and the
// content column as the lookup pruning takes (a capacity-capped row of one
// word array, allocation-free). A tree's state adds what a store does not
// keep, each node's text and attributes, through the pre-order node list;
// that is the one place the backings differ, and only the text accessor and
// the renderers read it.
//
// A request pins the state current after its snapshot (view.src), and its
// fragments read labels, texts and content sets and render from that state
// and the snapshot's node table alone — never from the engine or its live
// tree — so a fragment answers alike across later writes.
//
// A tree-backed engine publishes its states under the shared-backing
// discipline of internal/delta's package comment: publish (one writer,
// under the engine's write mutex) appends rows to the columns the previous
// state views and publishes a longer state; rows below a published length
// are never rewritten and a reader never indexes past the length of the
// state it loaded. New labels go at the dictionary's tail the same way, so a
// reader never finds a label ID its dictionary does not cover. A
// store-backed engine publishes one state: the store's label column and
// table as they are (zero-copy under mmap), and its content column.
type srcState struct {
	labels  prune.Labels
	content prune.IDContentFunc
	nodes   []*xmltree.Node // a tree's nodes in pre-order; nil for a store
}

// publish appends rows, the next nodes in pre-order, to the engine's source
// columns and publishes the longer state; the first call adopts the rows of
// the whole document. The cost is the rows, not the document, while the
// columns' amortized capacity lasts. Caller holds e.mu or has not shared e.
func (e *Engine) publish(rows index.Rows) {
	e.labels.Append(rows.Labels)
	e.content = e.content.Append(rows.Content())
	if e.nodes == nil {
		e.nodes = rows.Nodes
	} else {
		e.nodes = append(e.nodes, rows.Nodes...)
	}
	e.src.Store(&srcState{
		labels:  prune.Labels{IDs: e.labels.IDs, Names: e.labels.Names},
		content: e.content.Row,
		nodes:   e.nodes,
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
		if s.nodes == nil {
			b = append(b, '>')
			b = appendWords(b, s.content(id))
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
		if s.nodes == nil {
			if words := s.content(id); len(words) > 0 {
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
