package xks

import (
	"io"
	"strconv"
	"sync"

	"xks/internal/dewey"
	"xks/internal/index"
	"xks/internal/nid"
	"xks/internal/xmltree"
)

// srcState is the document source: one published version of the store's
// columns a node table ID indexes — the label column (4 bytes a node) with
// its dictionary, the content column (4 bytes a posting: term IDs over the
// engine's one word dictionary, a row in the lexical order of its words)
// that pruning reads cIDs from, and the text and attribute columns the
// renderers and NodeText read; no row read allocates.
//
// A request pins the state current after its snapshot (view.src), and its
// fragments read labels, texts and content sets and render from that state
// and the snapshot's node table alone — never from the engine — so a
// fragment answers alike across later writes.
//
// An engine publishes its states under the shared-backing discipline of
// internal/delta's package comment: publish (one writer, under the
// engine's write mutex) appends rows to the columns the previous state
// views and publishes a longer state; rows below a published length are
// never rewritten and a reader never indexes past the length of the state
// it loaded. New labels and new content words go at their dictionaries'
// tails the same way, so a reader never finds an ID its dictionary does
// not cover. An engine starts from its store's columns as they are:
// zero-copy under mmap, and capacity-capped, so its first append copies
// them rather than write into the store, and holds no reference that keeps
// the store's alive once no pinned state reads them.
type srcState struct {
	labels      index.LabelColumn
	content     index.Content
	text, attrs index.Strings
}

// publish appends the next nodes' rows, in pre-order, to the columns of
// the current state and publishes the longer state; an engine's first call
// adopts its store's columns, the whole document. The cost is the rows,
// not the document, while the columns' amortized capacity lasts. Caller
// holds e.mu or has not shared e.
func (e *Engine) publish(labels index.LabelColumn, content index.Content, text, attrs index.Strings) {
	var s srcState
	if cur := e.src.Load(); cur != nil {
		s = *cur
	}
	s.labels.Append(labels)
	s.content = s.content.Append(content)
	s.text, s.attrs = s.text.Append(text), s.attrs.Append(attrs)
	e.src.Store(&s)
}

// renderBufs recycles writeXML's output buffers; renderFlush is the size at
// which a render in progress hands what it has to the writer, so a pooled
// buffer stays small however large the fragment.
var renderBufs = sync.Pool{New: func() any { return new([]byte) }}

const renderFlush = 32 << 10

// writeXML writes the nodes kept (IDs of tab: pre-order, ancestor-closed,
// the fragment root first) as XML into w, byte for byte what
// xmltree.WriteXML writes for the subtree restricted to the same keep set:
// a row opens with its attributes and its escaped text, an element closes
// on its own line when it has kept children — exactly when the next kept
// node lies deeper — and an empty leaf closes itself.
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
		label, text := s.labels.Of(id), s.text.Row(id)
		b = appendIndent(b, len(stack))
		b = append(b, '<')
		b = append(b, label...)
		b = append(b, s.attrs.Row(id)...)
		switch {
		case i+1 < len(kept) && tab.Depth(kept[i+1]) > d:
			b = append(b, '>')
			b = xmltree.AppendEscaped(b, text)
			b = append(b, '\n')
			stack = append(stack, label)
		case text == "":
			b = append(b, '/', '>', '\n')
		default:
			b = append(b, '>')
			b = xmltree.AppendEscaped(b, text)
			b = append(b, '<', '/')
			b = append(b, label...)
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

// ascii renders the nodes kept (as for writeXML) as an indented tree in the
// style of the paper's figures, one "0.2.0.1 (title)" line a node, ending
// in the node's quoted text when it has any.
func (s *srcState) ascii(tab *nid.Table, kept []nid.ID) string {
	var b []byte
	var code dewey.Code
	rootDepth := tab.Depth(kept[0])
	for _, id := range kept {
		b = appendIndent(b, int(tab.Depth(id)-rootDepth))
		code = tab.AppendCode(code[:0], id)
		b = code.AppendString(b)
		b = append(b, ' ', '(')
		b = append(b, s.labels.Of(id)...)
		b = append(b, ')')
		if text := s.text.Row(id); text != "" {
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
