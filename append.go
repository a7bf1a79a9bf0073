package xks

import (
	"errors"
	"fmt"
	"time"

	"xks/internal/delta"
	"xks/internal/dewey"
	"xks/internal/index"
	"xks/internal/nid"
	"xks/internal/xmltree"
)

// AppendXML parses an XML snippet and appends it as the last child of the
// node at parentDewey (dotted form, e.g. "0.2") — the engine's support for
// the growing documents the axiomatic data-monotonicity property is about.
//
// The parent must lie on the tree's rightmost spine: its subtree ends at
// the current end of the node table, which is always true of the document
// root. The new nodes then get the next dense IDs at the tail of the node
// table and of the source's ID-aligned tables, their postings land in an
// immutable delta segment, and a new head is published atomically. Every
// one of those structures grows on shared backing arrays (the discipline
// internal/delta's package comment states once): no existing ID moves, no
// base posting list is rewritten, no table is copied, and the cost is
// proportional to the appended subtree, not the index — about 5 KB
// allocated for a four-node record on a 2 k-node and on a 65 k-node
// document alike (TestAppendAllocBytesDoNotScale; it was 121 KB and 2.6 MB
// while each append copied the source tables). Concurrent searches are safe
// and unaffected: in-flight queries and outstanding cursors keep reading
// the snapshot they pinned.
//
// A parent off the spine fails with ErrOffSpine: its new child would splice
// into the middle of the pre-order and renumber every later node. Any
// failure leaves the source tables and the published head as they were.
// An engine over a store takes appends too, and never writes to the store
// or its file (see srcState).
func (e *Engine) AppendXML(parentDewey, snippet string) error {
	start := time.Now()
	if err := e.appendXML(parentDewey, snippet); err != nil {
		return err
	}
	e.counters.RecordAppend(time.Since(start))
	return nil
}

// ErrOffSpine is AppendXML's refusal of a parent that does not lie on the
// document's rightmost spine.
var ErrOffSpine = errors.New("parent is off the document's rightmost spine")

func (e *Engine) appendXML(parentDewey, snippet string) error {
	parent, err := dewey.Parse(parentDewey)
	if err != nil {
		return fmt.Errorf("xks: bad parent code: %w", err)
	}
	sub, err := xmltree.ParseString(snippet)
	if err != nil {
		return fmt.Errorf("xks: bad snippet: %w", err)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	h := e.head.Load()
	pid, ok := h.Tab.Find(parent)
	if !ok {
		return fmt.Errorf("xks: no node at %s", parent)
	}
	if h.Tab.SubtreeEnd(pid) != nid.ID(h.Tab.Len()) {
		return fmt.Errorf("xks: %w: appending under %s would renumber the nodes after its subtree; append under a node whose subtree ends the document (the root always does)", ErrOffSpine, parent)
	}

	// Everything the publish needs is collected before anything changes:
	// from one walk of the subtree, its rows (the segment's posting lists
	// and the source columns' tail), and the Dewey codes its nodes will
	// take under the parent's next child ordinal, for the table tail: the
	// parent's subtree ends the table, so its last child is the last
	// node's ancestor-or-self one level below the parent.
	rows := index.Analyze(sub, e.an)
	next := uint32(0)
	if last := nid.ID(h.Tab.Len() - 1); last != pid {
		next = h.Tab.Code(last)[len(parent)] + 1
	}
	at := parent.Child(next)
	start := nid.ID(h.Tab.Len())
	codes := make([]dewey.Code, rows.Tab.Len())
	for i := range codes {
		codes[i] = append(at[:len(at):len(at)], rows.Tab.Code(nid.ID(i))[1:]...)
	}
	tab, _, err := h.Tab.Extend(codes)
	if err != nil {
		return err
	}
	seg, err := delta.NewSegment(start, nid.ID(tab.Len()), rows.Postings(start))
	if err != nil {
		return err
	}
	if e.tree != nil {
		if err := e.tree.AppendChild(parent, sub.Root); err != nil {
			return err
		}
	}
	e.publish(rows.Labels, rows.Content(), rows.Text, rows.Attrs)
	e.head.Store(h.Append(tab, seg))
	return nil
}
