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
// When the parent lies on the tree's rightmost spine (its subtree ends at
// the current end of the node table — always true for the document root),
// the write takes the delta fast path: the new nodes get the next dense
// IDs at the tail of the node table and of the source's ID-aligned tables,
// their postings land in an immutable delta segment, and a new head is
// published atomically. Every one of those structures grows on shared
// backing arrays (the discipline internal/delta's package comment states
// once): no existing ID moves, no base posting list is rewritten, no table
// is copied, and the cost is proportional to the appended subtree, not the
// index — about 5 KB allocated for a four-node record on a 2 k-node and on
// a 65 k-node document alike (TestAppendAllocBytesDoNotScale; it was 121 KB
// and 2.6 MB while each append copied the source tables). Concurrent
// searches are safe and unaffected: in-flight queries and outstanding
// cursors keep reading the snapshot they pinned.
//
// Appending anywhere else would renumber IDs, so it falls back to a full
// reindex under a new rebuild generation — correct but O(document), and
// cursors issued before it resume as ErrStaleCursor. The fallback is not
// snapshot-isolated: like the pre-delta engine, it must not race in-flight
// reads of the same engine. A caller that cannot rule those out — the
// serving layer, a Corpus — uses AppendTail, which refuses such a parent
// instead.
//
// Only tree-backed engines support appends (a store is a frozen shredded
// snapshot).
func (e *Engine) AppendXML(parentDewey, snippet string) error {
	return e.timedAppend(parentDewey, snippet, false)
}

// ErrOffSpine is AppendTail's refusal of a parent that does not lie on the
// document's rightmost spine.
var ErrOffSpine = errors.New("parent is off the document's rightmost spine")

// AppendTail is AppendXML restricted to the snapshot-isolated delta fast
// path, safe against any number of concurrent searches: a parent off the
// rightmost spine fails with ErrOffSpine and the document is left untouched,
// where AppendXML would renumber it under the readers.
func (e *Engine) AppendTail(parentDewey, snippet string) error {
	return e.timedAppend(parentDewey, snippet, true)
}

func (e *Engine) timedAppend(parentDewey, snippet string, tailOnly bool) error {
	start := time.Now()
	if err := e.appendXML(parentDewey, snippet, tailOnly); err != nil {
		return err
	}
	e.counters.RecordAppend(time.Since(start))
	return nil
}

func (e *Engine) appendXML(parentDewey, snippet string, tailOnly bool) error {
	if e.tree == nil {
		return fmt.Errorf("xks: AppendXML requires a tree-backed engine")
	}
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
		// Off the rightmost spine: the appended subtree would splice into
		// the middle of the pre-order, renumbering every later ID.
		if tailOnly {
			return fmt.Errorf("xks: %w: appending under %s would renumber the nodes after its subtree; append under a node whose subtree ends the document (the root always does)", ErrOffSpine, parent)
		}
		if _, err := e.tree.AppendChild(parent, treeToE(sub.Root)); err != nil {
			return err
		}
		e.republishRebuilt()
		return nil
	}

	node, err := e.tree.AppendChild(parent, treeToE(sub.Root))
	if err != nil {
		return err
	}
	// One pre-order walk of the new subtree collects everything the
	// publish needs: Dewey codes for the table tail, the segment's posting
	// lists (ascending by construction — IDs increase per node, each word
	// at most once per node), and the source-cache rows.
	start := nid.ID(h.Tab.Len())
	id := start
	var (
		codes    []dewey.Code
		nodes    []*xmltree.Node
		words    [][]string
		postings = map[string][]nid.ID{}
	)
	var rec func(n *xmltree.Node)
	rec = func(n *xmltree.Node) {
		codes = append(codes, n.Code)
		nodes = append(nodes, n)
		ws := e.an.ContentSet(n.ContentPieces()...)
		words = append(words, ws)
		for _, w := range ws {
			postings[w] = append(postings[w], id)
		}
		id++
		for _, c := range n.Children {
			rec(c)
		}
	}
	rec(node)

	tab, _, err := h.Tab.Extend(codes)
	if err == nil {
		var seg *delta.Segment
		seg, err = delta.NewSegment(start, nid.ID(tab.Len()), postings)
		if err == nil {
			e.extend(nodes, words)
			e.head.Store(h.Append(tab, seg))
			return nil
		}
	}
	// The tree already holds the new subtree but the tail publish failed
	// (unreachable through the spine check above); reindex from the tree so
	// the engine stays consistent rather than erroring half-applied.
	e.republishRebuilt()
	return err
}

// republishRebuilt reindexes the mutated tree from scratch and publishes
// it under a new rebuild generation. Caller holds e.mu.
func (e *Engine) republishRebuilt() {
	h := e.head.Load()
	ix := index.BuildAnalyzed(e.tree, e.an, e.refresh().words)
	e.head.Store(&delta.Head{RebuildGen: h.RebuildGen + 1, Tab: ix.Table(), Base: ix})
}

// treeToE converts a parsed subtree back into the builder form AppendChild
// consumes.
func treeToE(n *xmltree.Node) xmltree.E {
	e := xmltree.E{Label: n.Label, Text: n.Text}
	if len(n.Attrs) > 0 {
		e.Attrs = make([]xmltree.Attr, len(n.Attrs))
		copy(e.Attrs, n.Attrs)
	}
	for _, c := range n.Children {
		e.Kids = append(e.Kids, treeToE(c))
	}
	return e
}
