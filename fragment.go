package xks

import (
	"io"
	"math/bits"
	"slices"
	"strings"

	"xks/internal/dewey"
	"xks/internal/nid"
	"xks/internal/snippet"
)

// FragmentNode is one kept node of a meaningful fragment: 24 bytes, paid per
// kept node of every answer — its Dewey code and the mask of the query
// keywords it matched. Everything else about Nodes[i] is read by ID from the
// tables its request pinned: Fragment.NodeLabel, NodeLevel, NodeText and
// NodeMatched.
type FragmentNode struct {
	// Dewey is the node's Dewey code in dotted form, e.g. "0.2.0.1".
	Dewey string
	// mask has bit i set when the node matched the query's i-th keyword.
	mask uint64
}

// IsKeywordNode reports whether the node matched query keywords.
func (n FragmentNode) IsKeywordNode() bool { return n.mask != 0 }

// Fragment is one meaningful RTF of a search result. Its exported fields
// are read-only: fragments are carved from backing arrays shared with the
// other fragments of their block (a Search or Corpus.Search page, assembled
// up to 64 at a time) or of their window (a stream's windows of 1, 2, 4, …
// up to 64 fragments) — their Nodes, their Dewey and Root strings, their
// kept IDs — so a retained fragment keeps at most 64 fragments' arrays
// alive. A kept node's facts beyond its Dewey code (NodeLabel, NodeLevel,
// NodeText, NodeMatched) are read by ID from the tables its request pinned,
// so they hold across later writes to the engine. XML, WriteXML, ASCII and
// Contains read those tables too, on each call: a fragment memoizes nothing.
type Fragment struct {
	// Root is the Dewey code of the fragment's interesting LCA node: the
	// first node's Dewey string (the root is always kept, first).
	Root string
	// RootLabel is that node's element name: NodeLabel(0).
	RootLabel string
	// IsSLCA reports whether the root is a smallest LCA (no interesting
	// LCA below it).
	IsSLCA bool
	// Nodes are the kept nodes in pre-order.
	Nodes []FragmentNode
	// Score is the ranking score (populated when Request.Rank is set).
	Score float64
	// Pruned is the number of nodes the pruning mechanism removed from the
	// unpruned fragment tree (so Pruned+len(Nodes) is the tree's full
	// size) — the per-fragment effectiveness number tracing reports.
	Pruned int

	// v is what every fragment of the document shares in its request: the
	// snapshot's node table, which keptIDs (the pre-order, ancestor-closed
	// keep-set from pruning) index — a kept node's Dewey code and depth are
	// zero-copy lookups there — the source tables pinned with it, so a
	// fragment cached across later appends reads and renders only its own
	// request's nodes (labels, texts, content sets), and the plan's keywords.
	v       *view
	keptIDs []nid.ID
}

// Len returns the number of kept nodes.
func (f *Fragment) Len() int { return len(f.Nodes) }

// NodeLabel returns Nodes[i]'s element name, read from the pinned label
// column.
func (f *Fragment) NodeLabel(i int) string { return f.v.src.labels.Of(f.keptIDs[i]) }

// NodeLevel returns Nodes[i]'s depth in the document (root = 0), read from
// the pinned node table.
func (f *Fragment) NodeLevel(i int) int { return int(f.v.snap.Table().Depth(f.keptIDs[i])) }

// NodeText returns Nodes[i]'s own text, read from the pinned text column.
func (f *Fragment) NodeText(i int) string { return f.v.src.text.Row(f.keptIDs[i]) }

// NodeMatched lists the query keywords Nodes[i] matched, in query order (nil
// for a node that matched none). When the matched keywords are adjacent in
// the query — always so for one — the list is a capped view of the plan's
// keywords, shared and read-only; otherwise it is built on each call.
func (f *Fragment) NodeMatched(i int) []string {
	m := f.Nodes[i].mask
	if m == 0 {
		return nil
	}
	kw := f.v.keywords
	lo, hi := bits.TrailingZeros64(m), 64-bits.LeadingZeros64(m)
	if bits.OnesCount64(m) == hi-lo {
		return kw[lo:hi:hi]
	}
	out := make([]string, 0, bits.OnesCount64(m))
	for ; m != 0; m &= m - 1 {
		out = append(out, kw[bits.TrailingZeros64(m)])
	}
	return out
}

// Contains reports whether the fragment kept the node with the given Dewey
// code (dotted form): the code's ID in the pinned node table, looked up in
// the kept IDs (ascending, being pre-order).
func (f *Fragment) Contains(deweyCode string) bool {
	c, err := dewey.Parse(deweyCode)
	if err != nil {
		return false
	}
	id, ok := f.v.snap.Table().Find(c)
	if !ok {
		return false
	}
	_, kept := slices.BinarySearch(f.keptIDs, id)
	return kept
}

// Snippet returns a query-biased one-line summary of the fragment: every
// query keyword shown highlighted in its surrounding text, labelled by the
// element it occurs in (in the spirit of the snippet generation work the
// paper cites as related).
func (f *Fragment) Snippet() string {
	var sources []snippet.Source
	for i, n := range f.Nodes {
		if !n.IsKeywordNode() {
			continue
		}
		text := f.NodeText(i)
		if text == "" {
			// A keyword matched through a label or an attribute has no
			// text of its own: use the content words the request pinned
			// instead.
			var b strings.Builder
			for j, w := range f.v.src.content.Row(f.keptIDs[i]) {
				if j > 0 {
					b.WriteByte(' ')
				}
				b.WriteString(f.v.src.content.Words[w])
			}
			text = b.String()
		}
		sources = append(sources, snippet.Source{Label: f.NodeLabel(i), Text: text})
	}
	return f.v.eng.snip.Generate(sources, f.v.words)
}

// ASCII renders the fragment as an indented tree in the style of the
// paper's figures, each node with its quoted text.
func (f *Fragment) ASCII() string { return f.v.src.ascii(f.v.snap.Table(), f.keptIDs) }

// XML serializes the fragment as an XML snippet: the kept elements with
// their attributes and text, as the document holds them.
func (f *Fragment) XML() string {
	var b strings.Builder
	f.WriteXML(&b) // a Builder's writes cannot fail
	return b.String()
}

// WriteXML renders the fragment's XML into w — byte-identical to XML(),
// but without building the string: the serving layer renders each cached
// page once, straight into its encoded response bytes, and keeps those
// instead.
func (f *Fragment) WriteXML(w io.Writer) error {
	return f.v.src.writeXML(w, f.v.snap.Table(), f.keptIDs)
}
