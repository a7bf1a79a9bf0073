package xks

import (
	"io"
	"strings"
	"sync"
	"sync/atomic"

	"xks/internal/dewey"
	"xks/internal/nid"
	"xks/internal/snippet"
)

// FragmentNode is one kept node of a meaningful fragment.
type FragmentNode struct {
	// Dewey is the node's Dewey code in dotted form, e.g. "0.2.0.1".
	Dewey string
	// Label is the element name.
	Label string
	// Text is the element's own text value, if any.
	Text string
	// Level is the node depth in the document (root = 0).
	Level int
	// IsKeywordNode reports whether the node matched query keywords.
	IsKeywordNode bool
	// Matched lists the query keywords this node matched. Nodes of one
	// search's fragments that matched the same keywords share one slice:
	// read-only.
	Matched []string
}

// Fragment is one meaningful RTF of a search result. Its exported fields
// are read-only: fragments are carved from backing arrays shared with the
// other fragments of their block (a Search or Corpus.Search page, assembled
// up to 64 at a time) or of their window (a stream's windows of 1, 2, 4, …
// up to 64 fragments) — their Nodes, their Dewey and Root strings, their
// kept IDs — so a retained fragment keeps at most 64 fragments' arrays
// alive.
type Fragment struct {
	// Root is the Dewey code of the fragment's interesting LCA node: the
	// first node's Dewey string (the root is always kept, first).
	Root string
	// RootLabel is that node's element name.
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

	// keptIDs is the ordered (pre-order, ancestor-closed, so root first)
	// keep-set from pruning as IDs into tab, the node table of the snapshot
	// the search read: a kept node's Dewey code and depth are zero-copy
	// lookups there, so no renderer re-parses a string key and the fragment
	// carries no Dewey slices of its own. st is the source's ID-aligned
	// tables as of materialization, which keptIDs also index — held here so
	// a fragment cached across a renumbering rebuild still renders its own
	// nodes (for a store, its frozen label column). keep is the same set
	// keyed by dewey key for membership tests, built lazily (via keepSet)
	// because only Contains and the ASCII tree renderer consult it — neither
	// the search hot path nor an XML render pays for the map.
	tab     *nid.Table
	keptIDs []nid.ID
	st      *srcState
	keep    map[string]bool
	src     docSource
	words   []string
	snip    *snippet.Generator

	// Rendered forms are computed once and shared: fragments are cached by
	// the serving layer (internal/service) and may be rendered concurrently
	// by many requests. xmlDone publishes xmlText to WriteXML without
	// touching the Once (set inside xmlOnce.Do after xmlText is assigned).
	xmlText   string
	asciiText string
	// The Onces sit together so their 12 bytes each and the flag pack into
	// 40: every assembled fragment pays the struct's size in its slab, and
	// this keeps it within 288 bytes (TestFragmentAllocSizeClass).
	keepOnce  sync.Once
	xmlOnce   sync.Once
	asciiOnce sync.Once
	xmlDone   atomic.Bool
}

// Len returns the number of kept nodes.
func (f *Fragment) Len() int { return len(f.Nodes) }

// keepSet returns the kept codes keyed by dewey key, building the map on
// first use (fragments are shared by the serving layer's cache, hence the
// sync.Once).
func (f *Fragment) keepSet() map[string]bool {
	f.keepOnce.Do(func() {
		m := make(map[string]bool, len(f.keptIDs))
		var buf []byte
		for _, id := range f.keptIDs {
			buf = f.tab.Code(id).AppendKey(buf[:0])
			m[string(buf)] = true
		}
		f.keep = m
	})
	return f.keep
}

// Contains reports whether the fragment kept the node with the given Dewey
// code (dotted form).
func (f *Fragment) Contains(deweyCode string) bool {
	c, err := dewey.Parse(deweyCode)
	if err != nil {
		return false
	}
	return f.keepSet()[c.Key()]
}

// KeywordNodes returns the kept nodes that matched query keywords.
func (f *Fragment) KeywordNodes() []FragmentNode {
	var out []FragmentNode
	for _, n := range f.Nodes {
		if n.IsKeywordNode {
			out = append(out, n)
		}
	}
	return out
}

// Snippet returns a query-biased one-line summary of the fragment: every
// query keyword shown highlighted in its surrounding text, labelled by the
// element it occurs in (in the spirit of the snippet generation work the
// paper cites as related).
func (f *Fragment) Snippet() string {
	var sources []snippet.Source
	for i, n := range f.Nodes {
		if !n.IsKeywordNode {
			continue
		}
		text := n.Text
		if text == "" {
			// Store-backed fragments have no raw text; use the content
			// words instead (keptIDs[i] is the ID of Nodes[i]).
			text = strings.Join(f.src.contentOfID(f.keptIDs[i]), " ")
		}
		sources = append(sources, snippet.Source{Label: n.Label, Text: text})
	}
	return f.snip.Generate(sources, f.words)
}

// ASCII renders the fragment as an indented tree in the style of the
// paper's figures. Store-backed fragments show content words instead of
// raw text. The rendering is computed once and reused (fragments are
// shared by the serving layer's cache).
func (f *Fragment) ASCII() string {
	f.asciiOnce.Do(func() {
		f.asciiText = f.src.renderASCII(f)
	})
	return f.asciiText
}

// XML serializes the fragment as an XML snippet. Store-backed fragments
// render the element skeleton with content words. The rendering is
// computed once and reused.
func (f *Fragment) XML() string {
	f.xmlOnce.Do(func() {
		f.xmlText = f.src.renderXML(f)
		f.xmlDone.Store(true)
	})
	return f.xmlText
}

// WriteXML renders the fragment's XML into w — byte-identical to XML(),
// but without building or retaining the string: the serving layer renders
// each cached page once, straight into its encoded response bytes, and
// keeps those instead. When the rendering was already memoized by XML(),
// the cached string is written instead of re-rendering; WriteXML itself
// does not populate the cache.
func (f *Fragment) WriteXML(w io.Writer) error {
	if f.xmlDone.Load() {
		_, err := io.WriteString(w, f.xmlText)
		return err
	}
	return f.src.renderXMLTo(w, f)
}
