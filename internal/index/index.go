// Package index builds the inverted keyword index used by getKeywordNodes:
// for each content word w, the pre-order-sorted list of keyword nodes whose
// content set Cv contains w (the paper's Di sets).
//
// Postings are dense node IDs over a per-document node table (internal/nid)
// — 4 bytes per entry, integer pre-order comparison — and the index hands
// them out only in that form (LookupIDs); a caller wanting a node's Dewey
// code reads it from the table (Table().Code). A base index wraps
// block-compressed lists (FromCompressed) — an engine's are its store's,
// in memory or opened from a file — and each list decodes once, on first
// touch, and is decoded thereafter. Only the lists a fold replaces (With)
// are born decoded. The index is immutable after it is built and safe for
// concurrent readers.
//
// An index carries its planner statistics (Stats) from the moment it is
// built: Build and FromCompressed sum them from the content column's row
// offsets and the table's depths, and With takes them from its caller (a
// fold's are the old base's plus the segments'), so no list is ever
// scanned, or decoded, for them.
//
// One pass over a document yields everything a store holds about its
// nodes (Rows): the node table, the label, text and attribute columns, each
// node's content set and from those the posting lists. The pass is the
// byte scanner driving the row builder (AnalyzeBytes), or a walk of a
// parsed tree driving the same builder (Analyze). Each column has one form
// (LabelColumn, Content, Strings), whichever backing holds it.
package index

import (
	"fmt"
	"maps"
	"sync"
	"sync/atomic"

	"xks/internal/analysis"
	"xks/internal/nid"
	"xks/internal/planner"
	"xks/internal/postings"
	"xks/internal/xmltree"
)

// Index maps content words to keyword-node posting lists over a node table.
type Index struct {
	tab     *nid.Table
	lists   map[string]*list
	decoded atomic.Int64 // compressed lists decoded through this index
	stats   planner.Stats
}

// list is one word's posting list: ids when born decoded, or enc, a store's
// compressed list, which decodes into ids once, on first touch.
type list struct {
	ids  []nid.ID
	enc  *postings.List
	once sync.Once
}

// decoded returns the list's IDs, decoding a compressed list exactly once
// (concurrent lookups of the same word share the work) and counting the
// decode into counter.
func (l *list) decoded(counter *atomic.Int64) []nid.ID {
	if l.enc != nil {
		l.once.Do(func() {
			// An error is unreachable through the CRC-guarded store open
			// path; the list degrades to empty rather than panicking
			// mid-query.
			l.ids, _ = l.enc.Decode()
			counter.Add(1)
		})
	}
	return l.ids
}

// Build indexes every node of the tree, its rows' lists encoded as a
// store's are (FromCompressed). A node is a keyword node for w when w
// appears among the words of its label, attributes or text. The node table
// covers every tree node, with IDs equal to pre-order positions. Build
// panics with Analyze's error on a tree that nests deeper than
// nid.MaxDepth, which xmltree.Parse never returns.
func Build(t *xmltree.Tree, a *analysis.Analyzer) *Index {
	if a == nil {
		a = analysis.New()
	}
	r, err := Analyze(t, a)
	if err != nil {
		panic(err)
	}
	return FromCompressed(r.Tab, r.Words, postings.EncodeAll(r.Lists(0)), r.Off)
}

// FromCompressed constructs an index over block-compressed posting lists
// without decoding any of them — the store's load path. words[i] names
// lists[i]; each list decodes on its first lookup and stays decoded for
// the index's lifetime. contentOff is the content column's row offsets
// (node i holds contentOff[i+1]-contentOff[i] words), which the statistics
// are summed from. The lists (and the table) may view mmap-ed memory; they
// must outlive the index.
func FromCompressed(tab *nid.Table, words []string, lists []postings.List, contentOff []uint32) *Index {
	slab := make([]list, len(words))
	m := make(map[string]*list, len(words))
	for i, w := range words {
		slab[i].enc = &lists[i]
		m[w] = &slab[i]
	}
	return &Index{tab: tab, lists: m, stats: rowStats(tab, contentOff)}
}

// rowStats sums the planner statistics of a content column over tab: node
// i is a keyword node of off[i+1]-off[i] words, each a posting at its depth.
func rowStats(tab *nid.Table, off []uint32) planner.Stats {
	st := planner.Stats{Postings: int(off[len(off)-1])}
	for i := range tab.Len() {
		st.DepthSum += int64(off[i+1]-off[i]) * int64(tab.Depth(nid.ID(i)))
	}
	return st
}

// With returns the index over tab that holds ix's lists, with those of the
// words in replaced taken from it, born decoded, and st as its statistics:
// the delta compactor's fold and, over an empty index, an index of the
// lists given. Every other list, decoded or not, is shared with ix, so
// nothing is decoded or copied. The replacement lists are retained as
// given and never written, so they may alias lists other live indexes read.
func (ix *Index) With(tab *nid.Table, replaced map[string][]nid.ID, st planner.Stats) *Index {
	lists := make(map[string]*list, len(ix.lists)+len(replaced))
	maps.Copy(lists, ix.lists)
	slab := make([]list, 0, len(replaced))
	for w, ids := range replaced {
		slab = append(slab, list{ids: ids})
		lists[w] = &slab[len(slab)-1]
	}
	return &Index{tab: tab, lists: lists, stats: st}
}

// Stats returns the index's planner statistics, fixed when it was built.
func (ix *Index) Stats() planner.Stats { return ix.stats }

// DecodedLists reports how many compressed posting lists have been decoded
// through this index — zero right after it is built, exactly the queried
// words afterwards. Lists born decoded never count.
func (ix *Index) DecodedLists() int64 { return ix.decoded.Load() }

// LookupList returns the compressed posting list for the word; ok is false
// for a list a fold replaced (born decoded) and for an unknown word.
// Callers wanting to stream it build an Iterator from it instead of forcing
// a full decode.
func (ix *Index) LookupList(word string) (postings.List, bool) {
	if l := ix.lists[word]; l != nil && l.enc != nil {
		return *l.enc, true
	}
	return postings.List{}, false
}

// Table returns the node table the posting IDs refer into.
func (ix *Index) Table() *nid.Table { return ix.tab }

// NumNodes returns the number of indexed nodes: every row of the table.
func (ix *Index) NumNodes() int { return ix.tab.Len() }

// NumWords returns the vocabulary size.
func (ix *Index) NumWords() int { return len(ix.lists) }

// LookupIDs returns the posting list Di for the (already normalized) word
// as node IDs, or nil if the word does not occur. The returned slice is
// shared; callers must not modify it. The first lookup of a compressed
// list decodes it.
func (ix *Index) LookupIDs(word string) []nid.ID {
	if l := ix.lists[word]; l != nil {
		return l.decoded(&ix.decoded)
	}
	return nil
}

// Frequency returns the number of keyword nodes containing the word. A
// compressed list answers from its header, without decoding, so the
// planner and scorer cost nothing at open time.
func (ix *Index) Frequency(word string) int {
	l := ix.lists[word]
	if l == nil {
		return 0
	} else if l.enc != nil {
		return l.enc.Len()
	}
	return len(l.ids)
}

// ErrNoMatch reports a query keyword with an empty posting list.
type ErrNoMatch struct{ Word string }

func (e *ErrNoMatch) Error() string {
	return fmt.Sprintf("index: no node contains keyword %q", e.Word)
}
