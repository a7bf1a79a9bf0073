// Package index builds the inverted keyword index used by getKeywordNodes:
// for each content word w, the pre-order-sorted list of keyword nodes whose
// content set Cv contains w (the paper's Di sets).
//
// Postings are dense node IDs over a per-document node table (internal/nid)
// — 4 bytes per entry, integer pre-order comparison — and the index hands
// them out only in that form (LookupIDs); a caller wanting a node's Dewey
// code reads it from the table (Table().Code). Every posting list has one
// form: a list built in memory (FromRows) is born decoded, and one that
// wraps a store's block-compressed bytes (FromCompressed) decodes once, on
// first touch, and is decoded thereafter. The index is immutable after it
// is built and safe for concurrent readers.
//
// An index carries its planner statistics (Stats) from the moment it is
// built: FromRows and FromCompressed sum them from the content column's row
// offsets and the table's depths, and With takes them from its caller (a
// fold's are the old base's plus the segments'), so no list is ever
// scanned, or decoded, for them.
//
// One pre-order walk of a document (Analyze) yields everything an engine
// publishes about its nodes: the node table, the label, text and attribute
// columns, each node's content set and from those the posting lists. Each
// column has one form (LabelColumn, Content, Strings), whichever backing
// holds it.
package index

import (
	"fmt"
	"maps"
	"sort"
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

// Build indexes every node of the tree. A node is a keyword node for w when
// w appears among the words of its label, attributes or text. The node
// table covers every tree node, with IDs equal to pre-order positions.
func Build(t *xmltree.Tree, a *analysis.Analyzer) *Index {
	if a == nil {
		a = analysis.New()
	}
	return FromRows(Analyze(t, a))
}

// Rows is what one pre-order walk of a tree yields, row i being the i-th
// node: the node table and the label, text and attribute columns, and the
// content sets over the vocabulary of one build — row i's content word IDs
// are IDs[Off[i]:Off[i+1]], in lexical order of the words. The rows hold no
// node of the tree.
type Rows struct {
	Tab         *nid.Table
	Labels      LabelColumn
	Text, Attrs Strings
	Vocab       *analysis.Vocab
	Off         []uint32
	IDs         []uint32
}

// Analyze walks t once, analysing every node with a new vocabulary of a.
// Collecting the nodes sizes the text and attribute bytes (the attributes'
// before escaping), so those columns grow at most once.
func Analyze(t *xmltree.Tree, a *analysis.Analyzer) Rows {
	nodes, text, attrs := make([]*xmltree.Node, 0, t.Size()), 0, 0
	t.Walk(func(n *xmltree.Node) bool {
		nodes, text = append(nodes, n), text+len(n.Text)
		for _, at := range n.Attrs {
			attrs += len(at.Name) + len(at.Value) + len(` =""`)
		}
		return true
	})
	b := nid.NewBuilder(len(nodes))
	r := Rows{Vocab: a.NewVocab(), Off: make([]uint32, 1, len(nodes)+1)}
	r.Labels.IDs = make([]uint32, 0, len(nodes))
	r.Text = Strings{Off: make([]uint32, 1, len(nodes)+1), Data: make([]byte, 0, text)}
	r.Attrs = Strings{Off: make([]uint32, 1, len(nodes)+1), Data: make([]byte, 0, attrs)}
	var pieces []string
	for _, n := range nodes {
		b.Add(n.Code)
		r.Labels.add(n.Label)
		r.Text.Data = append(r.Text.Data, n.Text...)
		r.Attrs.Data = xmltree.AppendAttrs(r.Attrs.Data, n.Attrs)
		r.Text.Off = append(r.Text.Off, uint32(len(r.Text.Data)))
		r.Attrs.Off = append(r.Attrs.Off, uint32(len(r.Attrs.Data)))
		pieces = n.AppendContentPieces(pieces[:0])
		r.IDs = r.Vocab.AppendContent(r.IDs, pieces...)
		r.Off = append(r.Off, uint32(len(r.IDs)))
	}
	r.Tab = b.Table()
	return r
}

// Content returns the rows' content column; it shares Off with r.
func (r Rows) Content() Content {
	words := make([]string, len(r.IDs))
	for i, id := range r.IDs {
		words[i] = r.Vocab.Word(id)
	}
	return Content{Off: r.Off, Words: words}
}

// Postings returns each word's posting list, row i as node ID start+i:
// ascending, since rows are in node order and a row holds a word at most
// once. The lists share one array.
func (r Rows) Postings(start nid.ID) map[string][]nid.ID {
	ends := make([]uint32, r.Vocab.Len()) // each list's end in the array
	for _, id := range r.IDs {
		ends[id]++
	}
	sum := uint32(0)
	for id, n := range ends {
		sum += n
		ends[id] = sum
	}
	flat := make([]nid.ID, len(r.IDs))
	for row := len(r.Off) - 2; row >= 0; row-- {
		for _, id := range r.IDs[r.Off[row]:r.Off[row+1]] {
			ends[id]--
			flat[ends[id]] = start + nid.ID(row)
		}
	}
	out := make(map[string][]nid.ID, len(ends))
	for id, lo := range ends {
		hi := uint32(len(flat))
		if id+1 < len(ends) {
			hi = ends[id+1]
		}
		out[r.Vocab.Word(uint32(id))] = flat[lo:hi:hi]
	}
	return out
}

// FromRows indexes the rows Analyze returned: their node table, and each
// word's list born decoded.
func FromRows(r Rows) *Index {
	return new(Index).With(r.Tab, r.Postings(0), rowStats(r.Tab, r.Off))
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
// the delta compactor's fold and, over an empty index, FromRows. Every
// other list, decoded or not, is shared with ix, so nothing is decoded or
// copied. The replacement lists are retained as given and never written,
// so they may alias lists other live indexes read.
func (ix *Index) With(tab *nid.Table, replaced map[string][]nid.ID, st planner.Stats) *Index {
	lists := maps.Clone(ix.lists)
	if lists == nil {
		lists = make(map[string]*list, len(replaced))
	}
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
// through this index — zero right after a store opens, exactly the queried
// words afterwards. Lists born decoded never count.
func (ix *Index) DecodedLists() int64 { return ix.decoded.Load() }

// LookupList returns the compressed posting list for the word when the
// list wraps a store's bytes; ok is false for a list built in memory and
// for an unknown word. Callers wanting to stream it build an Iterator from
// it instead of forcing a full decode.
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

// Words returns the vocabulary in lexical order.
func (ix *Index) Words() []string {
	out := make([]string, 0, len(ix.lists))
	for w := range ix.lists {
		out = append(out, w)
	}
	sort.Strings(out)
	return out
}

// ErrNoMatch reports a query keyword with an empty posting list.
type ErrNoMatch struct{ Word string }

func (e *ErrNoMatch) Error() string {
	return fmt.Sprintf("index: no node contains keyword %q", e.Word)
}
