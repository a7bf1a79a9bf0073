// Package store is the shredded-document storage layer: the embedded
// substitute for the PostgreSQL 8.2 instance of §5.2 of the paper.
//
// The paper shreds each XML document into three tables:
//
//	label   (label, ID)                                   — distinct labels
//	element (label, dewey, level, label number sequence,
//	         content feature)                             — one row per node
//	value   (label, dewey, attribute, keyword)            — keyword postings
//
// Store holds those tables in the one column form every engine reads
// (format v3, see v3.go): the element table is a nid.Table of pre-order node
// IDs (Dewey codes, parents, depths) plus per-node label, text and attribute
// columns; the value table is the sorted vocabulary with one
// block-compressed posting list per keyword, and its inverse, a node →
// keyword CSR. Shred builds the columns in memory from the one walk an
// engine makes of a parsed document (index.Analyze), Save writes them as
// CRC-guarded sections, and OpenFile maps (or reads) them back without
// decoding a posting list. The planner statistics are not stored: the index
// BuildIndex wraps around the columns sums them from the node → keyword
// CSR's offsets and the node depths. Keyword lookups — the only query shape
// the algorithms issue — run off the sorted vocabulary exactly like the
// paper's SQL SELECTs, and the columns are served by node ID in the forms of
// internal/index (the content words resolved from the CSR on first use), so
// an engine over a store answers and renders as one over the document does.
package store

import (
	"os"
	"slices"
	"sync"

	"xks/internal/analysis"
	"xks/internal/index"
	"xks/internal/nid"
	"xks/internal/postings"
	"xks/internal/xmltree"
)

// Store holds the three shredded tables in column form. On a store opened
// from a file every slice (labels and terms included) is a zero-copy view
// into data. Every column is capacity-capped, so an engine appending to one
// copies it rather than write into the store.
type Store struct {
	labels     []string        // label table: ID → label
	tab        *nid.Table      // element table: node IDs in pre-order
	nodeLabels []uint32        // element table's label column, by node ID
	terms      []string        // value table: the sorted vocabulary
	lists      []postings.List // lists[i] is terms[i]'s compressed postings
	wordOff    []uint32        // CSR: node i's terms are termIDs[wordOff[i]:wordOff[i+1]],
	termIDs    []uint32        // ascending, so its words come out lexical
	text       index.Strings   // element table's text column, raw
	attrs      index.Strings   // element table's attributes, as rendered

	// content is the content column over wordOff, its words resolved from
	// termIDs on first use, so ContentAt is a zero-copy row.
	contentOnce sync.Once
	content     index.Content

	// data is the file image the views alias: a read-only file mapping
	// (mapped, released by closer) or a heap buffer holding one whole-file
	// read. Shredded stores leave all four zero.
	data     []byte
	closer   func() error
	mapped   bool
	fileSize int64
}

// Shred builds the three tables from a document, analyzing content with the
// given analyzer (nil for the default). The node table, the label, text
// and attribute columns and the posting lists come from the one walk and
// the in-memory index an engine over the parsed document builds, so the
// two engines agree by construction.
func Shred(t *xmltree.Tree, an *analysis.Analyzer) *Store {
	if an == nil {
		an = analysis.New()
	}
	rows := index.Analyze(t, an)
	ix := index.FromRows(rows)
	s := &Store{labels: slices.Clip(rows.Labels.Names), tab: rows.Tab, nodeLabels: rows.Labels.IDs, text: rows.Text, attrs: rows.Attrs}
	s.text.Data, s.attrs.Data = slices.Clip(s.text.Data), slices.Clip(s.attrs.Data)
	s.terms = ix.Words()
	// A word's term ID is its rank in the sorted vocabulary: one search per
	// distinct word, not per occurrence.
	rank := make([]uint32, rows.Vocab.Len())
	for id := range rank {
		r, _ := slices.BinarySearch(s.terms, rows.Vocab.Word(uint32(id)))
		rank[id] = uint32(r)
	}
	var blob []byte
	offs := make([]int, len(s.terms)+1)
	for i, w := range s.terms {
		blob = postings.AppendEncode(blob, ix.LookupIDs(w))
		offs[i+1] = len(blob)
	}
	s.lists = make([]postings.List, len(s.terms))
	for i := range s.lists {
		// FromBytes cannot fail on AppendEncode's output.
		s.lists[i], _ = postings.FromBytes(blob[offs[i]:offs[i+1]])
	}
	// A row's words are in lexical order, so its term IDs come out
	// ascending.
	s.wordOff = rows.Off
	s.termIDs = make([]uint32, len(rows.IDs))
	for i, id := range rows.IDs {
		s.termIDs[i] = rank[id]
	}
	return s
}

// NumNodes returns the number of element rows.
func (s *Store) NumNodes() int { return s.tab.Len() }

// NumLabels returns the number of distinct labels.
func (s *Store) NumLabels() int { return len(s.labels) }

// NumValues returns the number of keyword-occurrence rows.
func (s *Store) NumValues() int { return len(s.termIDs) }

// LabelAt resolves the label of the i-th element row (element rows are in
// pre-order, so the row index doubles as the node ID of the index built by
// BuildIndex). It returns "" when out of range.
func (s *Store) LabelAt(i int) string {
	if i < 0 || i >= len(s.nodeLabels) {
		return ""
	}
	return s.labels[s.nodeLabels[i]]
}

// Columns returns the element table's per-node columns in the forms every
// engine publishes: the label column over the label table, the content
// sets, each node's raw text, and its attributes as a start tag holds them
// (escaped). They are the sections themselves, zero-copy under mmap, but
// for the content sets' words, resolved from the node → keyword CSR on the
// first call. Callers must not modify them.
func (s *Store) Columns() (labels index.LabelColumn, content index.Content, text, attrs index.Strings) {
	return index.LabelColumn{IDs: s.nodeLabels, Names: s.labels}, s.contentColumn(), s.text, s.attrs
}

// Keywords returns the distinct keywords in lexical order.
func (s *Store) Keywords() []string { return slices.Clone(s.terms) }

// BuildIndex assembles an inverted index over the store, so searches run
// without the original document. The index shares the store's node table
// (its IDs are element row indices, so LabelAt/ContentAt serve lookups by
// ID in constant time) and wraps the compressed lists directly: each list
// decodes on its first lookup, so building the index is O(vocabulary +
// nodes): its planner statistics are summed from the node → keyword CSR's
// offsets and the node depths, never from a posting list.
func (s *Store) BuildIndex() *index.Index {
	return index.FromCompressed(s.tab, s.terms, s.lists, s.wordOff)
}

// contentColumn returns the content column over the node → keyword CSR,
// its words resolved from the term IDs on the first call.
func (s *Store) contentColumn() index.Content {
	s.contentOnce.Do(func() {
		words := make([]string, len(s.termIDs))
		for j, t := range s.termIDs {
			words[j] = s.terms[t]
		}
		s.content = index.Content{Off: s.wordOff, Words: words}
	})
	return s.content
}

// ContentAt returns the content word set of the i-th element row, a
// capacity-capped row of the content column, or nil when out of range.
// Words come back in lexical order. Callers must not modify the result.
func (s *Store) ContentAt(i int) []string {
	if i < 0 || i >= s.NumNodes() {
		return nil
	}
	return s.contentColumn().Row(nid.ID(i))
}

// SaveFile writes the store to a file.
func (s *Store) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
