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
// Store holds those tables in the one column form every engine reads, each
// engine being over a store (format v3, see v3.go): the element table is a
// nid.Table of pre-order node IDs — parents, depths and ordinals, a node's
// Dewey code derived from its parent chain — plus per-node label, text and
// attribute columns; the value table is the sorted
// vocabulary with one block-compressed posting list per keyword, and its
// inverse, a node → keyword CSR. FromRows builds the columns in memory from
// a document's rows (index.AnalyzeBytes, as xks.Load does, or Shred over a
// parsed tree), Save writes them as CRC-guarded sections, and OpenFile maps
// (or reads) them back without decoding a posting list. The planner
// statistics are not stored: the index BuildIndex wraps around the columns
// sums them from the node → keyword CSR's offsets and the node depths.
// Keyword lookups — the only query shape the algorithms issue — run off the
// sorted vocabulary exactly like the paper's SQL SELECTs, and the columns
// are served by node ID in the forms of internal/index (the content column
// is the CSR over the vocabulary, as the paper's value table is keyed by
// term), so an image in memory and its file round trip answer alike.
package store

import (
	"os"
	"slices"

	"xks/internal/analysis"
	"xks/internal/index"
	"xks/internal/nid"
	"xks/internal/postings"
	"xks/internal/xmltree"
)

// Store holds the three shredded tables in column form. On a store opened
// from a file every slice (labels and terms included) is a zero-copy view
// into the file's image. Every column is capacity-capped, so an engine appending to one
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

	// unmap releases the read-only file mapping the views alias, once; it
	// is nil when they lie on the heap (built in memory, or read whole
	// from a file). fileSize is the size of the file opened.
	unmap    closer
	fileSize int64
}

// closer is a release function as an io.Closer; a nil one closes as a no-op.
type closer func() error

func (c closer) Close() error {
	if c == nil {
		return nil
	}
	return c()
}

// Shred builds the three tables from a parsed document (FromRows over
// index.Analyze), analyzing content with an (nil for the default). It
// panics with Analyze's error on a tree that nests deeper than
// nid.MaxDepth, which xmltree.Parse refuses to build.
func Shred(t *xmltree.Tree, an *analysis.Analyzer) *Store {
	if an == nil {
		an = analysis.New()
	}
	rows, err := index.Analyze(t, an)
	if err != nil {
		panic(err)
	}
	return FromRows(rows)
}

// FromRows builds the three tables from a document's rows (index.Analyze,
// index.AnalyzeBytes): the node table and the label, text and attribute
// columns as they are, and the value table from the content sets, its
// lists encoded (in term ID order) into one blob. The rows' words are the
// sorted vocabulary, so a word's ID is its term ID and each row's IDs are
// its node → keyword CSR row.
func FromRows(rows index.Rows) *Store {
	s := &Store{labels: slices.Clip(rows.Labels.Names), tab: rows.Tab, nodeLabels: slices.Clip(rows.Labels.IDs), text: rows.Text, attrs: rows.Attrs}
	s.text.Off, s.text.Data = slices.Clip(s.text.Off), slices.Clip(s.text.Data)
	s.attrs.Off, s.attrs.Data = slices.Clip(s.attrs.Off), slices.Clip(s.attrs.Data)
	s.wordOff, s.termIDs = slices.Clip(rows.Off), slices.Clip(rows.IDs)
	s.terms, s.lists = slices.Clip(rows.Words), postings.EncodeAll(rows.Lists(0))
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
// column (the node → keyword CSR over the vocabulary), each node's raw
// text, and its attributes as a start tag holds them (escaped). They are
// the sections themselves, zero-copy under mmap. Callers must not modify
// them.
func (s *Store) Columns() (labels index.LabelColumn, content index.Content, text, attrs index.Strings) {
	return index.LabelColumn{IDs: s.nodeLabels, Names: s.labels}, index.Content{Off: s.wordOff, IDs: s.termIDs, Words: s.terms}, s.text, s.attrs
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

// ContentAt returns the content word set of the i-th element row, resolved
// into a fresh slice, or nil when out of range. Words come back in lexical
// order.
func (s *Store) ContentAt(i int) []string {
	if i < 0 || i >= s.NumNodes() {
		return nil
	}
	_, content, _, _ := s.Columns()
	return content.RowWords(nid.ID(i))
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
