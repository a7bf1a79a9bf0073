// Package index builds the inverted keyword index used by getKeywordNodes:
// for each content word w, the pre-order-sorted list of keyword nodes whose
// content set Cv contains w (the paper's Di sets).
//
// Postings are dense node IDs over a per-document node table (internal/nid)
// — 4 bytes per entry, integer pre-order comparison — and the index hands
// them out only in that form (LookupIDs); a caller wanting a node's Dewey
// code reads it from the table (Table().Code). The index is immutable after
// Build and safe for concurrent readers.
package index

import (
	"fmt"
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
	analyzer *analysis.Analyzer
	tab      *nid.Table
	postings map[string][]nid.ID
	numNodes int

	// lazy holds block-compressed posting lists (the store's v3 load path)
	// that decode once, on first lookup. Exactly one of postings/lazy is
	// non-nil; every accessor routes through the lazy arm when set, so
	// opening a compressed store decodes nothing until a query asks.
	lazy    map[string]*lazyList
	decoded atomic.Int64 // lists decoded so far (observability + tests)

	// Planner statistics, computed lazily by Stats or installed by
	// SetStats on the store's load path. See stats.go.
	statsOnce sync.Once
	stats     planner.Stats
	statsSet  bool
}

// lazyList is one compressed posting list plus its once-decoded form.
type lazyList struct {
	list postings.List
	once sync.Once
	ids  []nid.ID
}

// decode materializes the list exactly once (concurrent lookups of the
// same term share the work) and bumps the index's decoded counter.
func (lp *lazyList) decode(counter *atomic.Int64) []nid.ID {
	lp.once.Do(func() {
		ids, err := lp.list.Decode()
		if err != nil {
			// Unreachable through the CRC-guarded store open path; degrade
			// to an empty list rather than panicking mid-query.
			ids = nil
		}
		lp.ids = ids
		counter.Add(1)
	})
	return lp.ids
}

// Build indexes every node of the tree. A node is a keyword node for w when
// w appears among the words of its label, attributes or text. The node
// table covers every tree node, with IDs equal to pre-order positions.
func Build(t *xmltree.Tree, a *analysis.Analyzer) *Index {
	if a == nil {
		a = analysis.New()
	}
	return FromRows(t, a, Analyze(t, a))
}

// Rows is the analysed content of a tree's nodes over the vocabulary of one
// build: row i holds the IDs of the i-th node's content words (pre-order),
// in lexical order of the words — its content set.
type Rows struct {
	Vocab *analysis.Vocab
	Off   []uint32 // row i is IDs[Off[i]:Off[i+1]]
	IDs   []uint32
}

// Analyze analyses every node of t with a new vocabulary of a.
func Analyze(t *xmltree.Tree, a *analysis.Analyzer) Rows {
	r := Rows{Vocab: a.NewVocab(), Off: make([]uint32, 1, t.Size()+1)}
	var pieces []string
	t.Walk(func(n *xmltree.Node) bool {
		pieces = n.AppendContentPieces(pieces[:0])
		r.IDs = r.Vocab.AppendContent(r.IDs, pieces...)
		r.Off = append(r.Off, uint32(len(r.IDs)))
		return true
	})
	return r
}

// Words returns every row as its content set, the words sharing one array.
func (r Rows) Words() [][]string {
	flat := make([]string, len(r.IDs))
	for i, id := range r.IDs {
		flat[i] = r.Vocab.Word(id)
	}
	out := make([][]string, len(r.Off)-1)
	for i := range out {
		if lo, hi := r.Off[i], r.Off[i+1]; lo < hi {
			out[i] = flat[lo:hi:hi]
		}
	}
	return out
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

// FromRows indexes t over rows, its nodes' content as Analyze returns it.
func FromRows(t *xmltree.Tree, a *analysis.Analyzer, r Rows) *Index {
	b := nid.NewBuilder(t.Size())
	t.Walk(func(n *xmltree.Node) bool {
		b.Add(n.Code)
		return true
	})
	return &Index{analyzer: a, tab: b.Table(), postings: r.Postings(0), numNodes: t.Size()}
}

// FromSortedIDPostings constructs an index from posting lists the caller
// guarantees are already sorted and duplicate-free (the delta compactor's
// fold path). Lists are retained exactly as given and never written, so
// they may alias posting lists of another live index that concurrent
// readers are using.
func FromSortedIDPostings(tab *nid.Table, postings map[string][]nid.ID, numNodes int, a *analysis.Analyzer) *Index {
	if a == nil {
		a = analysis.New()
	}
	return &Index{analyzer: a, tab: tab, postings: postings, numNodes: numNodes}
}

// FromCompressed constructs an index over block-compressed posting lists
// without decoding any of them — the store's v3 load path. words[i] names
// lists[i]; each list decodes lazily on its first lookup and the decoded
// form is cached for the index's lifetime. The lists (and the table) may
// view mmap-ed memory; they must outlive the index.
func FromCompressed(tab *nid.Table, words []string, lists []postings.List, numNodes int, a *analysis.Analyzer) *Index {
	if a == nil {
		a = analysis.New()
	}
	lazy := make(map[string]*lazyList, len(words))
	for i, w := range words {
		lazy[w] = &lazyList{list: lists[i]}
	}
	return &Index{analyzer: a, tab: tab, lazy: lazy, numNodes: numNodes}
}

// DecodedLists reports how many posting lists have been decoded so far —
// zero right after a compressed open, exactly the queried terms afterwards.
// Always zero for in-RAM indexes.
func (ix *Index) DecodedLists() int64 { return ix.decoded.Load() }

// LookupList returns the compressed posting list for the word when the
// index is compressed-backed; ok is false for in-RAM indexes and unknown
// words. Callers wanting to stream it build an Iterator from it instead of
// forcing a full decode.
func (ix *Index) LookupList(word string) (postings.List, bool) {
	lp := ix.lazy[word]
	if lp == nil {
		return postings.List{}, false
	}
	return lp.list, true
}

// eachList visits every posting list in decoded form (decoding compressed
// lists on demand), in unspecified order.
func (ix *Index) eachList(fn func(list []nid.ID)) {
	if ix.lazy != nil {
		for _, lp := range ix.lazy {
			fn(lp.decode(&ix.decoded))
		}
		return
	}
	for _, list := range ix.postings {
		fn(list)
	}
}

// Analyzer returns the analyzer the index was built with.
func (ix *Index) Analyzer() *analysis.Analyzer { return ix.analyzer }

// Table returns the node table the posting IDs refer into.
func (ix *Index) Table() *nid.Table { return ix.tab }

// NumNodes returns the number of indexed nodes.
func (ix *Index) NumNodes() int { return ix.numNodes }

// NumWords returns the vocabulary size.
func (ix *Index) NumWords() int {
	if ix.lazy != nil {
		return len(ix.lazy)
	}
	return len(ix.postings)
}

// LookupIDs returns the posting list Di for the (already normalized) word
// as node IDs, or nil if the word does not occur. The returned slice is
// shared; callers must not modify it. On a compressed-backed index the
// first lookup of a term decodes its list (once; cached thereafter).
func (ix *Index) LookupIDs(word string) []nid.ID {
	if ix.lazy != nil {
		lp := ix.lazy[word]
		if lp == nil {
			return nil
		}
		return lp.decode(&ix.decoded)
	}
	return ix.postings[word]
}

// Frequency returns the number of keyword nodes containing the word. On a
// compressed-backed index this reads the list header — no decode — so the
// planner and scorer cost nothing at open time.
func (ix *Index) Frequency(word string) int {
	if ix.lazy != nil {
		if lp := ix.lazy[word]; lp != nil {
			return lp.list.Len()
		}
		return 0
	}
	return len(ix.postings[word])
}

// Words returns the vocabulary in lexical order.
func (ix *Index) Words() []string {
	out := make([]string, 0, ix.NumWords())
	if ix.lazy != nil {
		for w := range ix.lazy {
			out = append(out, w)
		}
	} else {
		for w := range ix.postings {
			out = append(out, w)
		}
	}
	sort.Strings(out)
	return out
}

// ErrNoMatch reports a query keyword with an empty posting list.
type ErrNoMatch struct{ Word string }

func (e *ErrNoMatch) Error() string {
	return fmt.Sprintf("index: no node contains keyword %q", e.Word)
}
