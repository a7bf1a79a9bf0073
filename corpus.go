package xks

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"iter"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
)

// ErrUnknownDocument is wrapped by document-filtered searches when the
// named document is not in the corpus; match it with errors.Is.
var ErrUnknownDocument = errors.New("unknown document")

// Corpus searches a collection of XML documents — the digital-library
// setting the paper's introduction motivates — by fanning a query out to
// per-document engines concurrently and merging the fragments.
type Corpus struct {
	names   []string
	engines map[string]*Engine
	// Workers bounds the concurrency of a search's per-document candidate
	// fan-out (0 = GOMAXPROCS).
	Workers int
	// regIDs gives every registration a unique nonce (regSeq), so a
	// replaced document can never satisfy a snapshot recorded against its
	// predecessor even if the new engine happens to share a version token.
	regIDs map[string]uint64
	regSeq uint64
	// snaps remembers recently served snapshot vectors by hash, letting
	// cursors re-pin the exact per-document versions their page was issued
	// against (see resolveSnapshot).
	snaps snapRegistry
}

// docSnap pins one document inside a corpus snapshot vector: the name, the
// registration nonce (detects replacement), and the engine version token
// the snapshot serves the document at.
type docSnap struct {
	name string
	reg  uint64
	ver  uint64
}

// snapRegistry is a bounded FIFO memory of recently issued snapshot
// vectors, keyed by their hash. Eviction is what finally makes an old
// corpus cursor ErrStaleCursor: until then any append-only mutation leaves
// outstanding cursors resumable.
type snapRegistry struct {
	mu   sync.Mutex
	m    map[uint64][]docSnap
	fifo []uint64
}

// snapRegistryCap bounds remembered snapshot vectors; at a few dozen bytes
// per document entry the registry stays small while outliving any
// plausible scroll.
const snapRegistryCap = 256

func (r *snapRegistry) put(v uint64, vec []docSnap) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.m == nil {
		r.m = map[uint64][]docSnap{}
	}
	if _, ok := r.m[v]; ok {
		return
	}
	r.m[v] = vec
	r.fifo = append(r.fifo, v)
	for len(r.fifo) > snapRegistryCap {
		delete(r.m, r.fifo[0])
		r.fifo = r.fifo[1:]
	}
}

func (r *snapRegistry) get(v uint64) ([]docSnap, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	vec, ok := r.m[v]
	return vec, ok
}

// NewCorpus returns an empty corpus.
func NewCorpus() *Corpus {
	return &Corpus{engines: map[string]*Engine{}, regIDs: map[string]uint64{}}
}

// Add registers a document engine under a name. Adding a name twice
// replaces the previous engine (keeping its insertion-order position);
// cursors and cached results touching the replaced document go stale,
// while those touching only other documents are unaffected. Add must not
// run concurrently with Search (AppendXML may — it mutates through the
// engine, which is concurrency-safe).
func (c *Corpus) Add(name string, e *Engine) {
	if _, dup := c.engines[name]; !dup {
		c.names = append(c.names, name)
	}
	c.engines[name] = e
	c.regSeq++
	c.regIDs[name] = c.regSeq
}

// AddFile loads one XML file under its base name.
func (c *Corpus) AddFile(path string) error {
	e, err := LoadFile(path)
	if err != nil {
		return err
	}
	c.Add(filepath.Base(path), e)
	return nil
}

// LoadDir builds a corpus from every *.xml file in a directory.
func LoadDir(dir string) (*Corpus, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	c := NewCorpus()
	for _, ent := range entries {
		if ent.IsDir() || !strings.HasSuffix(ent.Name(), ".xml") {
			continue
		}
		if err := c.AddFile(filepath.Join(dir, ent.Name())); err != nil {
			return nil, fmt.Errorf("xks: loading %s: %w", ent.Name(), err)
		}
	}
	if len(c.names) == 0 {
		return nil, fmt.Errorf("xks: no .xml files in %s", dir)
	}
	return c, nil
}

// Len returns the number of documents.
func (c *Corpus) Len() int { return len(c.names) }

// Names returns the document names in insertion order.
func (c *Corpus) Names() []string {
	out := make([]string, len(c.names))
	copy(out, c.names)
	return out
}

// Engine returns the engine registered under name, or nil.
func (c *Corpus) Engine(name string) *Engine { return c.engines[name] }

// DocumentInfo summarizes one corpus document for listings.
type DocumentInfo struct {
	Name  string `json:"name"`
	Words int    `json:"words"` // distinct indexed words
	Nodes int    `json:"nodes"` // indexed element nodes
}

// Documents lists the corpus documents, in insertion order, with index
// size summaries.
func (c *Corpus) Documents() []DocumentInfo {
	out := make([]DocumentInfo, 0, len(c.names))
	for _, n := range c.names {
		ix := c.engines[n].Index()
		out = append(out, DocumentInfo{Name: n, Words: ix.NumWords(), Nodes: ix.NumNodes()})
	}
	return out
}

// Generation reports the corpus version token: the hash of the current
// snapshot vector (every document's name, registration nonce, and engine
// version, in insertion order). It changes whenever a document is added,
// replaced, or appended to, so caching layers can tag entries with it and
// detect staleness. Compaction does not change it — folding delta segments
// into the base is invisible to readers.
func (c *Corpus) Generation() uint64 {
	h := uint64(fnvOffset)
	for _, n := range c.names {
		h = docSnap{name: n, reg: c.regIDs[n], ver: c.engines[n].Generation()}.hash(h)
	}
	return h
}

// VersionFor reports the version token serving layers should tag req's
// cache entry with: the full snapshot-vector hash for corpus-wide
// requests, and a document-scoped hash (name, registration nonce, engine
// version) for document-filtered ones — so appending to document A never
// invalidates cached pages that only touch document B. It allocates
// nothing.
func (c *Corpus) VersionFor(req Request) uint64 {
	if req.Document != "" {
		if e := c.engines[req.Document]; e != nil {
			return docSnap{name: req.Document, reg: c.regIDs[req.Document], ver: e.Generation()}.hash(fnvOffset)
		}
	}
	return c.Generation()
}

// currentVector snapshots the corpus as a vector of per-document pins, in
// insertion order.
func (c *Corpus) currentVector() []docSnap {
	vec := make([]docSnap, len(c.names))
	for i, n := range c.names {
		vec[i] = docSnap{name: n, reg: c.regIDs[n], ver: c.engines[n].Generation()}
	}
	return vec
}

// vectorHash condenses a snapshot vector into the uint64 version token
// cursors and caches carry (FNV-1a over every pin).
func vectorHash(vec []docSnap) uint64 {
	h := uint64(fnvOffset)
	for _, ds := range vec {
		h = ds.hash(h)
	}
	return h
}

// hash folds the pin into the FNV-1a state h: the name's length in decimal,
// a colon and the name, then the registration nonce and the engine version
// as eight little-endian bytes each.
func (ds docSnap) hash(h uint64) uint64 {
	var buf [20]byte
	h = fnv1a(h, append(strconv.AppendInt(buf[:0], int64(len(ds.name)), 10), ':'))
	h = fnv1a(h, ds.name)
	return fnv1a(h, binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(buf[:0], ds.reg), ds.ver))
}

// resolveSnapshot is the corpus entry point's cursor-and-snapshot
// resolution: it clamps paging, builds the snapshot vector the request
// will serve (all documents, or just req.Document when filtered — a
// one-entry vector), records it in the registry, and — when the request
// carries a cursor — re-pins the exact vector the cursor's page was issued
// against. It returns the request with the cursor folded into Offset, every
// document of the vector pinned at its recorded engine version (the caller
// releases them), and the version token the next page's cursor must be
// stamped with.
//
// A cursor goes ErrStaleCursor only when its snapshot is unresolvable: the
// registry evicted the entry, or a pinned document was replaced or
// removed. Appends and compactions never stale a cursor.
func (c *Corpus) resolveSnapshot(req Request) (Request, []docRead, uint64, error) {
	req = req.clampPaging()
	var vec []docSnap
	if req.Document != "" {
		e := c.engines[req.Document]
		if e == nil {
			return req, nil, 0, fmt.Errorf("xks: %w: %q", ErrUnknownDocument, req.Document)
		}
		vec = []docSnap{{name: req.Document, reg: c.regIDs[req.Document], ver: e.Generation()}}
	} else {
		vec = c.currentVector()
	}
	gen := vectorHash(vec)
	c.snaps.put(gen, vec)
	if req.Cursor != "" {
		var issued uint64
		var err error
		if req, issued, err = req.foldCursor(); err != nil {
			return req, nil, 0, err
		}
		if issued != gen {
			var ok bool
			if vec, ok = c.snaps.get(issued); !ok {
				return req, nil, 0, fmt.Errorf("%w: snapshot evicted from the corpus registry", ErrStaleCursor)
			}
			gen = issued
		}
		if req.Document != "" && (len(vec) != 1 || vec[0].name != req.Document) {
			return req, nil, 0, fmt.Errorf("%w: document %q is not the cursor's snapshot", ErrStaleCursor, req.Document)
		}
	}
	docs := make([]docRead, len(vec))
	for i, ds := range vec {
		e := c.engines[ds.name]
		if e == nil || c.regIDs[ds.name] != ds.reg {
			releaseAll(docs[:i])
			return req, nil, 0, fmt.Errorf("%w: document %q changed since the cursor was issued", ErrStaleCursor, ds.name)
		}
		v, err := e.viewAt(e.head.Load(), int(ds.ver))
		if err != nil {
			releaseAll(docs[:i])
			return req, nil, 0, fmt.Errorf("xks: document %s: %w", ds.name, err)
		}
		docs[i] = docRead{name: ds.name, eng: e, v: v}
	}
	return req, docs, gen, nil
}

// AppendXML appends a parsed XML snippet under the identified node of the
// named document — the corpus face of Engine.AppendXML, so the parent must
// lie on the document's rightmost spine (ErrOffSpine otherwise). It may run
// concurrently with searches. Outstanding cursors and cached pages,
// including corpus-wide ones, keep working: they re-pin the snapshot they
// were issued against.
func (c *Corpus) AppendXML(doc, parentDewey, snippet string) error {
	e := c.engines[doc]
	if e == nil {
		return fmt.Errorf("xks: %w: %q", ErrUnknownDocument, doc)
	}
	if err := e.AppendXML(parentDewey, snippet); err != nil {
		return fmt.Errorf("xks: document %s: %w", doc, err)
	}
	return nil
}

// Compact folds every document's delta segments into its base index,
// returning the total number of segments folded. Version tokens do not
// change, so cursors and cached pages survive.
func (c *Corpus) Compact(ctx context.Context) (int, error) {
	total := 0
	for _, n := range c.names {
		folded, err := c.engines[n].Compact(ctx)
		total += folded
		if err != nil {
			return total, fmt.Errorf("xks: document %s: %w", n, err)
		}
	}
	return total, nil
}

// DeltaInfo sums the per-document delta-index counters (segments,
// postings, overlay size, pinned snapshots, appends, compactions) across
// the corpus.
func (c *Corpus) DeltaInfo() DeltaInfo {
	var total DeltaInfo
	for _, n := range c.names {
		di := c.engines[n].DeltaInfo()
		total.Segments += di.Segments
		total.Postings += di.Postings
		total.MergedLists += di.MergedLists
		total.MergedIDs += di.MergedIDs
		total.PinnedSnapshots += di.PinnedSnapshots
		total.Appends += di.Appends
		total.AppendSeconds += di.AppendSeconds
		total.Compactions += di.Compactions
		total.CompactionSeconds += di.CompactionSeconds
	}
	return total
}

// CorpusFragment tags a fragment with its source document.
type CorpusFragment struct {
	Document string
	*Fragment
}

// Results is the result envelope of the streaming API — the merged outcome
// of a corpus search, and the shape every serving layer (internal/service,
// internal/httpapi) passes around. Engine.Search produces the same envelope
// minus the per-document bookkeeping (Result); AsCorpus converts.
type Results struct {
	Query     string
	Fragments []CorpusFragment
	// Cursor is the opaque resume token of the next page when the merged
	// result set extends past this one, and empty when it is exhausted.
	// It pins the snapshot it was issued at: replayed after an AppendXML it
	// resumes that snapshot's order, and replayed after Corpus.Add replaced
	// one of its documents it fails with ErrStaleCursor instead of serving
	// a silently shifted page.
	Cursor Cursor
	// Truncated reports that a BestEffort deadline expired mid-pipeline:
	// Fragments holds everything finished in time, and Cursor resumes
	// from the first fragment that was not.
	Truncated bool
	// Truncation says which stage the deadline expired in when Truncated
	// is set (TruncNone otherwise): TruncCandidates means the candidate
	// fan-out did not finish (Fragments holds a best-effort page salvaged
	// from the documents that completed; the total is unknown and the
	// cursor resumes from the page's own start), TruncMaterialize means a
	// partial page of finished fragments.
	Truncation TruncationReason
	// PerDocument counts fragments per document (documents with zero
	// matches included).
	PerDocument map[string]int
	// Stats aggregates the per-document searches: Keywords are the
	// normalized query terms, KeywordNodes and NumLCAs sum over documents,
	// and Elapsed is the wall-clock time of the whole fan-out.
	Stats Stats
}

// AsCorpus wraps a single-document result in the corpus result shape,
// tagging every fragment with doc; PerDocument is the document's candidate
// total, as in every corpus result.
func (r *Result) AsCorpus(doc string) *Results {
	out := &Results{
		Query:       r.Query,
		Stats:       r.Stats,
		PerDocument: map[string]int{doc: r.Stats.NumLCAs},
		Cursor:      r.Cursor,
		Truncated:   r.Truncated,
		Truncation:  r.Truncation,
	}
	if len(r.Fragments) > 0 {
		out.Fragments = make([]CorpusFragment, len(r.Fragments))
		for i, f := range r.Fragments {
			out.Fragments[i] = CorpusFragment{Document: doc, Fragment: f}
		}
	}
	return out
}

// Search fans the query out to every document and merges the results: the
// request loop behind Stream, collected into a page. With req.Rank set,
// fragments are ordered by descending score across documents; otherwise the
// merged list deterministically follows document insertion order (and
// document order within each document). req.Limit pages the merged list;
// Cursor resumes the following page. When req.Document is set, the search
// covers that document alone (the error wraps ErrUnknownDocument when the
// corpus has no such document). A keyword missing from one document simply yields no
// fragments there; the query fails only if it is unsearchable (e.g. all stop
// words).
//
// Execution is staged (internal/exec): per-document workers run only the
// cheap plan and candidate stages, each keeping the handles of its first
// Offset+Limit roots in selection order; one selection over those windows
// (a sort when ranking) picks the page, and fragments are materialized only
// for it, in blocks of up to 64 as in Engine.Search (Stream materializes one
// at a time; the fragments are the same, byte for byte). A ranked search
// over N documents with Limit=10 assembles exactly 10 fragments.
// Ordering is deterministic regardless of worker interleaving: the ranked
// order is a strict total order (score, then document insertion order, then
// document order), matching a stable score sort of the eagerly merged lists.
//
// ctx cancellation or deadline stops the fan-out: no further
// documents are dispatched, in-flight candidate stages abandon their merge
// loops mid-stream, every worker goroutine is joined, and Search returns
// ctx.Err(). With req.Budget set to BestEffort, a deadline that expires
// mid-materialization instead returns the fragments finished so far with
// Truncated set.
func (c *Corpus) Search(ctx context.Context, req Request) (*Results, error) {
	res := &Results{Query: req.Query, PerDocument: map[string]int{}}
	err := c.run(ctx, req, blockSize, res, func(doc string, f *Fragment) bool {
		if res.Fragments == nil {
			res.Fragments = make([]CorpusFragment, 0, res.Stats.Selected)
		}
		res.Fragments = append(res.Fragments, CorpusFragment{Document: doc, Fragment: f})
		return true
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Stream is the one way a request executes on a corpus — the corpus-level
// mirror of Engine.Stream, under the same contract: the candidate stage and
// the selection across documents run eagerly when the loop starts (selection
// needs every document's candidates), fragments materialize one by one, in
// result order, as the iterator is consumed, a non-nil error is yielded once
// (with a zero CorpusFragment) and ends the sequence, and once the loop ends
// the trailer returns the Results envelope of the fragments actually yielded,
// whose Cursor resumes after the last of them. Request.Document narrows the
// snapshot vector to the named document; its cursors carry the corpus token
// like any other.
func (c *Corpus) Stream(ctx context.Context, req Request) (iter.Seq2[CorpusFragment, error], func() *Results) {
	res := &Results{Query: req.Query, PerDocument: map[string]int{}}
	seq := func(yield func(CorpusFragment, error) bool) {
		err := c.run(ctx, req, 1, res, func(doc string, f *Fragment) bool {
			return yield(CorpusFragment{Document: doc, Fragment: f}, nil)
		})
		if err != nil {
			yield(CorpusFragment{}, err)
		}
	}
	return seq, func() *Results { return res }
}

// run is the corpus's front end to runRequest, behind Search and Stream: it
// resolves req's snapshot vector (and cursor), then runs the loop
// materializing block candidates at a time, filling res's envelope as it
// goes.
func (c *Corpus) run(ctx context.Context, req Request, block int, res *Results, yield func(string, *Fragment) bool) error {
	req, docs, gen, err := c.resolveSnapshot(req)
	if err != nil {
		return err
	}
	return runRequest(ctx, req, gen, docs, c.Workers, block, res, yield)
}
