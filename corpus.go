package xks

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"iter"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"xks/internal/concurrent"
	"xks/internal/exec"
	"xks/internal/trace"
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
// replaced, appended to, or rebuilt, so caching layers can tag entries
// with it and detect staleness. Compaction does not change it — folding
// delta segments into the base is invisible to readers.
func (c *Corpus) Generation() uint64 {
	return vectorHash(c.currentVector())
}

// VersionFor reports the version token serving layers should tag req's
// cache entry with: the full snapshot-vector hash for corpus-wide
// requests, and a document-scoped hash (name, registration nonce, engine
// version) for document-filtered ones — so appending to document A never
// invalidates cached pages that only touch document B.
func (c *Corpus) VersionFor(req Request) uint64 {
	if req.Document != "" {
		if e := c.engines[req.Document]; e != nil {
			return vectorHash([]docSnap{{name: req.Document, reg: c.regIDs[req.Document], ver: e.Generation()}})
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
// cursors and caches carry (FNV-64a over every pin).
func vectorHash(vec []docSnap) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, ds := range vec {
		fmt.Fprintf(h, "%d:%s", len(ds.name), ds.name)
		for _, v := range [2]uint64{ds.reg, ds.ver} {
			for i := range buf {
				buf[i] = byte(v >> (8 * i))
			}
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// resolveSnapshot is the corpus entry point's cursor-and-snapshot
// resolution: it clamps paging, builds the snapshot vector the request
// will serve (all documents, or just req.Document when filtered), records
// it in the registry, and — when the request carries a cursor — re-pins
// the exact vector the cursor's page was issued against. The returned
// request has the cursor folded into Offset; the returned version token is
// what the next page's cursor must be stamped with.
//
// A cursor goes ErrStaleCursor only when its snapshot is unresolvable: the
// registry evicted the entry, a pinned document was replaced or removed,
// or (detected later, in the engine) a renumbering rebuild discarded the
// pinned version. Appends and compactions never stale a cursor.
func (c *Corpus) resolveSnapshot(req Request) (Request, []docSnap, uint64, error) {
	req = req.clampPaging()
	var cur []docSnap
	if req.Document != "" {
		e := c.engines[req.Document]
		if e == nil {
			return req, nil, 0, fmt.Errorf("xks: %w: %q", ErrUnknownDocument, req.Document)
		}
		cur = []docSnap{{name: req.Document, reg: c.regIDs[req.Document], ver: e.Generation()}}
	} else {
		cur = c.currentVector()
	}
	curV := vectorHash(cur)
	c.snaps.put(curV, cur)
	if req.Cursor == "" {
		return req, cur, curV, nil
	}
	st, err := req.Cursor.decode()
	if err != nil {
		return req, nil, 0, err
	}
	if st.fp != req.fingerprint() {
		return req, nil, 0, ErrCursorMismatch
	}
	req.Offset, req.Cursor = st.offset, ""
	if st.gen == curV {
		return req, cur, curV, nil
	}
	vec, ok := c.snaps.get(st.gen)
	if !ok {
		return req, nil, 0, fmt.Errorf("%w: snapshot evicted from the corpus registry", ErrStaleCursor)
	}
	for _, ds := range vec {
		if e := c.engines[ds.name]; e == nil || c.regIDs[ds.name] != ds.reg {
			return req, nil, 0, fmt.Errorf("%w: document %q changed since the cursor was issued", ErrStaleCursor, ds.name)
		}
	}
	return req, vec, st.gen, nil
}

// AppendXML appends a parsed XML snippet under the identified node of the
// named document — the corpus face of Engine.AppendTail, because a corpus
// is searched while it is written: the parent must lie on the document's
// rightmost spine (ErrOffSpine otherwise). Outstanding cursors and cached
// pages, including corpus-wide ones, keep working: they re-pin the snapshot
// they were issued against.
func (c *Corpus) AppendXML(doc, parentDewey, snippet string) error {
	e := c.engines[doc]
	if e == nil {
		return fmt.Errorf("xks: %w: %q", ErrUnknownDocument, doc)
	}
	if err := e.AppendTail(parentDewey, snippet); err != nil {
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
	// It is generation-aware: replaying it after an AppendXML or
	// Corpus.Add fails with ErrStaleCursor instead of serving a silently
	// shifted page.
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
	// NextOffset is the Request.Offset of the next page when the merged
	// result set extends past this one, and -1 when it is exhausted.
	//
	// Deprecated: resume with Cursor, which survives index mutation
	// checks; NextOffset remains as the raw-offset shim.
	NextOffset int
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
		NextOffset:  r.NextOffset,
	}
	for _, f := range r.Fragments {
		out.Fragments = append(out.Fragments, CorpusFragment{Document: doc, Fragment: f})
	}
	return out
}

// Search fans the query out to every document and merges the results: it
// drains Stream and collects the page. With req.Rank set, fragments are
// ordered by descending score across documents; otherwise the merged list
// deterministically follows document insertion order (and document order
// within each document). req.Limit and req.Offset page the merged list;
// NextOffset reports where the following page starts. When req.Document is
// set, the search covers that document alone (equivalent to
// SearchDocument). A keyword missing from one document simply yields no
// fragments there; the query fails only if it is unsearchable (e.g. all stop
// words).
//
// Execution is staged (internal/exec): per-document workers run only the
// cheap plan and candidate stages; candidates stream into a shared merge —
// a bounded top-K heap when ranking with a limit — and fragments are
// materialized, one after another, only for the merged selection. A ranked
// search over N documents with Limit=10 assembles exactly 10 fragments.
// Ordering is deterministic regardless of worker interleaving: the ranked
// order is a strict total order (score, then document insertion order, then
// document order), matching a stable score sort of the eagerly merged lists.
//
// ctx cancellation (and req.Timeout) stops the fan-out: no further
// documents are dispatched, in-flight candidate stages abandon their merge
// loops mid-stream, every worker goroutine is joined, and Search returns
// ctx.Err(). With req.Budget set to BestEffort, a deadline that expires
// mid-materialization instead returns the fragments finished so far with
// Truncated set.
func (c *Corpus) Search(ctx context.Context, req Request) (*Results, error) {
	seq, trailer := c.Stream(ctx, req)
	var frags []CorpusFragment
	for f, err := range seq {
		if err != nil {
			return nil, err
		}
		frags = append(frags, f)
	}
	res := trailer()
	res.Fragments = frags
	return res, nil
}

// docOut is one document's candidate-stage output within a corpus search.
type docOut struct {
	name string
	eng  *Engine
	// docStage's cands is nil in the streamed top-K path: candidates live
	// only in the bounded heap, so memory stays O(K), not O(total
	// candidates).
	docStage
	// n is the candidate count (PerDocument / NumLCAs aggregation).
	n int
	// release unpins the engine snapshot this document's stage ran
	// against; the caller drops every pin once materialization is done.
	release func()
}

// releaseAll unpins every completed document's snapshot after a corpus
// search finishes with its outputs (pins are pure accounting — the
// fragments already materialized stay valid).
func releaseAll(outs []docOut) {
	for _, o := range outs {
		if o.release != nil {
			o.release()
		}
	}
}

// gather runs the cheap half of a corpus search — the per-document plan and
// candidate fan-out, the shared (top-K) merge, and selection — and returns
// the per-document outputs, the selected pagination window (nothing pruned
// or assembled yet), and the result envelope with stats and PerDocument
// filled. req must already be cursor-resolved and clamped; vec is the
// snapshot vector resolveSnapshot pinned the request to (each document's
// candidate stage runs against its recorded engine version, so a resumed
// cursor reads exactly the state its first page did); ctx carries any
// deadline (and the trace span, when the request is traced). Completed
// entries in the returned outs hold snapshot release funcs — the caller
// must releaseAll them after materializing.
//
// On error the envelope still comes back non-nil, aggregated over the
// documents whose candidate stage completed before the failure, so a
// BestEffort truncation reports the work actually done (keywords, partial
// candidate counts, stage timings) instead of a zero Stats struct.
func (c *Corpus) gather(ctx context.Context, req Request, vec []docSnap) ([]docOut, []*exec.Candidate, *Results, error) {
	sp := trace.SpanFromContext(ctx)

	// Streaming merge: with Rank and a limit, workers offer candidates into
	// the shared bounded heap as each document's candidate stage finishes;
	// everything that falls off the heap is never materialized, and each
	// document's stage skips per-candidate event lists (score-without-events;
	// the few selected candidates hydrate lazily). The heap holds the whole
	// pagination window so the page can start at Offset; a window so large it
	// overflows int can never be reached, so that shape falls through to the
	// full-sort path (which pages safely).
	var topk *exec.TopK
	if req.Rank && req.Limit > 0 {
		if window := req.Offset + req.Limit; window > 0 {
			topk = exec.NewTopK(window)
		}
	}
	docIdx := make([]int, len(vec))
	for i := range docIdx {
		docIdx[i] = i
	}
	candSp := sp.Child("candidates")
	candStart := time.Now()
	outs, err := concurrent.MapCtx(ctx, docIdx, c.Workers, func(i int) (docOut, error) {
		name := vec[i].name
		eng := c.engines[name]
		// Each document gets its own child span (concurrent-safe); the
		// engine's plan and the lca/rtf sub-stages hang under it.
		docSp := candSp.Child("doc:" + name)
		defer docSp.End()
		out := docOut{name: name, eng: eng}
		v, err := eng.viewAtVersion(vec[i].ver)
		if err == nil {
			// req's Limit and Offset describe the merged page; the stage reads
			// them only to decide on score-without-events.
			out.docStage, err = eng.candidateStage(trace.ContextWithSpan(ctx, docSp), v, req, name, i)
			if err != nil {
				// The fan-out drops failed outputs, so a pin travelling
				// inside one would leak.
				v.release()
			}
		}
		if err != nil {
			if ctx.Err() != nil {
				return docOut{}, err // the shared context failed; no document to blame
			}
			return docOut{}, fmt.Errorf("xks: document %s: %w", name, err)
		}
		out.n, out.release = len(out.cands), v.release
		if topk != nil {
			topk.Offer(out.cands...)
			out.cands = nil
		}
		return out, nil
	})

	merged := &Results{Query: req.Query, PerDocument: map[string]int{}, NextOffset: -1}
	// Per-document planning runs inside the concurrent fan-out, so the
	// corpus-level breakdown folds Plan into Candidates (the per-document
	// split is still visible in the trace span tree).
	merged.Stats.Stages.Candidates = time.Since(candStart)
	// concurrent.MapCtx returns results in job order, so ranging over outs
	// aggregates in document insertion order regardless of which worker
	// finished first. Under cancellation the fan-out may have died
	// mid-flight; completed entries (eng != nil) still aggregate so a
	// truncated page carries real partial stats.
	for _, o := range outs {
		if o.eng == nil {
			continue
		}
		if merged.Stats.Keywords == nil {
			merged.Stats.Keywords = o.plan.Keywords
		}
		merged.Stats.KeywordNodes += o.plan.KeywordNodes()
		merged.Stats.NumLCAs += o.n
		merged.PerDocument[o.name] = o.n
	}
	candSp.SetInt("documents", int64(len(vec)))
	candSp.SetInt("candidates", int64(merged.Stats.NumLCAs))
	candSp.End()
	if err != nil {
		if req.Budget == BestEffort && errors.Is(err, context.DeadlineExceeded) {
			// Candidate-stage salvage: the fan-out died on the deadline, but
			// every completed document's candidate set (and the shared top-K
			// heap the workers fed) is intact. Select over that partial
			// corpus so the caller can materialize an honest best-effort
			// page instead of discarding finished work. The error still
			// propagates — the caller owns the Truncated marking.
			selected := selectAcross(topk, outs, req)
			merged.Stats.Selected = len(selected)
			return outs, selected, merged, err
		}
		return outs, nil, merged, err
	}

	// Select across documents. Candidates are cheap handles; nothing has
	// been pruned or assembled yet. The streamed heap already holds the
	// ranked pagination window; the remaining shapes run the same Select
	// the single-document path uses, over the document-order concatenation.
	selSp := sp.Child("select")
	selStart := time.Now()
	selected := selectAcross(topk, outs, req)
	merged.Stats.Stages.Select = time.Since(selStart)
	merged.Stats.Selected = len(selected)
	selSp.SetInt("candidates", int64(merged.Stats.NumLCAs))
	selSp.SetInt("selected", int64(len(selected)))
	selSp.End()
	return outs, selected, merged, nil
}

// selectAcross runs the merged selection over the per-document candidate
// outputs: the shared top-K heap's pagination window when the streamed merge
// ran, otherwise the standard Select over the document-order concatenation
// of completed documents (o.eng == nil marks a document whose candidate
// stage did not finish; it contributed nothing).
func selectAcross(topk *exec.TopK, outs []docOut, req Request) []*exec.Candidate {
	if topk != nil {
		return exec.Page(topk.Ranked(), req.Offset, req.Limit)
	}
	var all []*exec.Candidate
	for _, o := range outs {
		all = append(all, o.cands...)
	}
	return exec.Select(all, exec.Params{Rank: req.Rank, Limit: req.Limit, Offset: req.Offset})
}

// Fragments is Stream for callers that do not need the envelope: the same
// iterator, the trailer discarded.
func (c *Corpus) Fragments(ctx context.Context, req Request) iter.Seq2[CorpusFragment, error] {
	seq, _ := c.Stream(ctx, req)
	return seq
}

// Stream is the one way a request executes on a corpus — the corpus-level
// mirror of Engine.Stream: the fragment iterator plus a trailer. The
// candidate fan-out and the shared top-K selection run eagerly when the loop
// starts (selection needs every document's candidates), but fragments
// materialize one by one as the iterator is consumed, in result order.
// Breaking out of the loop early — a disconnecting client, a filled page, a
// deadline — leaves every unvisited candidate unassembled: pruneRTF and
// node/string assembly run only for the fragments actually yielded. A
// non-nil error is yielded once (with a zero CorpusFragment) and ends the
// sequence. Once the loop ends (drained, broken, errored, or truncated) the
// trailer func returns the Results envelope for the fragments actually
// yielded — stats, the Truncated marker, and the Cursor resuming after the
// last yielded fragment, so an abandoned stream is still resumable. The
// yielded fragments themselves are not retained in the trailer (Search
// collects them from the iterator), so consuming an unbounded result set
// stays O(1) server-side. The trailer's value is unspecified while the
// iterator is still running. Request.Document routes to the named document's
// engine stream, with the cursor validated against the corpus generation
// either way.
func (c *Corpus) Stream(ctx context.Context, req Request) (iter.Seq2[CorpusFragment, error], func() *Results) {
	res := &Results{Query: req.Query, PerDocument: map[string]int{}, NextOffset: -1}
	seq := func(yield func(CorpusFragment, error) bool) {
		if ctx == nil {
			ctx = context.Background()
		}
		if req.Document != "" {
			c.streamDocument(ctx, req, res, yield)
			return
		}
		req, vec, gen, err := c.resolveSnapshot(req)
		if err != nil {
			yield(CorpusFragment{}, err)
			return
		}
		ctx, cancel := req.applyTimeout(ctx)
		defer cancel()

		start := time.Now()
		defer func() { res.Stats.Elapsed = time.Since(start) }()
		outs, selected, merged, err := c.gather(ctx, req, vec)
		defer releaseAll(outs)
		// Candidate-stage salvage: the fan-out died on a BestEffort deadline.
		// gather still returns the envelope aggregated over the documents
		// that completed — real partial stats instead of a zero struct — plus
		// the selection salvaged from them, which is yielded below as a
		// best-effort page: assembly ignores the spent deadline, and the work
		// is bounded by the page size.
		salvage := err != nil && req.Budget == BestEffort && errors.Is(err, context.DeadlineExceeded)
		if err != nil && !salvage {
			yield(CorpusFragment{}, err)
			return
		}
		res.Stats = merged.Stats
		res.PerDocument = merged.PerDocument
		if salvage {
			// Truncated before selection finished: the total is unknown (the
			// salvaged page covers only the completed documents), so the page
			// resumes from its own start — an empty cursor would read as
			// "exhausted" and silently end the scroll.
			res.Truncated = true
			res.Truncation = TruncCandidates
			truncationCursor(&res.NextOffset, &res.Cursor, req, gen)
		}

		sp := trace.SpanFromContext(ctx)
		matSp := sp.Child("materialize")
		yielded, lastDoc, lastSeq := 0, 0, 0
		var prunedNodes int64
		defer func() {
			matSp.SetInt("fragments", int64(yielded))
			matSp.SetInt("prunedNodes", prunedNodes)
			matSp.End()
			if !salvage {
				pageCursor(&res.NextOffset, &res.Cursor, req, gen, yielded, res.Stats.NumLCAs, lastDoc, lastSeq, res.Truncated)
			}
		}()
		for _, cand := range selected {
			o := outs[cand.Doc]
			var f *Fragment
			err := ctx.Err()
			if err == nil || salvage {
				// The expired ctx still feeds the injection point, so scripted
				// deadline faults resolve immediately.
				matStart := time.Now()
				f, err = o.eng.materializeSafe(ctx, o.name, cand, o.plan, o.params)
				res.Stats.Stages.Materialize += time.Since(matStart)
			}
			if err != nil {
				switch {
				case salvage: // the page is what was salvaged before the failure
				case req.Budget == BestEffort && errors.Is(err, context.DeadlineExceeded):
					res.Truncated = true
					res.Truncation = TruncMaterialize
				default:
					yield(CorpusFragment{}, err)
				}
				return
			}
			prunedNodes += int64(f.Pruned)
			yielded, lastDoc, lastSeq = yielded+1, cand.Doc, cand.Seq
			if !yield(CorpusFragment{Document: o.name, Fragment: f}, nil) {
				return
			}
		}
	}
	return seq, func() *Results { return res }
}

// streamDocument is the Request.Document arm of Stream: the named engine's
// stream with fragments tagged. The corpus cursor is resolved and rewritten
// in the engine's own cursor dialect, pinned to the engine version the
// snapshot vector recorded for the document — so a resumed scroll reads
// exactly the state its first page did even after appends — and the cursor
// of the next page is re-anchored to the corpus snapshot token (an
// engine-issued cursor would pin the engine's own version, which serving
// layers validating against the corpus could not honor; mutations to other
// corpus documents never stale it).
func (c *Corpus) streamDocument(ctx context.Context, req Request, res *Results, yield func(CorpusFragment, error) bool) {
	name := req.Document
	req, vec, gen, err := c.resolveSnapshot(req)
	if err != nil {
		yield(CorpusFragment{}, err)
		return
	}
	var ver uint64
	for _, ds := range vec {
		if ds.name == name {
			ver = ds.ver
			break
		}
	}
	if ver == 0 {
		// A resumed corpus-wide vector that never pinned this document:
		// the document postdates the cursor.
		yield(CorpusFragment{}, fmt.Errorf("%w: document %q is not in the cursor's snapshot", ErrStaleCursor, name))
		return
	}
	req.Cursor = encodeCursor(cursorState{gen: ver, offset: req.Offset, fp: req.fingerprint()})
	seq, trailer := c.engines[name].Stream(ctx, req)
	defer func() {
		t := trailer().AsCorpus(name)
		if t.NextOffset >= 0 {
			t.Cursor = encodeCursor(cursorState{gen: gen, offset: t.NextOffset, fp: req.fingerprint()})
		}
		*res = *t
	}()
	for f, err := range seq {
		if err != nil {
			if ctx.Err() == nil {
				err = fmt.Errorf("xks: document %s: %w", name, err)
			}
			yield(CorpusFragment{}, err)
			return
		}
		if !yield(CorpusFragment{Document: name, Fragment: f}, nil) {
			return
		}
	}
}

// SearchDocument is Search over the single document name (req.Document is
// set to it, so cursor fingerprints stay consistent however the caller
// routed here). The error wraps ErrUnknownDocument when name is not in the
// corpus.
func (c *Corpus) SearchDocument(ctx context.Context, name string, req Request) (*Results, error) {
	if c.engines[name] == nil {
		return nil, fmt.Errorf("xks: %w: %q", ErrUnknownDocument, name)
	}
	req.Document = name
	return c.Search(ctx, req)
}
