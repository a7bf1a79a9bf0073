package xks

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"iter"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"xks/internal/concurrent"
	"xks/internal/exec"
	"xks/internal/fault"
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
	// Workers bounds the per-search concurrency (0 = GOMAXPROCS).
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
// tagging every fragment with doc.
func (r *Result) AsCorpus(doc string) *Results {
	out := &Results{
		Query:       r.Query,
		Stats:       r.Stats,
		PerDocument: map[string]int{doc: len(r.Fragments)},
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

// Search fans the query out to every document and merges the results.
// With req.Rank set, fragments are ordered by descending score across
// documents; otherwise the merged list deterministically follows document
// insertion order (and document order within each document). req.Limit and
// req.Offset page the merged list; NextOffset reports where the following
// page starts. When req.Document is set, the search covers that document
// alone (equivalent to SearchDocument). A keyword missing from one document
// simply yields no fragments there; the query fails only if it is
// unsearchable (e.g. all stop words).
//
// Execution is staged (internal/exec): per-document workers run only the
// cheap plan and candidate stages; candidates stream into a shared merge —
// a bounded top-K heap when ranking with a limit — and fragments are
// materialized only for the merged selection. A ranked search over N
// documents with Limit=10 assembles exactly 10 fragments. Ordering is
// deterministic regardless of worker interleaving: the ranked order is a
// strict total order (score, then document insertion order, then document
// order), matching a stable score sort of the eagerly merged lists.
//
// ctx cancellation (and req.Timeout) stops the fan-out: no further
// documents are dispatched, in-flight candidate stages abandon their merge
// loops mid-stream, every worker goroutine is joined, and Search returns
// ctx.Err(). With req.Budget set to BestEffort, a deadline that expires
// mid-materialization instead returns the fragments finished so far with
// Truncated set (materialization runs serially in that mode so partial
// work survives).
func (c *Corpus) Search(ctx context.Context, req Request) (*Results, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if req.Document != "" {
		return c.SearchDocument(ctx, req.Document, req)
	}
	req, vec, gen, err := c.resolveSnapshot(req)
	if err != nil {
		return nil, err
	}
	ctx, cancel := req.applyTimeout(ctx)
	defer cancel()

	start := time.Now()
	outs, selected, merged, err := c.gather(ctx, req, vec)
	defer releaseAll(outs)
	materialize := func(cand *exec.Candidate) (CorpusFragment, error) {
		o := outs[cand.Doc]
		// The expired outer ctx (not a detached salvage one) feeds the
		// injection point so scripted deadline faults resolve immediately;
		// assembly itself never consults a context.
		f, merr := o.eng.materializeSafe(ctx, o.name, cand, o.plan, o.params)
		if merr != nil {
			return CorpusFragment{}, merr
		}
		return CorpusFragment{Document: o.name, Fragment: f}, nil
	}
	if err != nil {
		if req.Budget == BestEffort && errors.Is(err, context.DeadlineExceeded) {
			// The candidate fan-out did not finish: gather still returns the
			// envelope aggregated over the documents that completed — real
			// partial stats instead of a zero struct — plus the selection
			// salvaged from them. Materialize that page on a detached
			// context (the deadline is already spent; the work is bounded
			// by the page size) so finished candidate stages are not thrown
			// away.
			merged.Truncated = true
			merged.Truncation = TruncCandidates
			if len(selected) > 0 {
				frags, merr := concurrent.MapCtx(context.WithoutCancel(ctx), selected, c.Workers, materialize)
				if merr == nil {
					merged.Fragments = frags
				}
			}
			merged.Stats.Elapsed = time.Since(start)
			// Truncated before selection finished: the total is unknown
			// (the salvaged page covers only the completed documents), so
			// the page resumes from its own start — an empty cursor would
			// read as "exhausted" and silently end the scroll.
			truncationCursor(&merged.NextOffset, &merged.Cursor, req, gen)
			return merged, nil
		}
		return nil, err
	}

	sp := trace.SpanFromContext(ctx)
	matSp := sp.Child("materialize")
	matStart := time.Now()
	var frags []CorpusFragment
	if req.Budget == BestEffort {
		// Chunked fan-out: the same worker parallelism, with a deadline
		// check between chunks, so an expiring deadline truncates the page
		// to the chunks already finished instead of discarding everything
		// the workers produced (concurrent.MapCtx drops partial output on
		// error). Chunk size trades truncation granularity against join
		// overhead.
		chunk := c.Workers
		if chunk <= 0 {
			chunk = runtime.GOMAXPROCS(0)
		}
		chunk *= 4
		for lo := 0; lo < len(selected); lo += chunk {
			part, err := concurrent.MapCtx(ctx, selected[lo:min(lo+chunk, len(selected))], c.Workers, materialize)
			if err != nil {
				if errors.Is(err, context.DeadlineExceeded) {
					merged.Truncated = true
					merged.Truncation = TruncMaterialize
					break
				}
				return nil, err
			}
			frags = append(frags, part...)
		}
	} else {
		// Materialize only the selection, fanned out across the same worker
		// budget (engines are immutable and concurrency-safe; job order
		// keeps the merged order deterministic).
		frags, err = concurrent.MapCtx(ctx, selected, c.Workers, materialize)
		if err != nil {
			return nil, err
		}
	}
	merged.Stats.Stages.Materialize = time.Since(matStart)
	var prunedNodes int64
	for _, f := range frags {
		prunedNodes += int64(f.Pruned)
	}
	matSp.SetInt("fragments", int64(len(frags)))
	matSp.SetInt("prunedNodes", prunedNodes)
	matSp.End()
	if len(frags) > 0 {
		merged.Fragments = frags
	}
	lastDoc, lastSeq := 0, 0
	if len(frags) > 0 {
		last := selected[len(frags)-1]
		lastDoc, lastSeq = last.Doc, last.Seq
	}
	pageCursor(&merged.NextOffset, &merged.Cursor, req, gen, len(frags), merged.Stats.NumLCAs, lastDoc, lastSeq, merged.Truncated)
	merged.Stats.Elapsed = time.Since(start)
	return merged, nil
}

// docOut is one document's candidate-stage output within a corpus search.
type docOut struct {
	name   string
	eng    *Engine
	plan   exec.Plan
	params exec.Params
	// cands is nil in the streamed top-K path: candidates live only in
	// the bounded heap, so memory stays O(K), not O(total candidates).
	cands []*exec.Candidate
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
// filled. Search and Stream differ only in how they materialize the
// selection. req must already be cursor-resolved and clamped; vec is the
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
	mergedLimit := req.Limit // applied to the merged selection; per-doc stages stay complete
	docReq := req
	docReq.Limit, docReq.Offset = 0, 0
	docReq.Timeout = 0 // already applied to ctx

	sp := trace.SpanFromContext(ctx)

	// Streaming merge: with Rank and a limit, workers offer candidates into
	// the shared bounded heap as each document's candidate stage finishes;
	// everything that falls off the heap is never materialized. The heap
	// holds the whole pagination window so the page can start at Offset; a
	// window so large it overflows int can never be reached, so that shape
	// falls through to the full-sort path (which pages safely).
	var topk *exec.TopK
	if req.Rank && mergedLimit > 0 {
		if window := req.Offset + mergedLimit; window > 0 {
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
		// Chaos injection points: a scripted store-read or candidate-stage
		// fault targeted at this document fails (or panics — MapCtx recovers)
		// here, exercising the same degradation paths a real fault would.
		ferr := fault.Inject(ctx, fault.PointStoreRead, name)
		if ferr == nil {
			ferr = fault.Inject(ctx, fault.PointCandidates, name)
		}
		if ferr != nil {
			if ctx.Err() != nil {
				return docOut{}, ferr // the shared deadline expired; no document to blame
			}
			return docOut{}, fmt.Errorf("xks: document %s: %w", name, ferr)
		}
		// Each document gets its own child span (concurrent-safe); the
		// engine's plan and the lca/rtf sub-stages hang under it.
		docSp := candSp.Child("doc:" + name)
		// With the shared top-K heap, each document materializes at most the
		// merged page: skip per-candidate event lists and hydrate the few
		// selected candidates lazily (score-without-events).
		p, params, cands, release, err := eng.searchCandidates(trace.ContextWithSpan(ctx, docSp), docReq, i, topk != nil, vec[i].ver)
		docSp.End()
		if err != nil {
			if ctx.Err() != nil {
				return docOut{}, err // the shared context failed; no document to blame
			}
			return docOut{}, fmt.Errorf("xks: document %s: %w", name, err)
		}
		out := docOut{name: name, eng: eng, plan: p, params: params, n: len(cands), release: release}
		if topk != nil {
			topk.Offer(cands...)
		} else {
			out.cands = cands
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
			selected := selectAcross(topk, outs, req, mergedLimit)
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
	selected := selectAcross(topk, outs, req, mergedLimit)
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
func selectAcross(topk *exec.TopK, outs []docOut, req Request, mergedLimit int) []*exec.Candidate {
	if topk != nil {
		return exec.Page(topk.Ranked(), req.Offset, mergedLimit)
	}
	var all []*exec.Candidate
	for _, o := range outs {
		all = append(all, o.cands...)
	}
	return exec.Select(all, exec.Params{Rank: req.Rank, Limit: mergedLimit, Offset: req.Offset})
}

// Fragments is the streaming variant of Search — the corpus-level mirror of
// Engine.Fragments. The candidate fan-out and the shared top-K selection
// run eagerly (selection needs every document's candidates), but fragments
// materialize one by one as the iterator is consumed, in exactly the order
// Search returns them. Breaking out of the loop early — a disconnecting
// client, a filled page, a deadline — leaves every unvisited candidate
// unassembled: pruneRTF and node/string assembly run only for the
// fragments actually yielded. A non-nil error is yielded once (with a zero
// CorpusFragment) and ends the sequence. Callers that also need the
// envelope (cursor, stats, truncation) use Stream.
func (c *Corpus) Fragments(ctx context.Context, req Request) iter.Seq2[CorpusFragment, error] {
	seq, _ := c.Stream(ctx, req)
	return seq
}

// Stream begins a streamed corpus search: the fragment iterator plus a
// trailer. Once the loop ends (drained, broken, errored, or truncated) the
// trailer func returns the Results envelope for the fragments actually
// yielded — stats, the Truncated marker, and the Cursor resuming after the
// last yielded fragment, so an abandoned stream is still resumable. The
// yielded fragments themselves are not retained in the trailer (collect
// them from the iterator if a buffered page is needed), so consuming an
// unbounded result set stays O(1) server-side. The trailer's value is
// unspecified while the iterator is still running. Request.Document routes
// to the named document's engine stream, with the cursor validated against
// the corpus generation either way.
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
		if err != nil {
			if req.Budget == BestEffort && errors.Is(err, context.DeadlineExceeded) {
				// Partial stats from the documents that finished (see
				// gather) instead of an Elapsed-only zero struct, and the
				// selection salvaged from them yielded as a best-effort
				// page (assembly ignores the spent deadline; the work is
				// bounded by the page size).
				res.Stats = merged.Stats
				res.PerDocument = merged.PerDocument
				res.Truncated = true
				res.Truncation = TruncCandidates
				truncationCursor(&res.NextOffset, &res.Cursor, req, gen)
				for _, cand := range selected {
					o := outs[cand.Doc]
					cf, merr := o.eng.materializeSafe(ctx, o.name, cand, o.plan, o.params)
					if merr != nil {
						return
					}
					if !yield(CorpusFragment{Document: o.name, Fragment: cf}, nil) {
						return
					}
				}
				return
			}
			yield(CorpusFragment{}, err)
			return
		}
		res.Stats = merged.Stats
		res.PerDocument = merged.PerDocument

		sp := trace.SpanFromContext(ctx)
		matSp := sp.Child("materialize")
		yielded, lastDoc, lastSeq := 0, 0, 0
		var prunedNodes int64
		defer func() {
			matSp.SetInt("fragments", int64(yielded))
			matSp.SetInt("prunedNodes", prunedNodes)
			matSp.End()
			pageCursor(&res.NextOffset, &res.Cursor, req, gen, yielded, res.Stats.NumLCAs, lastDoc, lastSeq, res.Truncated)
		}()
		for _, cand := range selected {
			if cerr := ctx.Err(); cerr != nil {
				if req.Budget == BestEffort && errors.Is(cerr, context.DeadlineExceeded) {
					res.Truncated = true
					res.Truncation = TruncMaterialize
					return
				}
				yield(CorpusFragment{}, cerr)
				return
			}
			o := outs[cand.Doc]
			matStart := time.Now()
			f, merr := o.eng.materializeSafe(ctx, o.name, cand, o.plan, o.params)
			res.Stats.Stages.Materialize += time.Since(matStart)
			if merr != nil {
				if req.Budget == BestEffort && errors.Is(merr, context.DeadlineExceeded) {
					res.Truncated = true
					res.Truncation = TruncMaterialize
					return
				}
				yield(CorpusFragment{}, merr)
				return
			}
			cf := CorpusFragment{Document: o.name, Fragment: f}
			prunedNodes += int64(cf.Pruned)
			yielded, lastDoc, lastSeq = yielded+1, cand.Doc, cand.Seq
			if !yield(cf, nil) {
				return
			}
		}
	}
	return seq, func() *Results { return res }
}

// pinDocRequest resolves a document-filtered request's corpus cursor and
// rewrites it in the engine's own cursor dialect, pinned to the engine
// version the snapshot vector recorded for the document — so a resumed
// scroll reads exactly the state its first page did even after appends.
// The returned token is what the next page's corpus cursor must be
// stamped with.
func (c *Corpus) pinDocRequest(req Request) (Request, uint64, error) {
	req, vec, gen, err := c.resolveSnapshot(req)
	if err != nil {
		return req, 0, err
	}
	var ver uint64
	for _, ds := range vec {
		if ds.name == req.Document {
			ver = ds.ver
			break
		}
	}
	if ver == 0 {
		// A resumed corpus-wide vector that never pinned this document:
		// the document postdates the cursor.
		return req, 0, fmt.Errorf("%w: document %q is not in the cursor's snapshot", ErrStaleCursor, req.Document)
	}
	req.Cursor = encodeCursor(cursorState{gen: ver, offset: req.Offset, fp: req.fingerprint()})
	return req, gen, nil
}

// streamDocument is the Request.Document arm of Stream: the named engine's
// stream with fragments tagged and the cursor re-anchored to the corpus
// snapshot token (an engine-issued cursor would pin the engine's own
// version, which serving layers validating against the corpus could not
// honor).
func (c *Corpus) streamDocument(ctx context.Context, req Request, res *Results, yield func(CorpusFragment, error) bool) {
	name := req.Document
	req, gen, err := c.pinDocRequest(req)
	if err != nil {
		yield(CorpusFragment{}, err)
		return
	}
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
			if ctx == nil || ctx.Err() == nil {
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

// SearchDocument searches a single named document of the corpus, returning
// the result in the corpus shape; req.Document is normalized to name (so
// cursor fingerprints stay consistent however the caller routed here). The
// error wraps ErrUnknownDocument when name is not in the corpus. Cursors
// are validated against — and issued at — the document-scoped snapshot
// token, so mutations to other corpus documents never stale them.
func (c *Corpus) SearchDocument(ctx context.Context, name string, req Request) (*Results, error) {
	req.Document = name
	req, gen, err := c.pinDocRequest(req)
	if err != nil {
		return nil, err
	}
	res, err := c.engines[name].Search(ctx, req)
	if err != nil {
		if ctx != nil && ctx.Err() != nil {
			return nil, err // the caller's context failed; no document to blame
		}
		return nil, fmt.Errorf("xks: document %s: %w", name, err)
	}
	out := res.AsCorpus(name)
	if out.NextOffset >= 0 {
		// Re-anchor the engine-issued cursor to the corpus generation.
		out.Cursor = encodeCursor(cursorState{gen: gen, offset: out.NextOffset, fp: req.fingerprint()})
	}
	return out, nil
}
