// Package xks is an XML keyword search engine implementing the ValidRTF
// algorithm of "Retrieving Meaningful Relaxed Tightest Fragments for XML
// Keyword Search" (Kong, Gilleron, Lemay — EDBT 2009), together with the
// revised MaxMatch baseline it is evaluated against.
//
// Given an XML document and a keyword query, the engine returns meaningful
// fragments: one Relaxed Tightest Fragment (RTF) per interesting LCA node
// (the ELCA semantics), pruned so that every kept node is a valid
// contributor to its parent — label-aware and content-aware filtering that
// avoids MaxMatch's false positive and redundancy problems.
//
// Basic use:
//
//	engine, err := xks.Load(file)
//	res, err := engine.Search(ctx, xks.Request{Query: "xml keyword search"})
//	for _, f := range res.Fragments {
//	    fmt.Println(f.ASCII())
//	}
//
// Every search takes a context.Context and a Request: cancelling the
// context, or letting its deadline expire, aborts the pipeline mid-stream,
// and Request.Limit with the result's Cursor pages through large result sets.
package xks

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"iter"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xks/internal/analysis"
	"xks/internal/concurrent"
	"xks/internal/delta"
	"xks/internal/exec"
	"xks/internal/fault"
	"xks/internal/index"
	"xks/internal/lca"
	"xks/internal/nid"
	"xks/internal/planner"
	"xks/internal/prune"
	"xks/internal/query"
	"xks/internal/rank"
	"xks/internal/rtf"
	"xks/internal/snippet"
	"xks/internal/store"
	"xks/internal/trace"
	"xks/internal/xmltree"
)

// Algorithm selects the pruning mechanism.
type Algorithm int

const (
	// ValidRTF is the paper's valid-contributor filtering (the default).
	ValidRTF Algorithm = iota
	// MaxMatch is the contributor filtering of Liu & Chen (VLDB 2008),
	// revised to operate on RTFs.
	MaxMatch
	// RawRTF disables pruning and returns whole RTFs.
	RawRTF
)

func (a Algorithm) String() string {
	switch a {
	case ValidRTF:
		return "ValidRTF"
	case MaxMatch:
		return "MaxMatch"
	case RawRTF:
		return "RawRTF"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

func (a Algorithm) mode() prune.Mode {
	switch a {
	case MaxMatch:
		return prune.Contributor
	case RawRTF:
		return prune.NoPruning
	default:
		return prune.ValidContributor
	}
}

// Semantics selects which LCA nodes root the fragments.
type Semantics int

const (
	// AllLCA roots one fragment at every interesting LCA node (the ELCA
	// semantics of the paper's getLCA — the default).
	AllLCA Semantics = iota
	// SLCAOnly restricts fragments to smallest-LCA roots, the semantics of
	// the original MaxMatch.
	SLCAOnly
)

func (s Semantics) String() string {
	if s == SLCAOnly {
		return "SLCAOnly"
	}
	return "AllLCA"
}

// Engine is a concurrency-safe search engine over one XML document: its
// document source (srcState: the node columns, whether an engine built
// them from a parsed document or opened them in a shredded store) plus its
// inverted keyword index, each published atomically — the index as a delta
// head (base index + append segments; internal/delta). Reads pin a
// snapshot and the source columns at entry and never block; writes
// (AppendXML, Compact) serialize on an internal mutex and publish new
// versions. No engine holds a parsed tree.
type Engine struct {
	st  *store.Store // nil unless the engine opened a store
	src atomic.Pointer[srcState]
	// labels, content, text and attrs are the source columns as the writer
	// grows them (publish, under mu); each published srcState views a
	// prefix of them.
	labels      index.LabelColumn
	content     index.Content
	text, attrs index.Strings
	tree        *xmltree.Tree // Tree's, nil until its first call
	an          *analysis.Analyzer
	snip        *snippet.Generator

	// head is the current index state; mu serializes the writers that
	// replace it and src, and that alone touch tree and the source
	// columns. counters carries the delta subsystem's observability
	// state (pinned snapshots, compactions).
	head     atomic.Pointer[delta.Head]
	mu       sync.Mutex
	counters delta.Counters

	// assembled counts materialized fragments over the engine's lifetime —
	// the observable half of the late-materialization contract (selection
	// is cheap; only selected candidates are assembled). Tests and
	// benchmarks assert on it.
	assembled atomic.Uint64
}

// view is one query's resolved read state of one document: a pinned
// snapshot plus the scorer whose IDF weights reflect exactly the nodes that
// snapshot sees. Callers must release it exactly once when the query
// finishes; the query's fragments keep rendering from it (pins are
// accounting, not lifetime).
type view struct {
	snap   *delta.Snapshot
	scorer *rank.Scorer
	// src is the document source, pinned after the snapshot: a writer
	// extends it before it publishes the head that makes new IDs visible,
	// so it covers every ID the snapshot holds. The query's fragments read
	// and render from src and the snapshot's table alone.
	src *srcState
	eng *Engine
	// words are the plan's IDF words and keywords its display keywords in
	// mask-bit order (Fragment.NodeMatched), both set before any fragment
	// exists.
	words, keywords []string
}

func (v *view) release() { v.snap.Release() }

// viewAt resolves and pins the snapshot of head h at n nodes: a version
// token is the node count, and h.At refuses a count past the head or one
// that splits an append (a forged or future token) with ErrStaleCursor.
func (e *Engine) viewAt(h *delta.Head, n int) (*view, error) {
	snap, err := h.At(n, &e.counters)
	if err != nil {
		return nil, fmt.Errorf("%w: %v; restart from the first page", ErrStaleCursor, err)
	}
	return &view{snap: snap, scorer: rank.NewScorerFrom(snap), src: e.src.Load(), eng: e}, nil
}

// currentView pins the engine's newest published state. Resolving a head
// at its own length cannot fail.
func (e *Engine) currentView() *view {
	h := e.head.Load()
	v, err := e.viewAt(h, h.Tab.Len())
	if err != nil {
		// Unreachable: a head is always a valid boundary of itself.
		panic(fmt.Sprintf("xks: head rejected its own snapshot: %v", err))
	}
	return v
}

// resolveRequest resolves the request's read snapshot: cursorless requests
// pin the newest head; a cursor re-pins the exact snapshot it was issued
// against (the node count it carries), which stays resolvable across later
// appends and compactions.
func (e *Engine) resolveRequest(req Request) (Request, *view, error) {
	req = req.clampPaging()
	if req.Cursor == "" {
		return req, e.currentView(), nil
	}
	req, issued, err := req.foldCursor()
	if err != nil {
		return req, nil, err
	}
	v, err := e.viewAt(e.head.Load(), int(issued))
	if err != nil {
		return req, nil, err
	}
	return req, v, nil
}

// Load reads an XML document and builds the engine over its columns,
// scanned straight from its bytes (index.AnalyzeBytes) without a tree.
func Load(r io.Reader) (*Engine, error) {
	in, err := xmltree.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("xmltree: parse: %w", err)
	}
	an := analysis.New()
	rows, err := index.AnalyzeBytes(in, an)
	if err != nil {
		return nil, err
	}
	return fromRows(an, rows), nil
}

// LoadString builds an engine from an XML string.
func LoadString(s string) (*Engine, error) {
	return Load(strings.NewReader(s))
}

// LoadFile builds an engine from an XML file on disk.
func LoadFile(path string) (*Engine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

// FromTree builds an engine over an already-parsed tree. One walk of the
// tree publishes its columns (node table, labels, text, attributes,
// content sets and posting lists), and the engine keeps no reference to
// the tree or its nodes.
func FromTree(t *xmltree.Tree) *Engine {
	an := analysis.New()
	return fromRows(an, index.Analyze(t, an))
}

// fromRows builds an engine that publishes a document's rows, analysed by an.
func fromRows(an *analysis.Analyzer, rows index.Rows) *Engine {
	e := &Engine{an: an, snip: snippet.NewGenerator(an)}
	ix := index.FromRows(rows)
	e.publish(rows.Labels, rows.Content(), rows.Text, rows.Attrs)
	e.head.Store(&delta.Head{Tab: ix.Table(), Base: ix})
	return e
}

// FromStore builds an engine over a shredded store — the paper's actual
// architecture, where searches run off the three relational tables without
// the original document. It answers and renders as an engine over the
// parsed document does, and takes appends alike: the store's columns stay
// as they are, and the first append copies them (see srcState).
func FromStore(st *store.Store) *Engine {
	an := analysis.New()
	ix := st.BuildIndex()
	e := &Engine{st: st, an: an, snip: snippet.NewGenerator(an)}
	e.publish(st.Columns())
	e.head.Store(&delta.Head{Tab: ix.Table(), Base: ix})
	return e
}

// OpenStore loads a store file written by store.Save / cmd/xkshred and
// builds an engine over it. v3 files open mmap-backed where the platform
// supports it (store.OpenAuto); to pin the backing, open the file with
// store.OpenFile and build the engine with FromStore.
func OpenStore(path string) (*Engine, error) {
	st, err := store.OpenFile(path, store.OpenOptions{Mode: store.OpenAuto})
	if err != nil {
		return nil, err
	}
	return FromStore(st), nil
}

// Close releases the engine's store mapping, if any. After Close the engine
// must not be used: a mapped store's index and fragments view unmapped
// memory. Engines without a file mapping close as a no-op.
func (e *Engine) Close() error {
	if e.st != nil {
		return e.st.Close()
	}
	return nil
}

// Tree returns the document as a tree (read-only) for the benchmark
// harness; nothing in the module calls it, and it goes once the harness
// parses its own (ROADMAP 1(c)). The first call renders every node and
// parses the result, taking each node's text from the text column as it is
// (a parse trims it and reads invalid UTF-8 as U+FFFD); AppendXML keeps
// the tree in step from then on. It is nil when the columns do not render
// a well-formed document, as a store file's bytes need not.
func (e *Engine) Tree() *xmltree.Tree {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.tree == nil {
		tab, src := e.head.Load().Tab, e.src.Load()
		all := make([]nid.ID, tab.Len())
		for i := range all {
			all[i] = nid.ID(i)
		}
		var doc bytes.Buffer
		src.writeXML(&doc, tab, all) // a Buffer's writes cannot fail
		t, err := xmltree.Parse(&doc)
		if err != nil {
			return nil
		}
		for i, n := range t.Nodes() {
			n.Text = src.text.Row(nid.ID(i))
		}
		e.tree = t
	}
	return e.tree
}

// Index exposes the underlying base inverted index (read-only). Postings
// appended since the last compaction live in delta segments on top of it;
// query paths resolve snapshots instead of reading the base directly.
func (e *Engine) Index() *index.Index { return e.head.Load().Base }

// Generation reports the engine's current version token: the node count
// of the newest published head. It grows with every append and is
// unchanged by compaction. Caching layers (internal/service) compare
// tokens to detect stale cached results; cursors embed the token to re-pin
// their issuing snapshot.
func (e *Engine) Generation() uint64 { return e.head.Load().Version() }

// DeltaInfo summarizes the delta subsystem's state for one engine (or,
// summed, a corpus): live write-side segments and postings, the words and
// IDs the live merged-list overlay holds, the pinned-snapshot refcount, and
// append and compaction totals. Exposed on /metrics as the xks_delta_*,
// xks_appends_total / xks_append_duration_seconds and xks_snapshots_pinned /
// xks_compactions_total / xks_compaction_seconds families.
type DeltaInfo struct {
	Segments          int64
	Postings          int64
	MergedLists       int64
	MergedIDs         int64
	PinnedSnapshots   int64
	Appends           int64
	AppendSeconds     float64
	Compactions       int64
	CompactionSeconds float64
}

// DeltaInfo reports the engine's delta-subsystem state: live segment,
// posting and overlay gauges from the published head, pinned-snapshot,
// append and compaction totals from the engine's counters.
func (e *Engine) DeltaInfo() DeltaInfo {
	h := e.head.Load()
	lists, ids := h.Merged()
	info := DeltaInfo{
		Segments:          int64(len(h.Segs)),
		MergedLists:       int64(lists),
		MergedIDs:         int64(ids),
		PinnedSnapshots:   e.counters.Pinned(),
		Appends:           e.counters.Appends(),
		AppendSeconds:     e.counters.AppendSeconds(),
		Compactions:       e.counters.Compactions(),
		CompactionSeconds: e.counters.CompactionSeconds(),
	}
	for _, sg := range h.Segs {
		info.Postings += int64(sg.Count)
	}
	return info
}

// Compact folds the engine's delta segments into a fresh base index and
// publishes it, returning how many segments were folded. The version token
// does not change — no IDs move, no postings appear or disappear — so
// cached results stay valid and outstanding cursors resume seamlessly;
// snapshots pinned on the old base keep reading it until released. Safe to
// run concurrently with reads; writes serialize behind it.
func (e *Engine) Compact(ctx context.Context) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	h := e.head.Load()
	if len(h.Segs) == 0 {
		return 0, nil
	}
	start := time.Now()
	folded := delta.Fold(h)
	// Chaos injection point: a compactor crash after folding but before
	// publishing must leave the published head untouched — the fold is
	// garbage-collected, nothing is half-applied.
	if err := fault.Inject(ctx, fault.PointCompact, ""); err != nil {
		return 0, err
	}
	e.head.Store(&delta.Head{Tab: h.Tab, Base: folded})
	e.counters.RecordCompaction(time.Since(start))
	return len(h.Segs), nil
}

// StageStats breaks one search's wall-clock time down by pipeline stage
// (plan → candidates → select → materialize; see internal/exec). The
// timings are recorded on every search — no tracing required, and the
// struct is a value, so the breakdown is allocation-free. For a search over
// several documents Plan is folded into Candidates: per-document planning
// runs inside the concurrent candidate fan-out, so the two are not separable
// at the corpus level (the per-document split is still visible in the trace
// span tree when the request is traced). Materialize accumulates the time
// spent assembling fragments, which for streaming consumers excludes the
// time the consumer held the iterator between fragments.
type StageStats struct {
	Plan        time.Duration
	Candidates  time.Duration
	Select      time.Duration
	Materialize time.Duration
}

// TruncationReason says why a BestEffort page was cut short — the
// machine-readable counterpart of the Truncated flag, so clients and
// dashboards can distinguish a deadline that expired during the candidate
// fan-out (empty page, unknown total) from one that expired between
// materializations (partial page).
type TruncationReason string

const (
	// TruncNone: the page was not truncated.
	TruncNone TruncationReason = ""
	// TruncCandidates: the BestEffort deadline expired during the plan or
	// candidate stage, before selection finished. The total is unknown and
	// the cursor resumes from the page's own start. A one-document page is
	// empty; a search over several documents salvages those whose candidate
	// stage finished in time, so the page holds a best-effort selection over
	// that partial corpus (re-running the cursor recomputes the true page).
	TruncCandidates TruncationReason = "deadline-candidates"
	// TruncMaterialize: the BestEffort deadline expired during the
	// materialize stage. The page holds every fragment that finished in
	// time and the cursor resumes after the last one.
	TruncMaterialize TruncationReason = "deadline-materialize"
)

// Stats summarizes one search execution.
type Stats struct {
	// Keywords are the normalized query keywords in mask-bit order.
	Keywords []string
	// KeywordNodes is the total number of keyword-node postings consulted.
	KeywordNodes int
	// NumLCAs is the number of fragment roots (|A| in §5.1).
	NumLCAs int
	// Selected is the number of candidates selected into the pagination
	// window — the fragments the search materializes when fully drained.
	Selected int
	// Elapsed is the wall-clock time of the LCA + RTF + prune pipeline
	// (excluding index construction, matching the paper's measurement).
	Elapsed time.Duration
	// Stages is the per-stage breakdown of Elapsed.
	Stages StageStats
}

// Result is the outcome of one single-document search: the same envelope
// shape as the corpus-level Results (fragments, cursor, truncation marker,
// stats), minus the per-document bookkeeping.
type Result struct {
	Query string
	// Request echoes the executed request with the cursor resolved: Offset
	// holds the effective window start even when the caller paged by
	// Cursor.
	Request   Request
	Fragments []*Fragment
	Stats     Stats
	// Cursor is the opaque resume token of the next page when the result
	// set extends past this one, and empty when it is exhausted.
	Cursor Cursor
	// Truncated reports that a BestEffort deadline expired mid-pipeline:
	// Fragments holds everything finished in time, and Cursor resumes
	// from the first fragment that was not.
	Truncated bool
	// Truncation says which stage the deadline expired in when Truncated
	// is set (TruncNone otherwise).
	Truncation TruncationReason
}

// Search runs the staged pipeline (plan → candidates → select →
// materialize; see internal/exec) and returns the meaningful fragments: the
// request loop behind Stream, collected into a page. Query terms may carry
// XSearch-style label predicates ("title:xml", "author:"); see internal/query.
// A term that matches nothing yields an empty result (no fragment can cover
// the query), not an error; queries with no searchable term at all fail with
// ErrEmptyQuery.
//
// Search drains the page anyway, so it materializes the selected candidates
// in blocks of up to 64 rather than one at a time as Stream does: a block is
// pruned candidate by candidate, then assembled at once, so its fragments
// share a few exact-size backing arrays (see Fragment). The fragments are the
// ones Stream yields, byte for byte.
//
// ctx cancellation or deadline aborts the pipeline mid-stream with
// ctx.Err(): the candidate stage checks the context every few thousand
// merge events, materialization checks it before pruning each candidate.
// With Rank and Limit set, selection runs before materialization: only the
// candidates of the requested page are pruned and assembled into fragments;
// Cursor resumes the following page. req.Document is ignored — a single
// engine holds one document (see Corpus for the filterable collection).
func (e *Engine) Search(ctx context.Context, req Request) (*Result, error) {
	res := &Result{Query: req.Query}
	var page Results
	err := e.run(ctx, req, blockSize, res, &page, func(_ string, f *Fragment) bool {
		if res.Fragments == nil {
			res.Fragments = make([]*Fragment, 0, page.Stats.Selected)
		}
		res.Fragments = append(res.Fragments, f)
		return true
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Stream is the one way a request executes on an engine: the fragment
// iterator plus a trailer. Plan, candidates and selection run eagerly when
// the loop starts; fragments then materialize one by one (a block of one) as
// the iterator is consumed, in result order, so breaking out early leaves the
// remaining candidates unassembled — a caller that stops after the first few
// fragments pays pruneRTF and assembly for exactly those. Only the backing
// arrays are shared ahead of time: the fragments are carved from slabs sized
// for windows of 1, 2, 4, … up to 64 fragments, so a drained stream costs a
// few allocations per window rather than per fragment, and a retained
// fragment keeps its window's slabs alive. A non-nil error is
// yielded once (with a nil fragment) and ends the sequence; ctx is checked
// before every fragment. Once the loop ends (drained, broken, errored, or
// truncated), the trailer func returns the Result envelope for the fragments
// actually yielded: stats, the Truncated marker, and the Cursor resuming
// after the last yielded fragment — so an abandoned stream is still
// resumable. The yielded fragments themselves are not retained in the
// trailer, so consuming an unbounded result set stays O(1) server-side. The
// trailer's value is unspecified while the iterator is still running.
func (e *Engine) Stream(ctx context.Context, req Request) (iter.Seq2[*Fragment, error], func() *Result) {
	res := &Result{Query: req.Query}
	seq := func(yield func(*Fragment, error) bool) {
		var page Results
		err := e.run(ctx, req, 1, res, &page, func(_ string, f *Fragment) bool { return yield(f, nil) })
		if err != nil {
			yield(nil, err)
		}
	}
	return seq, func() *Result { return res }
}

// run is the engine's front end to runRequest, behind Search and Stream: it
// resolves req's cursor and snapshot, runs the loop materializing block
// candidates at a time, and fills res's envelope from page, which runRequest
// fills as it goes (Search reads the selection size off it).
func (e *Engine) run(ctx context.Context, req Request, block int, res *Result, page *Results, yield func(string, *Fragment) bool) error {
	if ctx == nil {
		ctx = context.Background()
	}
	req, v, err := e.resolveRequest(req)
	if err != nil {
		return err
	}
	res.Request = req
	// The snapshot's version stamps the next page's cursor, which re-pins
	// exactly this state whatever is appended meanwhile.
	err = runRequest(ctx, req, v.snap.Version(), []docRead{{eng: e, v: v}}, 0, block, page, yield)
	res.Stats, res.Cursor, res.Truncated, res.Truncation = page.Stats, page.Cursor, page.Truncated, page.Truncation
	return err
}

// docRead is one document a request reads: its engine, the snapshot pinned
// for it, and the name that labels its fault-injection points, its errors and
// its fragments ("" for a bare engine). runRequest fills in the rest.
type docRead struct {
	name string
	eng  *Engine
	v    *view
	docStage
	// counted marks a document whose stage output enters the envelope — one
	// whose stage finished, or a lone document, whose plan is reported even
	// when its candidates are not.
	counted bool
	// leak is set by a scripted snapshot-pin fault: the pin is never
	// released, the refcount leak the chaos suite proves the pinned gauge
	// detects.
	leak bool
}

// releaseAll hands back every document's candidate-stage scratch (the
// events and roots its candidates borrow) and unpins its snapshot once a
// request is done with its candidates: the materialize loop has ended,
// drained, broken, errored or truncated. No fragment references an event or
// a root, and pins are pure accounting, so what was materialized stays
// valid.
func releaseAll(docs []docRead) {
	for _, d := range docs {
		if d.releaseEvents != nil {
			d.releaseEvents()
		}
		if !d.leak {
			d.v.release()
		}
	}
}

// runRequest is the one request loop, behind Search and Stream of Engine and
// Corpus alike: the candidate stage over docs, selection, then the lazy
// materialize loop under the BestEffort rules, and the page cursor. req
// is resolved (cursor folded into Offset, paging clamped), gen is the version
// token the next page's cursor is stamped with, and docs are the documents to
// read, each pinned; every pin is released before runRequest returns. The
// envelope goes to res (PerDocument only when non-nil), and the fragments to
// yield, in result order, until it returns false: breaking out early leaves
// the remaining candidates unassembled, and the cursor resumes after the last
// fragment yielded. The selected candidates materialize block candidates at
// a time (blockScratch.fill): 1 for a stream, so it prunes and assembles
// exactly what it yields (into slabs shared across its window), blockSize for
// a page that is collected whole. The error is the request's failure, for the
// caller to yield.
//
// A lone document runs its candidate stage inline; several fan out across up
// to workers goroutines (candidates). A BestEffort deadline that expires in
// the candidate stage salvages a page from the documents that finished — a
// lone document has none, so its page is empty — stamped with a cursor that
// resumes from the page's own start: the total is unknown, and an empty
// cursor would read as "exhausted" and silently end the scroll. One that
// expires mid-materialization truncates the page after the last fragment
// finished.
func runRequest(ctx context.Context, req Request, gen uint64, docs []docRead, workers, block int, res *Results, yield func(doc string, f *Fragment) bool) error {
	for i := range docs {
		docs[i].leak = fault.Inject(ctx, fault.PointSnapshotPin, docs[i].name) != nil
	}
	defer releaseAll(docs)
	// One child span per stage when the request is traced; a nil span (the
	// untraced common case) makes every call below a free no-op.
	sp := trace.SpanFromContext(ctx)

	topk, start, err := candidates(ctx, req, docs, workers, res)
	if !start.IsZero() { // the candidate stage ran
		defer func() { res.Stats.Elapsed = time.Since(start) }()
	}
	salvage := err != nil && req.Budget == BestEffort && errors.Is(err, context.DeadlineExceeded)
	if err != nil && !salvage {
		return err
	}
	if salvage {
		res.Truncated, res.Truncation = true, TruncCandidates
		res.Cursor = truncationCursor(req, gen)
	}
	if len(docs) == 1 && (salvage || len(docs[0].plan.Sets) == 0) {
		return nil // nothing to select: no fragment can cover the query
	}

	// Candidates are cheap handles; nothing has been pruned or assembled yet.
	var selSp *trace.Span
	if !salvage {
		selSp = sp.Child("select")
	}
	selStart := time.Now()
	selected := selectAcross(topk, docs, req)
	res.Stats.Stages.Select = time.Since(selStart)
	res.Stats.Selected = len(selected)
	selSp.SetInt("candidates", int64(res.Stats.NumLCAs))
	selSp.SetInt("selected", int64(len(selected)))
	selSp.End()

	matSp := sp.Child("materialize")
	b := blockPool.Get().(*blockScratch)
	defer b.release()
	yielded := 0
	var prunedNodes int64
	defer func() {
		matSp.SetInt("fragments", int64(yielded))
		matSp.SetInt("prunedNodes", prunedNodes)
		matSp.End()
		if !salvage {
			res.Cursor = pageCursor(req, gen, yielded, res.Stats.NumLCAs, res.Truncated)
		}
	}()
	for len(selected) > 0 {
		blk := selected[:min(block, len(selected))]
		selected = selected[len(blk):]
		matStart := time.Now()
		frags, err := b.fill(ctx, blk, docs, salvage, len(selected))
		res.Stats.Stages.Materialize += time.Since(matStart)
		for i := range frags {
			f, c := &frags[i], blk[i]
			prunedNodes += int64(f.Pruned)
			yielded++
			if !yield(docs[c.Doc].name, f) {
				return nil
			}
		}
		if err != nil {
			switch {
			case salvage: // the page is what was salvaged before the failure
			case req.Budget == BestEffort && errors.Is(err, context.DeadlineExceeded):
				res.Truncated, res.Truncation = true, TruncMaterialize
			default:
				return docErr(ctx, docs[blk[len(frags)].Doc].name, err)
			}
			return nil
		}
	}
	return nil
}

// candidates runs the candidate stage over docs and folds its output into
// res: keywords, keyword nodes, candidate totals and the stage timings, from
// every counted document. A lone document runs it inline, under its own
// candidates span, with the plan timed apart. Several fan out concurrently,
// each under a doc:<name> span beneath candidates with the plan timed inside
// the stage; a ranked page with a limit then streams every document's
// candidates into the returned top-K heap, so what falls off it is never
// materialized (and each stage skips per-candidate event lists; the few
// selected hydrate lazily). start is when the stage began, zero when a lone
// document's never did. On error the envelope still covers the documents
// that finished, so a BestEffort truncation reports the work actually done.
func candidates(ctx context.Context, req Request, docs []docRead, workers int, res *Results) (*exec.TopK, time.Time, error) {
	if len(docs) == 1 {
		d := &docs[0]
		var err error
		d.docStage, err = d.eng.candidateStage(ctx, d.v, req, d.name, 0, true)
		d.counted = true
		res.Stats.Stages.Plan = d.planTime
		if !d.start.IsZero() {
			res.Stats.Stages.Candidates = time.Since(d.start)
		}
		countDocs(docs, res)
		return nil, d.start, docErr(ctx, d.name, err)
	}
	// The heap holds the whole pagination window so the page can start at
	// Offset; a window so large it overflows int can never be reached, so
	// that shape falls through to the full selection (which pages safely).
	var topk *exec.TopK
	if window := req.Offset + req.Limit; req.Rank && req.Limit > 0 && window > 0 {
		topk = exec.NewTopK(window)
	}
	// The workers fill a copy of docs: a slice they captured would escape
	// to the heap whoever passed it, and a lone document's one-entry vector,
	// which never fans out, stays on its caller's stack.
	fan := slices.Clone(docs)
	candSp := trace.SpanFromContext(ctx).Child("candidates")
	start := time.Now()
	err := concurrent.Each(ctx, len(docs), workers, func(i int) error {
		d := &fan[i]
		// Each document gets its own child span (concurrent-safe); the
		// engine's plan and the lca/rtf sub-stages hang under it.
		docSp := candSp.Child("doc:" + d.name)
		defer docSp.End()
		// req's Limit and Offset describe the merged page; the stage reads
		// them to decide on score-without-events and to build handles only
		// for the document's first Offset+Limit roots, all the merged page
		// can take from it.
		st, err := d.eng.candidateStage(trace.ContextWithSpan(ctx, docSp), d.v, req, d.name, i, false)
		if err != nil {
			return docErr(ctx, d.name, err)
		}
		d.docStage, d.counted = st, true
		if topk != nil {
			topk.Offer(d.cands...)
			d.cands = nil // memory stays O(K), not O(candidates)
		}
		return nil
	})
	copy(docs, fan) // every worker has been joined
	// Per-document planning runs inside the fan-out, so the corpus-level
	// breakdown folds Plan into Candidates (the per-document split is still
	// visible in the trace span tree).
	res.Stats.Stages.Candidates = time.Since(start)
	countDocs(docs, res)
	candSp.SetInt("documents", int64(len(docs)))
	candSp.SetInt("candidates", int64(res.Stats.NumLCAs))
	candSp.End()
	return topk, start, err
}

// countDocs aggregates the counted documents' stage output into res, in
// document order whichever worker finished first.
func countDocs(docs []docRead, res *Results) {
	for i := range docs {
		d := &docs[i]
		if !d.counted {
			continue
		}
		if res.Stats.Keywords == nil {
			res.Stats.Keywords = d.plan.Keywords
		}
		res.Stats.KeywordNodes += d.plan.KeywordNodes()
		res.Stats.NumLCAs += d.n
		if res.PerDocument != nil {
			res.PerDocument[d.name] = d.n
		}
	}
}

// selectAcross runs the merged selection: the top-K heap's pagination window
// when the streamed merge ran, otherwise Select over the document-order
// concatenation of the documents' windows — a lone document's own slice,
// uncopied. Each window holds the first Offset+Limit roots of its document's
// selection order, so the concatenation holds every root the page takes.
func selectAcross(topk *exec.TopK, docs []docRead, req Request) []*exec.Candidate {
	if topk != nil {
		return exec.Page(topk.Ranked(), req.Offset, req.Limit)
	}
	params := exec.Params{Rank: req.Rank, Limit: req.Limit, Offset: req.Offset}
	if len(docs) == 1 {
		return exec.Select(docs[0].cands, params)
	}
	var all []*exec.Candidate
	for _, d := range docs {
		all = append(all, d.cands...)
	}
	return exec.Select(all, params)
}

// docErr names the document a request failed in, unless the request reads
// a bare engine or the shared context failed, which no document is to blame
// for.
func docErr(ctx context.Context, name string, err error) error {
	if err == nil || name == "" || ctx.Err() != nil {
		return err
	}
	return fmt.Errorf("xks: document %s: %w", name, err)
}

// docStage is one document's plan → candidates output: what selection and
// materialization need (the Params are the ones the candidates were
// generated under; materialization must reuse them), plus the stage
// timings. start is when the candidate stage began, and stays zero when it
// never did — the plan failed, or a keyword matches nothing in the document
// (plan then carries the display keywords and no Sets, and cands is empty).
type docStage struct {
	plan   exec.Plan
	params exec.Params
	// cands are the handles of the roots a page could return, n the
	// document's root count, the total the envelope reports.
	cands []*exec.Candidate
	n     int
	// releaseEvents hands back the pooled scratch the candidates' keyword
	// events and roots are borrowed from (exec.Candidates); releaseAll calls
	// it.
	releaseEvents func()
	planTime      time.Duration
	start         time.Time
}

// candidateStage plans req over the pinned view v and runs its candidate
// stage — the one place either happens. label names the document for the
// fault-injection points and doc is its index in the request's documents.
// Inline, the document is the whole request and the candidate stage gets its
// own span; otherwise it is one document of a fan-out, and the caller's
// per-document span holds plan, lca and rtf side by side. It runs under
// panic isolation and the chaos harness's store-read and candidates
// injection points: a panicking merge, like an injected fault, surfaces as
// the stage's error — a *PanicError wrapping ErrInternal — instead of
// unwinding through an iterator or a worker goroutine. An unmatchable
// keyword is not an error. The caller keeps v pinned until it is done
// materializing: the Params close over snapshot state.
func (e *Engine) candidateStage(ctx context.Context, v *view, req Request, label string, doc int, inline bool) (st docStage, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = concurrent.Recovered(r)
		}
	}()
	// Chaos injection point: a scripted store-read fault fails the search
	// here, before planning touches the document source.
	if err := fault.Inject(ctx, fault.PointStoreRead, label); err != nil {
		return st, err
	}
	sp := trace.SpanFromContext(ctx)
	planSp := sp.Child("plan")
	planStart := time.Now()
	st.plan, err = e.planAt(v, req.Query)
	if err == nil {
		st.plan.Decision = e.decideAt(v, req, st.plan)
		v.words, v.keywords = st.plan.IDFWords, st.plan.Keywords
	}
	st.planTime = time.Since(planStart)
	planSp.SetInt("keywordNodes", int64(st.plan.KeywordNodes()))
	planSp.SetInt("terms", int64(len(st.plan.Keywords)))
	if err == nil {
		stampPlan(planSp, st.plan)
	}
	stampSnapshot(planSp, v, &e.counters)
	planSp.End()
	if err != nil {
		var nm *index.ErrNoMatch
		if errors.As(err, &nm) {
			err = nil
		}
		return st, err
	}
	st.start = time.Now()
	st.params = e.paramsAt(v, req)
	if inline {
		candSp := sp.Child("candidates")
		defer candSp.End()
		ctx = trace.ContextWithSpan(ctx, candSp)
	}
	if err := fault.Inject(ctx, fault.PointCandidates, label); err != nil {
		return st, err
	}
	st.cands, st.n, st.releaseEvents, err = exec.Candidates(ctx, st.plan, st.params, doc)
	return st, err
}

// planAt runs the planning stage over one resolved snapshot: the query
// parsed and resolved to ID posting sets over the snapshot's node table.
// On *index.ErrNoMatch the returned plan still carries the display
// keywords.
func (e *Engine) planAt(v *view, queryText string) (exec.Plan, error) {
	words, idfWords, sets, err := e.resolveIDSetsAt(v, queryText)
	return exec.Plan{Keywords: words, IDFWords: idfWords, Sets: sets}, err
}

// decideAt resolves the planner decision for one planned query from the
// snapshot's statistics and the calibrated cost model: the term order and
// the cost estimates explain shows. The strategy is
// then stamped with what runs, keeping explain output honest: ELCA semantics
// always evaluates via the stack merge (ScanMerge), SLCA via the galloping
// indexed kernel (IndexedEager).
func (e *Engine) decideAt(v *view, req Request, p exec.Plan) planner.Decision {
	sizes := make([]int, len(p.Sets))
	for i, s := range p.Sets {
		sizes[i] = len(s)
	}
	d := planner.Decide(sizes, v.snap.Stats(), planner.Default)
	d.Strategy = planner.ScanMerge
	if req.Semantics == SLCAOnly {
		d.Strategy = planner.IndexedEager
	}
	return d
}

// stampPlan annotates a plan span with the planner's decision — the chosen
// algorithm, the merge order, and the model's cost estimates, next to the
// actual event counters the downstream stages report.
func stampPlan(sp *trace.Span, p exec.Plan) {
	if sp == nil {
		return // untraced: OrderString would allocate for nobody
	}
	d := p.Decision
	sp.SetStr("algorithm", d.Strategy.String())
	sp.SetStr("termOrder", d.OrderString(len(p.Sets)))
	sp.SetInt("estScan", int64(d.EstScan))
	sp.SetInt("estIndexed", int64(d.EstIndexed))
}

// stampSnapshot annotates a plan span with the resolved snapshot's shape —
// which state the query is reading (version, visible nodes), how much
// write-side delta it merges, and the engine's compaction count — next to
// the planner decision.
func stampSnapshot(sp *trace.Span, v *view, c *delta.Counters) {
	sp.SetInt("snapshotVersion", int64(v.snap.Version()))
	sp.SetInt("snapshotNodes", int64(v.snap.NumNodes()))
	sp.SetInt("deltaSegments", int64(v.snap.Segments()))
	sp.SetInt("deltaPostings", int64(v.snap.DeltaPostings()))
	sp.SetInt("compactions", c.Compactions())
}

// paramsAt maps the public request onto pipeline parameters, closing over
// the resolved snapshot's node table and scorer, and the label column and
// content sets pinned with it.
func (e *Engine) paramsAt(v *view, req Request) exec.Params {
	return exec.Params{
		Tab:      v.snap.Table(),
		SLCAOnly: req.Semantics == SLCAOnly,
		Mode:     req.Algorithm.mode(),
		Prune:    prune.Options{ExactContent: req.ExactContent},
		Rank:     req.Rank,
		Limit:    req.Limit,
		Offset:   req.Offset,
		Scorer:   v.scorer,
		// A limited search materializes only one page: skip per-candidate
		// event lists and hydrate the selected few lazily.
		DeferEvents: req.Limit > 0,
		Labels:      v.src.labels,
		ContentOf:   v.src.content,
	}
}

// resolveIDSetsAt turns the query text into per-term ID posting lists over
// one snapshot's node table. Plain keywords read straight off the merged
// base+delta lists (shared slices where no delta touches the term); a label
// predicate is matched once per dictionary label and keeps the postings
// whose label ID matched. It
// returns the display strings, the words used for IDF scoring, and the
// sets D1..Dk.
func (e *Engine) resolveIDSetsAt(v *view, queryText string) (display, idfWords []string, sets [][]nid.ID, err error) {
	terms, err := query.Parse(queryText, e.an)
	if err != nil {
		return nil, nil, nil, err
	}
	display = make([]string, len(terms))
	for i, t := range terms {
		display[i] = t.String()
	}
	idfWords = make([]string, len(terms))
	sets = make([][]nid.ID, len(terms))
	for i, t := range terms {
		word := t.Keyword
		if word == "" {
			word = e.an.Normalize(t.Label)
			if word == "" {
				// Label normalizes to nothing (stop word / punctuation):
				// nothing can match.
				return display, nil, nil, &index.ErrNoMatch{Word: t.Raw}
			}
		}
		idfWords[i] = word
		postings := v.snap.LookupIDs(word)
		if t.Label != "" {
			labels := v.src.labels
			match := make([]bool, len(labels.Names))
			for l, name := range labels.Names {
				match[l] = t.MatchesLabel(name)
			}
			var filtered []nid.ID
			for _, id := range postings {
				if match[labels.IDs[id]] {
					filtered = append(filtered, id)
				}
			}
			postings = filtered
		}
		if len(postings) == 0 {
			return display, nil, nil, &index.ErrNoMatch{Word: t.Raw}
		}
		sets[i] = postings
	}
	return display, idfWords, sets, nil
}

// blockSize is how many selected candidates a collected page (Search,
// Corpus.Search) prunes before assembling them at once. It bounds what a
// retained fragment keeps alive: the backing arrays of its block, or of its
// window of a stream (blockScratch.assemble).
const blockSize = 64

// fill runs the materialization stage over one block of selected candidates
// in result order — the only place fragments are built, so each engine's
// assembled counter counts exactly its selected candidates that became
// fragments. It has two phases:
//
//   - prune, per candidate: the context check (skipped on a salvaged page,
//     which assembles under its spent deadline, bounded by the page size),
//     the chaos harness's materialize injection point, then pruneRTF
//     (exec.Materialize), all under panic isolation — one poisoned candidate
//     degrades into a structured error (a *PanicError wrapping ErrInternal)
//     for this search instead of crashing the process, since materialization
//     runs inside iterator sequences where no http.Server recovery applies.
//     The keep-sets are staged in one pooled buffer.
//   - assemble, once for the pruned prefix (assemble). rest is how many
//     selected candidates follow the block.
//
// A failure at candidate i returns the block's first i fragments with the
// error; no later candidate is pruned.
func (b *blockScratch) fill(ctx context.Context, blk []*exec.Candidate, docs []docRead, salvage bool, rest int) ([]Fragment, error) {
	b.kept, b.pruned, b.events = b.kept[:0], b.pruned[:0], b.events[:0]
	var err error
	for _, c := range blk {
		if !salvage {
			if err = ctx.Err(); err != nil {
				break
			}
		}
		if err = b.prune(ctx, c, &docs[c.Doc]); err != nil {
			break
		}
	}
	if err != nil {
		rest = 0 // the request assembles nothing more
	}
	return b.assemble(docs, rest), err
}

// blockScratch is the pooled staging memory of one request's materialize
// stage, which fills it a block at a time: every pruned candidate's kept IDs
// back to back in kept, the events it hydrated back to back in events, and per
// candidate what assembly needs. The slabs the request's fragments are carved
// from are the request's alone: release drops them.
type blockScratch struct {
	kept   []nid.ID
	events []lca.IDEvent
	rtf    rtf.IDRTF // a hydrated candidate's RTF, as exec.Materialize reads it
	pruned []prunedCand
	slabs  slabs
	path   []int // assemble's depth stack (see there)
}

// slabs are the backing arrays a request's fragments are carved from, and
// what the request has assembled so far: fragments, kept nodes, Dewey bytes.
type slabs struct {
	frags  []Fragment
	nodes  []FragmentNode
	ids    []nid.ID
	deweys strings.Builder

	nf, nk, bytes int
}

// carve returns the next n elements of *slab, first replacing it with a
// fresh array of n+more elements when its spare capacity is short of n. The
// elements carved before stay where they are: fragments already handed out
// view them.
func carve[T any](slab *[]T, n, more int) []T {
	s := *slab
	if cap(s)-len(s) < n {
		s = make([]T, 0, n+more)
	}
	*slab = s[:len(s)+n]
	return s[len(s) : len(s)+n : len(s)+n]
}

// prunedCand is one pruned candidate awaiting assembly: its keyword events
// (hydrated if the candidate stage deferred them), and how many nodes it kept
// (its run of blockScratch.kept) of how many visited.
type prunedCand struct {
	c          *exec.Candidate
	events     []lca.IDEvent
	n, visited int
}

var blockPool = sync.Pool{New: func() any { return new(blockScratch) }}

// release clears what would keep a request's candidates or fragments
// reachable from the pool, and hands the block back. It drops the slabs
// outright: the request's fragments may outlive it, and the next request must
// never carve into an array they view.
func (b *blockScratch) release() {
	clear(b.pruned[:cap(b.pruned)])
	b.slabs = slabs{}
	blockPool.Put(b)
}

// prune is fill's prune phase for one candidate of document d.
func (b *blockScratch) prune(ctx context.Context, c *exec.Candidate, d *docRead) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = concurrent.Recovered(r)
		}
	}()
	if err := fault.Inject(ctx, fault.PointMaterialize, d.name); err != nil {
		return err
	}
	r := c.RTF
	if r.KeywordNodes == nil && c.Roots != nil {
		// The candidate stage deferred event materialization
		// (score-without-events); hydrate this selected candidate's event
		// list into the block's buffer by replaying the dispatch inside its
		// subtree window.
		n := len(b.events)
		b.events = rtf.AppendEventsFor(b.events, d.params.Tab, r.Root, c.Roots, d.plan.Sets)
		b.rtf = rtf.IDRTF{Root: r.Root, KeywordNodes: b.events[n:len(b.events):len(b.events)]}
		r = &b.rtf
	}
	n := len(b.kept)
	kept, visited := exec.Materialize(b.kept, r, d.params)
	b.kept = kept
	b.pruned = append(b.pruned, prunedCand{c: c, events: r.KeywordNodes, n: len(kept) - n, visited: visited})
	return nil
}

// assemble is fill's assemble phase: it turns the pruned candidates into
// Fragments carved from the request's slabs — the fragments, their nodes,
// their kept IDs and their Dewey bytes. A slab too short for the block is
// replaced by one sized for the block plus a forecast of the fragments that
// follow in its window, at the request's running average size: the window is
// w = min(the selected candidates not yet assembled, the fragments assembled
// so far, blockSize), so a page's blocks of 64 (whose window is the block) get
// exact-size slabs, and a stream's blocks of one share slabs of 1, 2, 4, …
// fragments. Everything runs on node IDs: a kept node is its Dewey string and
// its keyword mask, from a two-pointer merge of the (sorted) kept IDs and
// keyword events; its label, depth, text and matched keywords are read later,
// by ID, from the view its request pinned (Fragment.NodeLabel and the other
// accessors). Dewey codes surface only as zero-copy table views rendered into
// the public strings. A fragment's Root
// is its first node's Dewey string: the keep-set is ancestor-closed, so the
// root is always kept, first. Because the kept IDs are also in pre-order, a
// node's parent is the last node kept one level up, so a kept node's Dewey
// string is its parent's, a dot and its last component: the path stack
// b.path holds, per depth below the root, the string length of the last
// node kept there while the slab is sized, and its index while the strings
// are written.
func (b *blockScratch) assemble(docs []docRead, rest int) []Fragment {
	nf, nk := len(b.pruned), len(b.kept)
	if nf == 0 {
		return nil
	}
	size, off := 0, 0
	for _, p := range b.pruned {
		tab := docs[p.c.Doc].params.Tab
		kept := b.kept[off : off+p.n]
		off += p.n
		root := len(tab.Code(kept[0]))
		for _, id := range kept {
			c := tab.Code(id)
			n, d := 0, len(c)-root
			if d == 0 {
				n = c.StringLen()
			} else {
				n = b.path[d-1] + 1 + c[len(c)-1:].StringLen()
			}
			b.path = append(b.path[:d], n)
			size += n
		}
	}
	sl := &b.slabs
	sl.nf, sl.nk, sl.bytes = sl.nf+nf, sl.nk+nk, sl.bytes+size
	more := min(nf+rest, sl.nf, blockSize) - nf // fragments forecast past the block
	frags := carve(&sl.frags, nf, more)
	nodes := carve(&sl.nodes, nk, sl.nk*more/sl.nf)
	ids := carve(&sl.ids, nk, sl.nk*more/sl.nf)
	copy(ids, b.kept)
	// Dewey strings are slices of the builder's buffer, so it must never
	// reallocate under the strings handed out: a block that does not fit
	// starts a new one.
	deweys := &sl.deweys
	if deweys.Cap()-deweys.Len() < size {
		*deweys = strings.Builder{}
		deweys.Grow(size + sl.bytes*more/sl.nf)
	}
	var scratch [64]byte
	off = 0
	for i, p := range b.pruned {
		d := &docs[p.c.Doc]
		d.eng.assembled.Add(1)
		tab := d.params.Tab
		kept := ids[off : off+p.n : off+p.n]
		fn := nodes[off : off+p.n : off+p.n]
		off += p.n
		events, j, root := p.events, 0, len(tab.Code(kept[0]))
		for k, id := range kept {
			start := deweys.Len()
			c := tab.Code(id)
			d := len(c) - root
			if d == 0 {
				deweys.Write(c.AppendString(scratch[:0]))
			} else {
				deweys.WriteString(fn[b.path[d-1]].Dewey)
				deweys.WriteByte('.')
				deweys.Write(strconv.AppendUint(scratch[:0], uint64(c[len(c)-1]), 10))
			}
			b.path = append(b.path[:d], k)
			n := &fn[k]
			n.Dewey = deweys.String()[start:]
			for j < len(events) && events[j].ID < id {
				j++
			}
			if j < len(events) && events[j].ID == id {
				n.mask = events[j].Mask
			}
		}
		f := &frags[i]
		f.Root, f.RootLabel, f.IsSLCA, f.Score = fn[0].Dewey, d.v.src.labels.Of(kept[0]), p.c.IsSLCA, p.c.Score
		f.Nodes, f.Pruned = fn, p.visited-p.n
		f.v, f.keptIDs = d.v, kept
	}
	return frags
}
