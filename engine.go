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
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xks/internal/analysis"
	"xks/internal/delta"
	"xks/internal/fault"
	"xks/internal/index"
	"xks/internal/nid"
	"xks/internal/prune"
	"xks/internal/rank"
	"xks/internal/snippet"
	"xks/internal/store"
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
