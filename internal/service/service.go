// Package service is the serving layer between the xks algorithms and the
// HTTP API (internal/httpapi): the pieces a production search server needs
// around the per-document pipeline.
//
// It provides:
//
//   - Backend, the one surface the service builds on — a collected page and a
//     fragment stream of the same request loop, plus versioning, the document
//     list, tail appends, compaction and the delta gauges — implemented by
//     *xks.Corpus and, for a single xks.Engine, by the SingleDoc adapter. A
//     buffered page is the backend's Search, which materializes its page a
//     block at a time; a streamed response (stream=1) is its Stream, run live
//     and handed on fragment by fragment. The two are the same fragments and
//     envelope;
//   - a sharded LRU query-result cache (internal/lru) of buffered pages that
//     completed, keyed by xks.Request.Key with the request's cursor resolved
//     into the window it names (Offset), invalidated by data generation: an
//     append changes the version token, so stale entries die on their next
//     lookup, and a cursor from an older token is served uncached from the
//     snapshot it pins; the searches behind it run the staged pipeline
//     (internal/exec), so
//     cached entries hold only the *selected* candidates in materialized
//     form — a ranked Limit=10 corpus query caches 10 assembled fragments,
//     and the API layer's encoding of them (Page.Encoded) is computed once
//     and retained with the entry, so a hit is served from bytes. A
//     Truncated page is never kept, and a stream neither reads nor fills the
//     cache;
//   - singleflight collapsing of concurrent identical buffered queries, so a
//     thundering herd of the same request costs one pipeline execution —
//     context-aware: a waiter whose own context ends detaches immediately
//     with its ctx.Err() while the leader keeps computing for the others;
//   - live server metrics behind atomic counters — request/error/cache
//     counters, a request-latency histogram and per-stage histograms —
//     exposed in the Prometheus text format (WritePrometheus), where
//     p50/p95/p99 are histogram_quantile over the latency buckets.
//
// Cached pages (and the *xks.Results inside them) are shared between
// callers and must be treated as immutable.
package service

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"sync/atomic"
	"time"

	"xks"
	"xks/internal/lru"
	"xks/internal/trace"
)

// Backend is what the service serves: *xks.Corpus implements it directly;
// wrap a single *xks.Engine with SingleDoc. It is an interface only so that
// tests can substitute fakes.
type Backend interface {
	// Search runs the request — over every document, or over the one named
	// by req.Document when non-empty — and collects its page: what a drained
	// Stream yields plus its trailer, fragment for fragment, materialized a
	// block at a time. Every buffered page the service builds is a Search.
	// The error wraps xks.ErrUnknownDocument for names the backend does not
	// hold, and cancelling ctx (or its deadline expiring) aborts the
	// pipeline with ctx.Err().
	Search(ctx context.Context, req xks.Request) (*xks.Results, error)
	// Stream runs the same request as a lazily materializing fragment
	// iterator plus a trailer func that, once the loop ends, reports the
	// envelope (cursor, stats, truncation) for the fragments actually
	// yielded; the service runs it only for a streamed response (stream=1).
	// An error is yielded once and ends the sequence, as Search returns it.
	Stream(ctx context.Context, req xks.Request) (iter.Seq2[xks.CorpusFragment, error], func() *xks.Results)
	// Documents lists the searchable documents.
	Documents() []xks.DocumentInfo
	// VersionFor is the token req's cache entries are tagged with and its
	// cursors validated against; it changes whenever data req can observe
	// changes. A corpus narrows it — a document-filtered request gets a
	// token covering only that document, so appends to other documents never
	// evict its cached pages. The zero Request asks for the token of the
	// whole backend.
	VersionFor(req xks.Request) uint64
	// AppendXML appends a parsed XML snippet under the identified parent
	// node of the named document, beside running searches. A parent off the
	// document's rightmost spine fails with xks.ErrOffSpine.
	AppendXML(doc, parentDewey, snippet string) error
	// Compact folds accumulated delta segments into the base index,
	// returning how many were folded.
	Compact(ctx context.Context) (int, error)
	// DeltaInfo reports the delta-index counters the Prometheus endpoint
	// exports as the xks_delta_* / xks_snapshots_pinned /
	// xks_compactions_total / xks_compaction_seconds families.
	DeltaInfo() xks.DeltaInfo
}

var (
	_ Backend = (*xks.Corpus)(nil)
	_ Backend = SingleDoc{}
)

// SingleDoc adapts one engine to the Backend interface under a document
// name, so a single-file server and a corpus server share one serving path.
type SingleDoc struct {
	Name   string
	Engine *xks.Engine
}

// holds fails unless doc names the wrapped engine (or is empty).
func (s SingleDoc) holds(doc string) error {
	if doc != "" && doc != s.Name {
		return fmt.Errorf("xks: %w: %q", xks.ErrUnknownDocument, doc)
	}
	return nil
}

// Search runs the engine's collected page and tags it with the document name.
func (s SingleDoc) Search(ctx context.Context, req xks.Request) (*xks.Results, error) {
	if err := s.holds(req.Document); err != nil {
		return nil, err
	}
	r, err := s.Engine.Search(ctx, req)
	if err != nil {
		return nil, err
	}
	return r.AsCorpus(s.Name), nil
}

// Stream adapts the engine's fragment stream to the corpus shape, tagging
// fragments and the trailer with the document name.
func (s SingleDoc) Stream(ctx context.Context, req xks.Request) (iter.Seq2[xks.CorpusFragment, error], func() *xks.Results) {
	seq, trailer := s.Engine.Stream(ctx, req)
	wrapped := func(yield func(xks.CorpusFragment, error) bool) {
		if err := s.holds(req.Document); err != nil {
			yield(xks.CorpusFragment{}, err)
			return
		}
		seq(func(f *xks.Fragment, err error) bool {
			if err != nil {
				return yield(xks.CorpusFragment{}, err)
			}
			return yield(xks.CorpusFragment{Document: s.Name, Fragment: f}, nil)
		})
	}
	return wrapped, func() *xks.Results { return trailer().AsCorpus(s.Name) }
}

func (s SingleDoc) Documents() []xks.DocumentInfo {
	ix := s.Engine.Index()
	return []xks.DocumentInfo{{Name: s.Name, Words: ix.NumWords(), Nodes: ix.NumNodes()}}
}

// VersionFor reports the engine's snapshot version token — the single
// document is the whole corpus, so request scoping adds nothing.
func (s SingleDoc) VersionFor(req xks.Request) uint64 { return s.Engine.Generation() }

// AppendXML appends to the wrapped engine; doc must name it (or be
// empty).
func (s SingleDoc) AppendXML(doc, parentDewey, snippet string) error {
	if err := s.holds(doc); err != nil {
		return err
	}
	return s.Engine.AppendXML(parentDewey, snippet)
}

// Compact folds the wrapped engine's delta segments.
func (s SingleDoc) Compact(ctx context.Context) (int, error) { return s.Engine.Compact(ctx) }

// DeltaInfo reports the wrapped engine's delta-subsystem state.
func (s SingleDoc) DeltaInfo() xks.DeltaInfo { return s.Engine.DeltaInfo() }

// Config sizes the service.
type Config struct {
	// CacheSize is the maximum number of cached query results; 0 disables
	// caching entirely (singleflight and metrics stay on).
	CacheSize int
}

// cacheShards is the cache's lock count; lru.New lowers it for a cache of
// fewer than 16 entries, so each shard holds at least one.
const cacheShards = 16

// Service wraps a Backend with caching, singleflight, and metrics.
type Service struct {
	backend Backend
	// cache holds the buffered pages that completed; miss puts them in.
	cache *lru.Cache[*Page]
	// bodyBytes counts the encoded bytes the cache's entries retain: added
	// by the one encode an entry keeps, subtracted when the cache drops it.
	bodyBytes atomic.Int64
	flight    group
	metrics   Metrics
}

// New builds the service over a backend.
func New(b Backend, cfg Config) *Service {
	sv := &Service{backend: b}
	if cfg.CacheSize > 0 {
		sv.cache = lru.New[*Page](cfg.CacheSize, cacheShards)
		sv.cache.OnDrop((*Page).dropped)
	}
	return sv
}

// Documents lists the searchable documents.
func (sv *Service) Documents() []xks.DocumentInfo { return sv.backend.Documents() }

// Generation exposes the backend's current data generation: the version
// token of a request that can observe every document.
func (sv *Service) Generation() uint64 { return sv.backend.VersionFor(xks.Request{}) }

// Metrics exposes the live counters' recording hooks (SetStoreOpen,
// ObserveEncode); WritePrometheus reads them.
func (sv *Service) Metrics() *Metrics { return &sv.metrics }

// Append forwards a document append to the backend; the error reports
// parents off the document's rightmost spine (xks.ErrOffSpine). Cache entries are
// tagged with request-scoped version tokens, so only pages that could
// observe the appended document go stale.
func (sv *Service) Append(doc, parentDewey, snippet string) error {
	return sv.backend.AppendXML(doc, parentDewey, snippet)
}

// Compact folds the backend's accumulated delta segments into the base.
// Version tokens do not change: cached pages and outstanding cursors survive.
func (sv *Service) Compact(ctx context.Context) (int, error) { return sv.backend.Compact(ctx) }

// CacheLen reports the number of live cache entries (0 when caching is
// disabled).
func (sv *Service) CacheLen() int {
	if sv.cache == nil {
		return 0
	}
	return sv.cache.Len()
}

// CacheBodyBytes reports the encoded response bytes currently retained by
// cache entries (Page.Encoded): a maintained count, so a scrape walks
// nothing.
func (sv *Service) CacheBodyBytes() int64 { return sv.bodyBytes.Load() }

// lookup is what admit found out about a buffered request before anything
// executes.
type lookup struct {
	// req is the request with its cursor resolved into Offset; it keeps the
	// cursor, so the backend computes the page on the snapshot the cursor
	// pins even when the data changes after admission. A pinned cursor's
	// request is the request as received.
	req xks.Request
	// gen is the version token req's cache entry is tagged with.
	gen uint64
	// key is the cache and singleflight key. It is empty for a pinned
	// cursor: one from an older version token that the backend may still
	// resolve, because cursors pin the snapshot they were issued at (delta
	// truncation in the engine, the snapshot registry in the corpus). Such a
	// page is served straight from the backend, uncached — no current cache
	// entry should replay an old snapshot — and only a genuinely
	// unresolvable one surfaces xks.ErrStaleCursor.
	key string
	// hit is the cached page, when there is one.
	hit *Page
}

// admit is the front half of every buffered request: version token →
// cursor resolution → cache lookup. The token is captured before searching:
// if the data mutates while the pipeline runs, the entry is stored under the
// old token and dies on its next lookup instead of serving stale results
// forever. A cursor is validated against that same token before any cache
// lookup: a replay against a different query shape fails with
// xks.ErrCursorMismatch, an undecodable one with xks.ErrBadCursor, and one
// from an older token is pinned.
func (sv *Service) admit(ctx context.Context, req xks.Request) (l lookup, err error) {
	l.gen = sv.backend.VersionFor(req)
	l.req, err = req.ResolveCursor(l.gen)
	if err != nil {
		if errors.Is(err, xks.ErrStaleCursor) {
			err = nil
		}
		return l, err
	}
	l.req.Cursor = req.Cursor
	l.key = l.req.Key()
	// Annotate the request's trace (when one is attached) with the serving
	// decisions the pipeline itself cannot see; a nil span makes these
	// free no-ops.
	sp := trace.SpanFromContext(ctx)
	sp.SetInt("generation", int64(l.gen))
	if sv.cache == nil {
		sp.SetStr("cache", "off")
		return l, nil
	}
	if p, ok := sv.cache.Get(l.key, l.gen); ok {
		sv.metrics.hits.Add(1)
		sp.SetStr("cache", "hit")
		l.hit = p
		return l, nil
	}
	sv.metrics.misses.Add(1)
	sp.SetStr("cache", "miss")
	return l, nil
}

// search runs the backend's collected page for req. It and Stream are the
// two places the backend executes, and the only executions that feed the
// per-stage histograms: cache hits and collapsed joins never ran the stages.
func (sv *Service) search(ctx context.Context, req xks.Request) (*xks.Results, error) {
	res, err := sv.backend.Search(ctx, req)
	if err != nil {
		return nil, err
	}
	sv.metrics.observeStages(res.Stats.Stages, res.Truncated)
	return res, nil
}

// Search is SearchPage for callers that want only the results.
func (sv *Service) Search(ctx context.Context, req xks.Request) (res *xks.Results, cached bool, err error) {
	p, cached, err := sv.SearchPage(ctx, req)
	if err != nil {
		return nil, false, err
	}
	return p.Results, cached, nil
}

// SearchPage serves one request — over the whole corpus, or over the
// document named by req.Document when non-empty — as a buffered page: the
// cached one (cached is then set), or the backend's Search. The
// returned page is shared with other callers — do not mutate it.
//
// ctx cancellation or deadline aborts the request with ctx.Err():
// a cancelled cache hit is still served, a cancelled pipeline execution is
// abandoned mid-stream, and a cancelled singleflight waiter detaches from
// its leader immediately. A Truncated page (a BestEffort deadline expired
// mid-page) is never a hit: the next identical request runs the pipeline.
func (sv *Service) SearchPage(ctx context.Context, req xks.Request) (page *Page, cached bool, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	sv.metrics.requests.Add(1)
	defer func() {
		if err != nil {
			sv.metrics.observeError(err)
		}
		sv.metrics.observe(time.Since(start))
	}()

	l, err := sv.admit(ctx, req)
	if err != nil {
		return nil, false, err
	}
	if l.hit != nil {
		return l.hit, true, nil
	}
	page, err = sv.miss(ctx, l)
	return page, false, err
}

// miss produces the buffered page of a request the cache could not answer:
// the backend's Search under the singleflight group, so concurrent callers
// with the same key share one execution. A page that completed becomes the
// key's cache entry and retains its encoding; a truncated one is served and
// not kept. It takes the lookup by value, so a hit never pays for moving one
// to the heap.
func (sv *Service) miss(ctx context.Context, l lookup) (*Page, error) {
	if l.key == "" {
		res, err := sv.search(ctx, l.req)
		if err != nil {
			return nil, err
		}
		return &Page{Results: res}, nil
	}
	page, shared, err := sv.flight.do(ctx, l.key, func() (*Page, error) {
		r, err := sv.search(ctx, l.req)
		if err != nil {
			return nil, err
		}
		p := &Page{Results: r}
		if sv.cache != nil && !r.Truncated {
			p.retained = &sv.bodyBytes
			sv.cache.Put(l.key, l.gen, p)
		}
		return p, nil
	})
	if shared {
		sv.metrics.collapsed.Add(1)
		trace.SpanFromContext(ctx).SetBool("collapsed", true)
	}
	return page, err
}

// Stream serves one request as a fragment stream: the backend's Stream,
// run live, with the service's request, error and stage accounting around
// it. The iterator yields fragments as the pipeline materializes them — a
// consumer that breaks early leaves the remaining candidates
// unmaterialized — and the trailer func, valid once the loop ends, carries
// the envelope (cursor, stats, truncation) for what was actually yielded.
// A stream neither reads nor fills the cache and never joins a flight: it
// retains no fragment, so server-side memory stays O(1) however large the
// result set. The backend resolves the cursor, so a bad, mismatched or
// stale one, like an unknown document, is the error the iterator yields
// first.
func (sv *Service) Stream(ctx context.Context, req xks.Request) (iter.Seq2[xks.CorpusFragment, error], func() *xks.Results) {
	res := &xks.Results{Query: req.Query}
	seq := func(yield func(xks.CorpusFragment, error) bool) {
		start := time.Now()
		sv.metrics.requests.Add(1)
		sv.metrics.streamed.Add(1)
		defer func() { sv.metrics.observe(time.Since(start)) }()
		inner, trailer := sv.backend.Stream(ctx, req)
		for f, err := range inner {
			if err != nil {
				sv.metrics.observeError(err)
				yield(f, err)
				return
			}
			if !yield(f, nil) {
				break
			}
		}
		*res = *trailer()
		sv.metrics.observeStages(res.Stats.Stages, res.Truncated)
	}
	return seq, func() *xks.Results { return res }
}
