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
//     block at a time; a streamed response (stream=1) is its Stream, handed on
//     fragment by fragment. The two are the same fragments and envelope;
//   - a sharded LRU query-result cache (internal/lru) keyed by
//     xks.Request.Key with the request's cursor resolved into the window it
//     names (Offset), invalidated by data generation: an append changes the
//     version token, so stale entries die on their next lookup, and a cursor
//     from an older token is served uncached from the snapshot it pins;
//     the searches behind it run the staged pipeline (internal/exec), so
//     cached entries hold only the *selected* candidates in materialized
//     form — a ranked Limit=10 corpus query caches 10 assembled fragments,
//     and the API layer's encoding of them (Page.Encoded) is computed once
//     and retained with the entry, so a hit is served from bytes. The same
//     cache holds resumable prefixes: an entry whose page is Truncated is
//     never served as a hit — an identical retry resumes materialization
//     after it, and the completed page overwrites it under the same key;
//   - singleflight collapsing of concurrent identical queries, so a
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
	"slices"
	"strconv"
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
	// cache holds full pages (hits) and, under the same keys, Truncated
	// prefixes of bounded pages that an identical retry resumes from; store
	// decides what goes in.
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

// CacheLen reports the number of live cache entries, resumable prefixes
// included (0 when caching is disabled).
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

// lookup is what the front half SearchPage and Stream share (admit) found
// out about a request before anything executes.
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
	// hit is the cached page; prefix a cached Truncated prefix of it that a
	// retry resumes from. At most one is set.
	hit, prefix *Page
}

func (l *lookup) pinned() bool { return l.key == "" }

// admit is the front half of every request: version token → cursor
// resolution → cache lookup. The token is captured before searching: if the
// data mutates while the pipeline runs, the entry is stored under the old
// token and dies on its next lookup instead of serving stale results
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
		if !p.Truncated {
			sv.metrics.hits.Add(1)
			sp.SetStr("cache", "hit")
			l.hit = p
			return l, nil
		}
		l.prefix = p
	}
	sv.metrics.misses.Add(1)
	sp.SetStr("cache", "miss")
	return l, nil
}

// search and stream are the two places the backend executes, and the only
// executions that feed the per-stage histograms: cache hits and collapsed
// joins never ran the stages. search runs the backend's collected page for
// req.
func (sv *Service) search(ctx context.Context, req xks.Request) (*xks.Results, error) {
	res, err := sv.backend.Search(ctx, req)
	if err != nil {
		return nil, err
	}
	sv.metrics.observeStages(res.Stats.Stages, res.Truncated)
	return res, nil
}

// stream drives the backend's stream for req, handing each fragment to
// yield as it materializes and collecting the page when collect is set, and
// returns the stream's envelope — the collected page as its Fragments — and
// whether the stream ran to its end rather than being abandoned by yield.
func (sv *Service) stream(ctx context.Context, req xks.Request, collect bool, yield func(StreamedFragment, error) bool) (res *xks.Results, drained bool, err error) {
	seq, trailer := sv.backend.Stream(ctx, req)
	// The loop body is a closure the backend calls, so every variable it
	// writes costs the request a heap allocation: it writes one.
	var loop struct {
		page      []xks.CorpusFragment
		err       error
		abandoned bool
	}
	for f, err := range seq {
		if err != nil {
			loop.err = err
			break
		}
		if collect {
			loop.page = append(loop.page, f)
		}
		if !yield(StreamedFragment{CorpusFragment: f}, nil) {
			loop.abandoned = true
			break
		}
	}
	if loop.err != nil {
		return nil, false, loop.err
	}
	res = trailer()
	sv.metrics.observeStages(res.Stats.Stages, res.Truncated)
	res.Fragments = loop.page
	return res, !loop.abandoned, nil
}

// buffered runs the backend's page for req under the singleflight group:
// concurrent callers with the same flight key share one execution and the
// page it stored for l.
func (sv *Service) buffered(ctx context.Context, flightKey string, req xks.Request, l *lookup) (*Page, bool, error) {
	return sv.flight.do(ctx, flightKey, func() (*Page, error) {
		r, err := sv.search(ctx, req)
		if err != nil {
			return nil, err
		}
		return sv.store(l, r), nil
	})
}

// store puts one completed execution's page where an identical request
// will find it and returns the page to serve: a full page becomes the key's
// cache entry (and retains its encoding); a bounded page the deadline cut
// short mid-materialization becomes the key's resumable prefix; anything
// else — candidate-stage truncations, whose fragments were salvaged from a
// partial corpus and are not a definitive prefix, unbounded pages — is not
// kept. Nor is a page without a lookup: it is no request's whole answer.
func (sv *Service) store(l *lookup, r *xks.Results) *Page {
	p := &Page{Results: r}
	switch {
	case l == nil || sv.cache == nil:
	case !r.Truncated:
		p.retained = &sv.bodyBytes
		sv.cache.Put(l.key, l.gen, p)
	case r.Truncation == xks.TruncMaterialize && l.req.Limit > 0 &&
		len(r.Fragments) > 0 && len(r.Fragments) < l.req.Limit:
		sv.cache.Put(l.key, l.gen, p)
	}
	return p
}

// resume serves a request whose cache entry is a truncated prefix of its
// page: the pipeline re-enters at the prefix's cursor — which resumes after
// the prefix on the snapshot it was cut from — with Limit shrunk to the
// remainder and a derived singleflight key so concurrent retries still
// collapse, and the prefix is stitched onto
// whatever the continuation yields, instead of reassembling the fragments
// that already finished. A completed stitch overwrites the entry with the
// full page; a still-truncated one with the longer prefix. The combined
// envelope carries the continuation's cursor, truncation state, and stats
// (the prefix's cost was paid — and reported — by the request that
// assembled it).
func (sv *Service) resume(ctx context.Context, l *lookup) (*Page, error) {
	sv.metrics.partialResumes.Add(1)
	prefix := l.prefix.Fragments
	cont := l.req
	cont.Offset += len(prefix)
	cont.Limit -= len(prefix)
	cont.Cursor = l.prefix.Cursor
	tail, _, err := sv.buffered(ctx, l.key+"|partial:"+strconv.Itoa(len(prefix)), cont, nil)
	if err != nil {
		return nil, err
	}
	trace.SpanFromContext(ctx).SetStr("cache", "partial")
	combined := *tail.Results
	combined.Fragments = slices.Concat(prefix, tail.Fragments)
	return sv.store(l, &combined), nil
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

// miss produces the buffered page of a request the cache could not answer.
// It takes the lookup by value, so a hit never pays for moving one to the
// heap.
func (sv *Service) miss(ctx context.Context, l lookup) (*Page, error) {
	switch {
	case l.pinned():
		res, err := sv.search(ctx, l.req)
		if err != nil {
			return nil, err
		}
		return &Page{Results: res}, nil
	case l.prefix != nil:
		return sv.resume(ctx, &l)
	}
	page, shared, err := sv.buffered(ctx, l.key, l.req, &l)
	if shared {
		sv.metrics.collapsed.Add(1)
		trace.SpanFromContext(ctx).SetBool("collapsed", true)
	}
	return page, err
}

// Stream serves one request as a fragment stream: the iterator yields
// fragments as the pipeline materializes them, and the trailer func — valid
// once the loop ends — carries the envelope (cursor, stats, truncation) for
// what was actually yielded; like the backend streams underneath, it never
// retains the fragments themselves. Sources, in order:
//
//   - a cache hit replays the cached page fragment by fragment;
//   - a miss with an identical buffered query already in flight joins it
//     (singleflight) and replays its page;
//   - a miss whose cache entry is a truncated prefix resumes it (buffered,
//     like a hit) and replays the stitched page;
//   - otherwise the backend's stream runs, lazily — a consumer that breaks
//     early leaves the remaining candidates unmaterialized.
//
// A consumer that abandons a replayed page early still gets an honest
// trailer, re-pointed to resume after the last fragment it received.
//
// A live stream with a bounded page (Limit > 0) that drains completely
// caches its page, so the next identical request — buffered or streamed —
// hits. Unbounded scrolls are not collected for caching, keeping server-side
// memory O(1) however large the result set; an abandoned stream caches
// nothing either way.
func (sv *Service) Stream(ctx context.Context, req xks.Request) (iter.Seq2[StreamedFragment, error], func() *xks.Results) {
	res := &xks.Results{Query: req.Query}
	seq := func(yield func(StreamedFragment, error) bool) {
		if ctx == nil {
			ctx = context.Background()
		}
		start := time.Now()
		sv.metrics.requests.Add(1)
		sv.metrics.streamed.Add(1)
		var err error
		// Every failure below happens before the consumer could have
		// stopped the loop, so the one error is yielded from here.
		defer func() {
			if err != nil {
				sv.metrics.observeError(err)
				yield(StreamedFragment{}, err)
			}
			sv.metrics.observe(time.Since(start))
		}()

		l, err := sv.admit(ctx, req)
		if err != nil {
			return
		}
		ready := l.hit
		if ready == nil && !l.pinned() {
			// Join an identical buffered execution already in flight
			// instead of running the pipeline a second time; failing that,
			// resume a truncated prefix of this exact page.
			var joined bool
			if ready, err, joined = sv.flight.poll(ctx, l.key); joined && err == nil {
				sv.metrics.collapsed.Add(1)
				trace.SpanFromContext(ctx).SetBool("collapsed", true)
			} else if !joined && l.prefix != nil {
				ready, err = sv.resume(ctx, &l)
			}
			if err != nil {
				return
			}
		}
		if ready != nil {
			*res = *replay(ready, l.req, l.gen, yield)
			return
		}
		// Collect the page for caching only when it is bounded: an
		// unlimited scroll must not pin every streamed fragment in memory.
		collect := sv.cache != nil && l.req.Limit > 0 && !l.pinned()
		t, drained, err := sv.stream(ctx, l.req, collect, yield)
		if err != nil {
			return
		}
		*res = *t
		res.Fragments = nil
		if drained && collect {
			sv.store(&l, t)
		}
	}
	return seq, func() *xks.Results { return res }
}

// replay yields a buffered page fragment by fragment and returns the
// trailer envelope for what the consumer actually took: a full drain keeps
// the page's own cursor, an early break gets one re-pointed to resume
// after the last yielded fragment.
func replay(p *Page, req xks.Request, gen uint64, yield func(StreamedFragment, error) bool) *xks.Results {
	n := 0
	for i, f := range p.Fragments {
		// The fragment reaches the consumer even when it stops the loop —
		// yield delivered it before returning false — so it counts as
		// received either way.
		n++
		if !yield(StreamedFragment{CorpusFragment: f, Page: p, Index: i}, nil) {
			break
		}
	}
	return p.ResumePoint(n, req, gen)
}
