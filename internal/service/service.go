// Package service is the serving layer between the xks algorithms and the
// HTTP API (internal/httpapi): the pieces a production search server needs
// around the per-document pipeline.
//
// It provides:
//
//   - Searcher, one search entrypoint unifying a single xks.Engine (via
//     the SingleDoc adapter) and a multi-document xks.Corpus — one method
//     taking a context.Context and an xks.Request (the request's Document
//     field carries the document filter);
//   - a sharded LRU query-result cache (internal/lru) keyed by the
//     canonicalized Request, invalidated by data generation:
//     Engine.AppendXML bumps the generation, so stale entries die on their
//     next lookup; the searches behind it run the staged pipeline
//     (internal/exec), so cached entries hold only the *selected*
//     candidates in materialized form — a ranked Limit=10 corpus query
//     caches 10 assembled fragments, and the API layer's encoding of them
//     (Page.Encoded) is computed once and retained with the entry, so a hit
//     is served from bytes;
//   - singleflight collapsing of concurrent identical queries, so a
//     thundering herd of the same request costs one pipeline execution —
//     context-aware: a waiter whose own context ends detaches immediately
//     with its ctx.Err() while the leader keeps computing for the others;
//   - live server metrics (request/error/cache counters and a latency
//     histogram with p50/p95/p99) behind atomic counters.
//
// Cached pages (and the *xks.Results inside them) are shared between
// callers and must be treated as immutable.
package service

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"strconv"
	"time"

	"xks"
	"xks/internal/lru"
	"xks/internal/trace"
)

// Searcher is the search surface the service builds on. *xks.Corpus
// implements it directly; wrap a single *xks.Engine with SingleDoc. It is
// the one required interface of six: a searcher that also implements
// Streamer (lazy fragment streams), Versioner (request-scoped version
// tokens), Appender (tail appends), Compactor (delta folds) or
// DeltaReporter (delta-index gauges) gets the matching service feature,
// discovered by type assertion.
type Searcher interface {
	// Search runs the request — over every document, or over the one named
	// by req.Document when non-empty; the error wraps
	// xks.ErrUnknownDocument for names the searcher does not hold.
	// Cancelling ctx (or req.Timeout) aborts the pipeline with ctx.Err().
	Search(ctx context.Context, req xks.Request) (*xks.Results, error)
	// Documents lists the searchable documents.
	Documents() []xks.DocumentInfo
	// Generation changes whenever the underlying data changes; the cache
	// tags entries with it to detect staleness.
	Generation() uint64
}

// Streamer is the optional streaming surface of a Searcher: a lazily
// materializing fragment iterator plus a trailer func that, once the loop
// ends, reports the envelope (cursor, stats, truncation) for the fragments
// actually yielded. *xks.Corpus implements it; SingleDoc adapts an engine.
// Service.Stream uses it to serve NDJSON responses without buffering a
// page, falling back to the buffered Search when the searcher does not
// stream.
type Streamer interface {
	Stream(ctx context.Context, req xks.Request) (iter.Seq2[xks.CorpusFragment, error], func() *xks.Results)
}

// Versioner is the optional request-scoped versioning surface of a
// Searcher: the token caching layers should tag req's entries with. A
// snapshot-aware searcher narrows it — a document-filtered request gets a
// token covering only that document, so appends to other documents never
// evict its cached pages. Searchers without the method fall back to the
// global Generation.
type Versioner interface {
	VersionFor(req xks.Request) uint64
}

// Appender is the optional write surface of a Searcher: append a parsed
// XML snippet under the identified parent node of the named document. The
// service runs appends beside searches, so implementations take only the
// snapshot-isolated tail path and refuse any other parent with
// xks.ErrOffSpine.
type Appender interface {
	AppendXML(doc, parentDewey, snippet string) error
}

// Compactor is the optional maintenance surface of a Searcher: fold
// accumulated delta segments into the base index, returning how many were
// folded.
type Compactor interface {
	Compact(ctx context.Context) (int, error)
}

// DeltaReporter is the optional delta-index introspection surface of a
// Searcher; the Prometheus endpoint exports its counters as the
// xks_delta_* / xks_snapshots_pinned / xks_compactions_total /
// xks_compaction_seconds families.
type DeltaReporter interface {
	DeltaInfo() xks.DeltaInfo
}

var (
	_ Searcher      = (*xks.Corpus)(nil)
	_ Streamer      = (*xks.Corpus)(nil)
	_ Versioner     = (*xks.Corpus)(nil)
	_ Appender      = (*xks.Corpus)(nil)
	_ Compactor     = (*xks.Corpus)(nil)
	_ DeltaReporter = (*xks.Corpus)(nil)
	_ Streamer      = SingleDoc{}
	_ Versioner     = SingleDoc{}
	_ Appender      = SingleDoc{}
	_ Compactor     = SingleDoc{}
	_ DeltaReporter = SingleDoc{}
)

// SingleDoc adapts one engine to the Searcher interface under a document
// name, so a single-file server and a corpus server share one serving path.
type SingleDoc struct {
	Name   string
	Engine *xks.Engine
}

func (s SingleDoc) Search(ctx context.Context, req xks.Request) (*xks.Results, error) {
	if req.Document != "" && req.Document != s.Name {
		return nil, fmt.Errorf("xks: %w: %q", xks.ErrUnknownDocument, req.Document)
	}
	res, err := s.Engine.Search(ctx, req)
	if err != nil {
		return nil, err
	}
	return res.AsCorpus(s.Name), nil
}

// Stream adapts the engine's fragment stream to the corpus shape, tagging
// fragments and the trailer with the document name.
func (s SingleDoc) Stream(ctx context.Context, req xks.Request) (iter.Seq2[xks.CorpusFragment, error], func() *xks.Results) {
	if req.Document != "" && req.Document != s.Name {
		err := fmt.Errorf("xks: %w: %q", xks.ErrUnknownDocument, req.Document)
		return func(yield func(xks.CorpusFragment, error) bool) {
			yield(xks.CorpusFragment{}, err)
		}, func() *xks.Results { return &xks.Results{Query: req.Query, NextOffset: -1} }
	}
	seq, trailer := s.Engine.Stream(ctx, req)
	wrapped := func(yield func(xks.CorpusFragment, error) bool) {
		for f, err := range seq {
			if err != nil {
				yield(xks.CorpusFragment{}, err)
				return
			}
			if !yield(xks.CorpusFragment{Document: s.Name, Fragment: f}, nil) {
				return
			}
		}
	}
	return wrapped, func() *xks.Results { return trailer().AsCorpus(s.Name) }
}

func (s SingleDoc) Documents() []xks.DocumentInfo {
	ix := s.Engine.Index()
	return []xks.DocumentInfo{{Name: s.Name, Words: ix.NumWords(), Nodes: ix.NumNodes()}}
}

func (s SingleDoc) Generation() uint64 { return s.Engine.Generation() }

// VersionFor reports the engine's snapshot version token — the single
// document is the whole corpus, so request scoping adds nothing.
func (s SingleDoc) VersionFor(req xks.Request) uint64 { return s.Engine.Generation() }

// AppendXML tail-appends to the wrapped engine; doc must name it (or be
// empty).
func (s SingleDoc) AppendXML(doc, parentDewey, snippet string) error {
	if doc != "" && doc != s.Name {
		return fmt.Errorf("xks: %w: %q", xks.ErrUnknownDocument, doc)
	}
	return s.Engine.AppendTail(parentDewey, snippet)
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
	// CacheShards is the cache shard count (default 16, rounded to a
	// power of two).
	CacheShards int
}

// Service wraps a Searcher with caching, singleflight, and metrics.
type Service struct {
	searcher Searcher
	cache    *lru.Cache[*Page]
	// partials caches deadline-truncated pages (TruncMaterialize, bounded
	// Limit) under the same key space as cache, so an identical retry
	// resumes materialization at the cursor — re-entering the pipeline at
	// Offset+len(prefix) — instead of reassembling the fragments that
	// already finished. Entries are generation-tagged like the main cache;
	// full-page semantics are untouched (a completed page always lands in
	// cache, never here).
	partials *lru.Cache[*xks.Results]
	flight   group
	metrics  Metrics
}

// New builds the service over a searcher.
func New(s Searcher, cfg Config) *Service {
	sv := &Service{searcher: s}
	if cfg.CacheSize > 0 {
		sv.cache = lru.New[*Page](cfg.CacheSize, cfg.CacheShards)
		sv.partials = lru.New[*xks.Results](cfg.CacheSize, cfg.CacheShards)
	}
	return sv
}

// Documents lists the searchable documents.
func (sv *Service) Documents() []xks.DocumentInfo { return sv.searcher.Documents() }

// Generation exposes the searcher's current data generation.
func (sv *Service) Generation() uint64 { return sv.searcher.Generation() }

// Metrics exposes the live counters (read with Metrics().Snapshot()).
func (sv *Service) Metrics() *Metrics { return &sv.metrics }

// Append forwards a document append to the searcher's write surface. The
// error reports searchers without one (Appender) and parents the tail path
// cannot take (xks.ErrOffSpine). Snapshot-pinned cursors and cached pages
// survive the append: cache entries are tagged with request-scoped version
// tokens, so only pages that could observe the appended document go stale.
func (sv *Service) Append(doc, parentDewey, snippet string) error {
	a, ok := sv.searcher.(Appender)
	if !ok {
		return fmt.Errorf("xks: this searcher does not support appends")
	}
	return a.AppendXML(doc, parentDewey, snippet)
}

// Compact forwards to the searcher's maintenance surface (Compactor),
// folding accumulated delta segments into the base. Version tokens do not
// change, so cached pages and outstanding cursors survive.
func (sv *Service) Compact(ctx context.Context) (int, error) {
	c, ok := sv.searcher.(Compactor)
	if !ok {
		return 0, fmt.Errorf("xks: this searcher does not support compaction")
	}
	return c.Compact(ctx)
}

// DeltaInfo reports the searcher's delta-index state; ok is false when the
// searcher does not expose one (DeltaReporter).
func (sv *Service) DeltaInfo() (xks.DeltaInfo, bool) {
	d, ok := sv.searcher.(DeltaReporter)
	if !ok {
		return xks.DeltaInfo{}, false
	}
	return d.DeltaInfo(), true
}

// generationFor is the version token req's cache entries are tagged with:
// the searcher's request-scoped token when it has one (Versioner), the
// global generation otherwise.
func (sv *Service) generationFor(req xks.Request) uint64 {
	if v, ok := sv.searcher.(Versioner); ok {
		return v.VersionFor(req)
	}
	return sv.searcher.Generation()
}

// CacheLen reports the number of live cache entries (0 when caching is
// disabled).
func (sv *Service) CacheLen() int {
	if sv.cache == nil {
		return 0
	}
	return sv.cache.Len()
}

// CacheBodyBytes reports the encoded response bytes currently retained by
// cache entries (Page.Encoded).
func (sv *Service) CacheBodyBytes() int64 {
	if sv.cache == nil {
		return 0
	}
	var n int64
	sv.cache.Each(func(p *Page) {
		if e := p.enc.Load(); e != nil {
			n += int64(len(e.Bytes))
		}
	})
	return n
}

// cacheKey derives the cache/singleflight key from the canonicalized
// request (xks.Request.Canonical: whitespace-normalized, case-folded query;
// clamped pagination; no timeout — deeper normalization such as stemming
// happens inside the engine). The variable-length fields are
// length-prefixed so no two distinct requests can concatenate to the same
// key — with plain separators, a separator embedded in the query could
// alias another request's document filter.
//
// The requested Strategy is keyed; what the planner resolves it to is not.
// Every strategy computes the same answer, so a page cached under one plan
// is the right page under any other, and the statistics a plan depends on
// only change with the data, which already retires the entry through its
// version token. A request is therefore planned once, by the pipeline, and
// a cache hit plans nothing.
func cacheKey(req xks.Request) string {
	req = req.Canonical()
	var b []byte
	b = strconv.AppendInt(b, int64(len(req.Query)), 10)
	b = append(b, ':')
	b = append(b, req.Query...)
	b = strconv.AppendInt(b, int64(len(req.Document)), 10)
	b = append(b, ':')
	b = append(b, req.Document...)
	// Cursors are resolved to an Offset (and cleared) before keying; the
	// raw token is still mixed in defensively so an unresolved request can
	// never alias a resolved one.
	b = strconv.AppendInt(b, int64(len(req.Cursor)), 10)
	b = append(b, ':')
	b = append(b, req.Cursor...)
	b = fmt.Appendf(b, "%d.%d.%t.%t.%d.%d.%d",
		req.Algorithm, req.Semantics, req.ExactContent, req.Rank, req.Limit, req.Offset,
		req.Strategy)
	return string(b)
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
// document named by req.Document when non-empty. cached reports whether the
// page came from the cache. The returned page is shared with other callers
// — do not mutate it.
//
// A request carrying a Cursor is validated here, against the same
// generation cache entries are tagged with, before any cache lookup: a
// stale token fails with xks.ErrStaleCursor (the data mutated since the
// page was issued), a replay against a different query shape with
// xks.ErrCursorMismatch, an undecodable one with xks.ErrBadCursor.
//
// ctx cancellation (and req.Timeout) aborts the request with ctx.Err():
// a cancelled cache hit is still served, a cancelled pipeline execution is
// abandoned mid-stream, and a cancelled singleflight waiter detaches from
// its leader immediately. Truncated results (a BestEffort deadline expired
// mid-page) are served but never cached — the next identical request runs
// the pipeline again rather than replaying a partial page.
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

	// Capture the version token before searching: if the data mutates while
	// the pipeline runs, the entry is stored under the old token and dies
	// on its next lookup instead of serving stale results forever. The
	// token is request-scoped (generationFor): a document-filtered entry is
	// tagged with its own document's token, so appends elsewhere in the
	// corpus never evict it.
	gen := sv.generationFor(req)
	req, err = req.ResolveCursor(gen)
	if err != nil {
		if !errors.Is(err, xks.ErrStaleCursor) {
			return nil, false, err
		}
		// The cursor does not match the current token, but the searcher may
		// still resolve it: cursors pin the snapshot they were issued at
		// (delta truncation in the engine, the snapshot registry in the
		// corpus). Serve the pinned page directly, uncached — it belongs to
		// an old snapshot no current cache entry should replay. Only a
		// genuinely unresolvable snapshot surfaces ErrStaleCursor.
		res, err := sv.searcher.Search(ctx, req)
		if err != nil {
			return nil, false, err
		}
		sv.metrics.observeStages(res.Stats.Stages, res.Truncated)
		return &Page{Results: res}, false, nil
	}
	key := cacheKey(req)
	// Annotate the request's trace (when one is attached) with the serving
	// decisions the pipeline itself cannot see; a nil span makes these
	// free no-ops.
	sp := trace.SpanFromContext(ctx)
	sp.SetInt("generation", int64(gen))
	if sv.cache != nil {
		if hit, ok := sv.cache.Get(key, gen); ok {
			sv.metrics.hits.Add(1)
			sp.SetStr("cache", "hit")
			return hit, true, nil
		}
		sv.metrics.misses.Add(1)
		sp.SetStr("cache", "miss")
		if r, ok, perr := sv.resumePartial(ctx, key, gen, req); ok {
			if perr != nil {
				return nil, false, perr
			}
			sp.SetStr("cache", "partial")
			return r, false, nil
		}
	} else {
		sp.SetStr("cache", "off")
	}

	page, shared, err := sv.flight.do(ctx, key, func() (*Page, error) {
		r, err := sv.searcher.Search(ctx, req)
		if err != nil {
			return nil, err
		}
		// Only real executions feed the per-stage histograms; cache
		// hits and collapsed joins never ran the stages.
		sv.metrics.observeStages(r.Stats.Stages, r.Truncated)
		return sv.store(key, gen, req, r), nil
	})
	if shared {
		sv.metrics.collapsed.Add(1)
		sp.SetBool("collapsed", true)
	}
	if err != nil {
		return nil, false, err
	}
	return page, false, nil
}

// store routes one completed execution's page into the right cache: a full
// page into the main cache, a materialize-truncated bounded partial page
// into the partial-page cache (so an identical retry resumes at the
// cursor), and everything else — candidate-stage truncations, whose
// fragments were salvaged from a partial corpus and are not a definitive
// prefix, and unbounded pages — nowhere. It returns the page to serve; only
// a page that went into the main cache retains its encoding.
func (sv *Service) store(key string, gen uint64, req xks.Request, r *xks.Results) *Page {
	p := &Page{Results: r}
	switch {
	case sv.cache == nil:
	case !r.Truncated:
		p.cached = true
		sv.cache.Put(key, gen, p)
	case r.Truncation == xks.TruncMaterialize && req.Limit > 0 &&
		len(r.Fragments) > 0 && len(r.Fragments) < req.Limit:
		sv.partials.Put(key, gen, r)
	}
	return p
}

// resumePartial serves a cache miss from the partial-page cache when an
// earlier identical request materialized a truncated prefix of this page:
// the pipeline re-enters at the cursor — Offset advanced past the prefix,
// Limit shrunk to the remainder, a derived singleflight key so concurrent
// retries still collapse — and the cached prefix is stitched onto whatever
// the continuation yields. A completed stitch is promoted to the main
// cache; a still-truncated one replaces the partial entry with the longer
// prefix. ok=false means no usable partial page exists and the caller runs
// the full pipeline; the combined envelope carries the continuation's
// cursor, truncation state, and stats (the prefix's cost was paid — and
// reported — by the request that assembled it).
func (sv *Service) resumePartial(ctx context.Context, key string, gen uint64, req xks.Request) (page *Page, ok bool, err error) {
	if sv.partials == nil || req.Limit <= 0 {
		return nil, false, nil
	}
	part, found := sv.partials.Get(key, gen)
	if !found {
		return nil, false, nil
	}
	n := len(part.Fragments)
	if n == 0 || n >= req.Limit {
		return nil, false, nil
	}
	sv.metrics.partialResumes.Add(1)
	cont := req
	cont.Offset += n
	cont.Limit -= n
	ckey := fmt.Sprintf("%s|partial:%d", key, n)
	tail, _, err := sv.flight.do(ctx, ckey, func() (*Page, error) {
		r, err := sv.searcher.Search(ctx, cont)
		if err != nil {
			return nil, err
		}
		sv.metrics.observeStages(r.Stats.Stages, r.Truncated)
		return &Page{Results: r}, nil
	})
	if err != nil {
		return nil, true, err
	}
	combined := *tail.Results
	combined.Fragments = append(append(
		make([]xks.CorpusFragment, 0, n+len(tail.Fragments)), part.Fragments...), tail.Fragments...)
	return sv.store(key, gen, req, &combined), true, nil
}

// Stream serves one request as a fragment stream: the iterator yields
// materialized fragments as the pipeline produces them, and the trailer
// func — valid once the loop ends — carries the envelope (cursor, stats,
// truncation) for what was actually yielded; like the searcher streams
// underneath, the trailer never retains the fragments themselves. Sources,
// in order:
//
//   - a cache hit replays the cached page fragment by fragment;
//   - a miss with an identical buffered query already in flight joins it
//     (singleflight) and replays its page;
//   - otherwise the searcher's own stream runs (Streamer), lazily — a
//     consumer that breaks early leaves the remaining candidates
//     unmaterialized; searchers that cannot stream fall back to one
//     buffered Search.
//
// A consumer that abandons a replayed page early still gets an honest
// trailer: the cursor is re-pointed to resume after the last fragment it
// received (ResumePoint), not after the page it never saw.
//
// A live stream with a bounded page (Limit > 0) that drains completely
// (and was not truncated) caches its page under the generation snapshot,
// so the next identical request — buffered or streamed — hits. Unbounded
// scrolls are not collected for caching, keeping server-side memory O(1)
// however large the result set; abandoned or truncated streams cache
// nothing either way.
func (sv *Service) Stream(ctx context.Context, req xks.Request) (iter.Seq2[StreamedFragment, error], func() *xks.Results) {
	res := &xks.Results{Query: req.Query, NextOffset: -1}
	seq := func(yield func(StreamedFragment, error) bool) {
		if ctx == nil {
			ctx = context.Background()
		}
		start := time.Now()
		sv.metrics.requests.Add(1)
		sv.metrics.streamed.Add(1)
		var err error
		defer func() {
			if err != nil {
				sv.metrics.observeError(err)
			}
			sv.metrics.observe(time.Since(start))
		}()

		gen := sv.generationFor(req)
		req, err = req.ResolveCursor(gen)
		if err != nil {
			if !errors.Is(err, xks.ErrStaleCursor) {
				yield(StreamedFragment{}, err)
				return
			}
			// Snapshot-pinned resume (see Search): the searcher can often
			// still resolve a cursor whose token predates the current
			// snapshot. Stream it directly, uncached.
			err = nil
			if st, ok := sv.searcher.(Streamer); ok {
				sseq, strailer := st.Stream(ctx, req)
				for f, ferr := range sseq {
					if ferr != nil {
						err = ferr
						yield(StreamedFragment{}, ferr)
						return
					}
					if !yield(StreamedFragment{CorpusFragment: f}, nil) {
						break
					}
				}
				t := strailer()
				*res = *t
				sv.metrics.observeStages(t.Stats.Stages, t.Truncated)
				return
			}
			r, serr := sv.searcher.Search(ctx, req)
			if serr != nil {
				err = serr
				yield(StreamedFragment{}, serr)
				return
			}
			sv.metrics.observeStages(r.Stats.Stages, r.Truncated)
			*res = *replay(&Page{Results: r}, req, gen, yield)
			return
		}
		key := cacheKey(req)
		sp := trace.SpanFromContext(ctx)
		sp.SetInt("generation", int64(gen))
		if sv.cache != nil {
			if hit, ok := sv.cache.Get(key, gen); ok {
				sv.metrics.hits.Add(1)
				sp.SetStr("cache", "hit")
				*res = *replay(hit, req, gen, yield)
				return
			}
			sv.metrics.misses.Add(1)
			sp.SetStr("cache", "miss")
		} else {
			sp.SetStr("cache", "off")
		}
		// Join an identical buffered execution already in flight instead
		// of running the pipeline a second time.
		if joined, jerr, ok := sv.flight.poll(ctx, key); ok {
			if jerr != nil {
				err = jerr
				yield(StreamedFragment{}, jerr)
				return
			}
			sv.metrics.collapsed.Add(1)
			sp.SetBool("collapsed", true)
			*res = *replay(joined, req, gen, yield)
			return
		}
		// A truncated prefix of this exact page may be cached: resume at
		// the cursor (buffered, like a cache-hit replay) instead of
		// reassembling the fragments that already finished.
		if r, ok, perr := sv.resumePartial(ctx, key, gen, req); ok {
			if perr != nil {
				err = perr
				yield(StreamedFragment{}, perr)
				return
			}
			sp.SetStr("cache", "partial")
			*res = *replay(r, req, gen, yield)
			return
		}

		st, ok := sv.searcher.(Streamer)
		if !ok {
			// Buffered fallback for searchers that cannot stream.
			r, serr := sv.searcher.Search(ctx, req)
			if serr != nil {
				err = serr
				yield(StreamedFragment{}, serr)
				return
			}
			sv.metrics.observeStages(r.Stats.Stages, r.Truncated)
			*res = *replay(sv.store(key, gen, req, r), req, gen, yield)
			return
		}
		sseq, strailer := st.Stream(ctx, req)
		// Collect the page for caching only when it is bounded: an
		// unlimited scroll must not pin every streamed fragment in memory.
		collect := sv.cache != nil && req.Limit > 0
		var page []xks.CorpusFragment
		complete := true
		for f, ferr := range sseq {
			if ferr != nil {
				err = ferr
				complete = false
				break
			}
			if collect {
				page = append(page, f)
			}
			if !yield(StreamedFragment{CorpusFragment: f}, nil) {
				complete = false
				break
			}
		}
		t := strailer()
		*res = *t
		if err != nil {
			yield(StreamedFragment{}, err)
			return
		}
		sv.metrics.observeStages(t.Stats.Stages, t.Truncated)
		if complete && collect {
			full := *t
			full.Fragments = page
			sv.store(key, gen, req, &full)
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
