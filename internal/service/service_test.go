package service_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xks"
	"xks/internal/fault"
	"xks/internal/paperdata"
	"xks/internal/service"
)

func testCorpus(t *testing.T) *xks.Corpus {
	t.Helper()
	c := xks.NewCorpus()
	c.Add("publications", xks.FromTree(paperdata.Publications()))
	c.Add("team", xks.FromTree(paperdata.Team()))
	return c
}

func TestSearchCacheHit(t *testing.T) {
	sv := service.New(testCorpus(t), service.Config{CacheSize: 64})
	res1, cached, err := sv.Search(context.Background(), xks.Request{Query: "liu keyword"})
	if err != nil || cached {
		t.Fatalf("first search: cached=%t err=%v", cached, err)
	}
	res2, cached, err := sv.Search(context.Background(), xks.Request{Query: "liu keyword"})
	if err != nil || !cached {
		t.Fatalf("second search: cached=%t err=%v", cached, err)
	}
	if res2 != res1 {
		t.Error("cache hit should return the same result object")
	}
	// Whitespace / case variants hit the same entry.
	if _, cached, _ := sv.Search(context.Background(), xks.Request{Query: "  Liu   KEYWORD "}); !cached {
		t.Error("normalized variant should be a cache hit")
	}
	// Different options are a different entry.
	if _, cached, _ := sv.Search(context.Background(), xks.Request{Query: "liu keyword", Rank: true}); cached {
		t.Error("different options must not share a cache entry")
	}
	s := service.Samples(t, sv)
	if s["xks_cache_hits_total"] != 2 || s["xks_cache_misses_total"] != 2 {
		t.Errorf("hits=%v misses=%v, want 2/2", s["xks_cache_hits_total"], s["xks_cache_misses_total"])
	}
	if s["xks_requests_total"] != 4 || s["xks_request_errors_total"] != 0 {
		t.Errorf("requests=%v errors=%v", s["xks_requests_total"], s["xks_request_errors_total"])
	}
}

func TestSearchDocumentFilter(t *testing.T) {
	sv := service.New(testCorpus(t), service.Config{CacheSize: 64})
	res, _, err := sv.Search(context.Background(), xks.Request{Query: "name", Document: "team"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fragments) == 0 {
		t.Fatal("no fragments from team")
	}
	for _, f := range res.Fragments {
		if f.Document != "team" {
			t.Errorf("fragment from %s", f.Document)
		}
	}
	// Corpus-wide and filtered results are distinct cache entries.
	all, _, err := sv.Search(context.Background(), xks.Request{Query: "name"})
	if err != nil {
		t.Fatal(err)
	}
	if len(all.Fragments) <= len(res.Fragments) {
		t.Errorf("corpus-wide %d fragments, filtered %d", len(all.Fragments), len(res.Fragments))
	}

	_, _, err = sv.Search(context.Background(), xks.Request{Query: "name", Document: "absent"})
	if !errors.Is(err, xks.ErrUnknownDocument) {
		t.Errorf("unknown document error = %v", err)
	}
	if n := service.Sample(t, sv, "xks_request_errors_total"); n != 1 {
		t.Errorf("errors = %v, want 1", n)
	}
}

func TestSingleDocAdapter(t *testing.T) {
	e := xks.FromTree(paperdata.Publications())
	sv := service.New(service.SingleDoc{Name: "pubs.xml", Engine: e}, service.Config{CacheSize: 8})
	res, _, err := sv.Search(context.Background(), xks.Request{Query: "liu keyword"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fragments) != 2 || res.Fragments[0].Document != "pubs.xml" {
		t.Fatalf("fragments = %+v", res.Fragments)
	}
	if res.Stats.NumLCAs != 2 {
		t.Errorf("NumLCAs = %d", res.Stats.NumLCAs)
	}
	if res.PerDocument["pubs.xml"] != 2 {
		t.Errorf("PerDocument = %v", res.PerDocument)
	}
	if _, _, err := sv.Search(context.Background(), xks.Request{Query: "liu", Document: "other.xml"}); !errors.Is(err, xks.ErrUnknownDocument) {
		t.Errorf("doc filter mismatch error = %v", err)
	}
	docs := sv.Documents()
	if len(docs) != 1 || docs[0].Name != "pubs.xml" || docs[0].Words == 0 || docs[0].Nodes == 0 {
		t.Errorf("Documents = %+v", docs)
	}
}

func TestAppendXMLInvalidatesCache(t *testing.T) {
	e, err := xks.LoadString(`<bib><paper><title>xml search</title></paper></bib>`)
	if err != nil {
		t.Fatal(err)
	}
	sv := service.New(service.SingleDoc{Name: "bib", Engine: e}, service.Config{CacheSize: 8})

	res, _, err := sv.Search(context.Background(), xks.Request{Query: "search"})
	if err != nil {
		t.Fatal(err)
	}
	before := len(res.Fragments)
	if _, cached, _ := sv.Search(context.Background(), xks.Request{Query: "search"}); !cached {
		t.Fatal("expected a cache hit before the append")
	}

	if err := e.AppendXML("0", `<paper><title>another search paper</title></paper>`); err != nil {
		t.Fatal(err)
	}
	res, cached, err := sv.Search(context.Background(), xks.Request{Query: "search"})
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("AppendXML must invalidate the cached entry")
	}
	if len(res.Fragments) <= before {
		t.Errorf("fragments = %d, want more than %d after append", len(res.Fragments), before)
	}
	// The fresh result is cached under the new generation.
	if _, cached, _ := sv.Search(context.Background(), xks.Request{Query: "search"}); !cached {
		t.Error("post-append result should cache again")
	}
}

func TestCorpusAddInvalidatesCache(t *testing.T) {
	c := testCorpus(t)
	sv := service.New(c, service.Config{CacheSize: 8})
	if _, _, err := sv.Search(context.Background(), xks.Request{Query: "name"}); err != nil {
		t.Fatal(err)
	}
	c.Add("extra", xks.FromTree(paperdata.Publications()))
	if _, cached, _ := sv.Search(context.Background(), xks.Request{Query: "name"}); cached {
		t.Error("Add must invalidate corpus-wide cached results")
	}
}

// countingSearcher wraps a backend, counting and optionally slowing the
// underlying executions so singleflight collapsing is observable.
type countingSearcher struct {
	service.Buffered
	execs atomic.Int64
}

func newCountingSearcher(inner service.Backend, delay time.Duration) *countingSearcher {
	cs := &countingSearcher{}
	cs.Buffered = service.Buffered{Backend: inner, Page: func(ctx context.Context, req xks.Request) (*xks.Results, error) {
		cs.execs.Add(1)
		time.Sleep(delay)
		return inner.Search(ctx, req)
	}}
	return cs
}

func TestSingleflightCollapsesHerd(t *testing.T) {
	cs := newCountingSearcher(testCorpus(t), 50*time.Millisecond)
	// Cache disabled: every request would run the pipeline without
	// singleflight.
	sv := service.New(cs, service.Config{})

	const herd = 16
	var wg sync.WaitGroup
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, _, err := sv.Search(context.Background(), xks.Request{Query: "liu keyword"})
			if err != nil {
				t.Error(err)
			} else if len(res.Fragments) != 2 {
				t.Errorf("fragments = %d", len(res.Fragments))
			}
		}()
	}
	wg.Wait()

	// All goroutines start well within the 50ms window of the leader's
	// execution, so nearly all collapse; allow a little scheduling slack.
	if got := cs.execs.Load(); got > 3 {
		t.Errorf("underlying executions = %d, want <= 3 for a herd of %d", got, herd)
	}
	s := service.Samples(t, sv)
	if s["xks_collapsed_requests_total"] < herd-3 {
		t.Errorf("collapsed = %v, want >= %d", s["xks_collapsed_requests_total"], herd-3)
	}
	if s["xks_requests_total"] != herd {
		t.Errorf("requests = %v", s["xks_requests_total"])
	}
}

// TestConcurrentHammer drives the cache + singleflight + metrics from many
// goroutines under -race.
func TestConcurrentHammer(t *testing.T) {
	c := testCorpus(t)
	sv := service.New(c, service.Config{CacheSize: 32})
	queries := []string{"liu keyword", "name", "xml", "search liu", "title:xml"}
	docs := []string{"", "publications", "team"}

	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				q := queries[(g+i)%len(queries)]
				d := docs[i%len(docs)]
				req := xks.Request{Query: q, Document: d, Rank: i%2 == 0, Limit: i % 3}
				if _, _, err := sv.Search(context.Background(), req); err != nil {
					t.Errorf("search %q: %v", q, err)
					return
				}
				if i%10 == 0 {
					sv.WritePrometheus(io.Discard)
					sv.CacheLen()
				}
			}
		}(g)
	}
	// Hammer generation reads alongside the searches (AppendXML itself
	// may not run concurrently with Search, so mutation-under-load is
	// covered by TestAppendXMLInvalidatesCache instead).
	for i := 0; i < 100; i++ {
		_ = sv.Generation()
	}
	wg.Wait()

	s := service.Samples(t, sv)
	if s["xks_requests_total"] != 16*50 {
		t.Errorf("requests = %v, want %d", s["xks_requests_total"], 16*50)
	}
	if s["xks_request_errors_total"] != 0 {
		t.Errorf("errors = %v", s["xks_request_errors_total"])
	}
	if s["xks_cache_hits_total"] == 0 {
		t.Error("hammer produced no cache hits")
	}
}

func TestCacheDisabled(t *testing.T) {
	sv := service.New(testCorpus(t), service.Config{CacheSize: 0})
	for i := 0; i < 3; i++ {
		if _, cached, err := sv.Search(context.Background(), xks.Request{Query: "liu keyword"}); err != nil || cached {
			t.Fatalf("i=%d cached=%t err=%v", i, cached, err)
		}
	}
	if sv.CacheLen() != 0 {
		t.Errorf("CacheLen = %d", sv.CacheLen())
	}
	s := service.Samples(t, sv)
	if s["xks_cache_hits_total"] != 0 || s["xks_cache_misses_total"] != 0 {
		t.Errorf("disabled cache counted hits/misses: %v/%v", s["xks_cache_hits_total"], s["xks_cache_misses_total"])
	}
}

func TestCacheEvictionUnderPressure(t *testing.T) {
	sv := service.New(testCorpus(t), service.Config{CacheSize: 4})
	for i := 0; i < 20; i++ {
		if _, _, err := sv.Search(context.Background(), xks.Request{Query: "name", Limit: i + 1}); err != nil {
			t.Fatal(err)
		}
	}
	if n := sv.CacheLen(); n > 4 {
		t.Errorf("CacheLen = %d, want <= 4", n)
	}
}

// TestCursorScrollStalenessAndMismatch covers the cursor lifecycle at the
// serving layer: scroll page 1 → page 2 by cursor; a tail AppendXML does
// NOT stale the cursor — it re-pins the snapshot it was issued at and
// serves the same page 2 — nor does a refused off-spine append, while a
// cursor the engine cannot resolve (issued on a longer history of the
// document) fails with ErrStaleCursor; a cursor replayed under a different
// query fails with ErrCursorMismatch. Failures are counted as request
// errors.
func TestCursorScrollStalenessAndMismatch(t *testing.T) {
	const doc = `<bib><paper><title>xml search</title></paper><paper><title>search trees</title></paper><paper><title>search engines</title></paper></bib>`
	e, err := xks.LoadString(doc)
	if err != nil {
		t.Fatal(err)
	}
	sv := service.New(service.SingleDoc{Name: "bib", Engine: e}, service.Config{CacheSize: 16})

	page1, _, err := sv.Search(context.Background(), xks.Request{Query: "search", Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(page1.Fragments) != 1 || page1.Cursor == "" {
		t.Fatalf("page 1: %d fragments, cursor %q", len(page1.Fragments), page1.Cursor)
	}
	page2, _, err := sv.Search(context.Background(), xks.Request{Query: "search", Limit: 1, Cursor: page1.Cursor})
	if err != nil {
		t.Fatal(err)
	}
	if len(page2.Fragments) != 1 || page2.Fragments[0].Root == page1.Fragments[0].Root {
		t.Fatalf("page 2 did not advance: %+v", page2.Fragments)
	}

	// Fingerprint mismatch: the cursor belongs to a different query.
	if _, _, err := sv.Search(context.Background(), xks.Request{Query: "trees", Limit: 1, Cursor: page1.Cursor}); !errors.Is(err, xks.ErrCursorMismatch) {
		t.Fatalf("mismatched cursor: err = %v, want ErrCursorMismatch", err)
	}

	// A tail append lands in the delta index without renumbering: the old
	// cursor re-pins the snapshot it was issued at and serves the exact
	// same page 2, with the appended paper invisible to the pinned scroll.
	if err := e.AppendXML("0", `<paper><title>fresh search result</title></paper>`); err != nil {
		t.Fatal(err)
	}
	pinned, _, err := sv.Search(context.Background(), xks.Request{Query: "search", Limit: 1, Cursor: page1.Cursor})
	if err != nil {
		t.Fatalf("post-append cursor: err = %v, want snapshot-pinned resume", err)
	}
	if len(pinned.Fragments) != 1 || pinned.Fragments[0].Root != page2.Fragments[0].Root {
		t.Fatalf("pinned page 2 = %+v, want the pre-append page 2 (%s)", pinned.Fragments, page2.Fragments[0].Root)
	}

	// An off-spine append is refused and changes nothing: the version (the
	// node count) and the pinned page 2 are those from before it.
	gen := e.Generation()
	if err := sv.Append("bib", "0.0", `<note>search aside</note>`); !errors.Is(err, xks.ErrOffSpine) {
		t.Fatalf("off-spine append: err = %v, want ErrOffSpine", err)
	}
	if e.Generation() != gen {
		t.Fatalf("refused append moved version %d -> %d", gen, e.Generation())
	}
	again, _, err := sv.Search(context.Background(), xks.Request{Query: "search", Limit: 1, Cursor: page1.Cursor})
	if err != nil || len(again.Fragments) != 1 || again.Fragments[0].Root != page2.Fragments[0].Root {
		t.Fatalf("post-refusal page 2 = %+v, err %v; want the pre-append page 2 (%s)", again, err, page2.Fragments[0].Root)
	}

	// A cursor issued on a longer history of the document names a snapshot
	// past this engine's head: 410 material, deterministically.
	longer, err := xks.LoadString(doc)
	if err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if err := longer.AppendXML("0", `<paper><title>search elsewhere</title></paper>`); err != nil {
			t.Fatal(err)
		}
	}
	ahead, err := longer.Search(context.Background(), xks.Request{Query: "search", Limit: 1})
	if err != nil || ahead.Cursor == "" {
		t.Fatalf("longer history page 1: cursor %q, err %v", ahead.Cursor, err)
	}
	if _, _, err := sv.Search(context.Background(), xks.Request{Query: "search", Limit: 1, Cursor: ahead.Cursor}); !errors.Is(err, xks.ErrStaleCursor) {
		t.Fatalf("longer-history cursor: err = %v, want ErrStaleCursor", err)
	}
	// Restarting from the first page issues a fresh, working cursor.
	fresh, _, err := sv.Search(context.Background(), xks.Request{Query: "search", Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Cursor == "" {
		t.Fatal("restarted scroll issued no cursor")
	}
	if _, _, err := sv.Search(context.Background(), xks.Request{Query: "search", Limit: 1, Cursor: fresh.Cursor}); err != nil {
		t.Fatalf("fresh cursor: %v", err)
	}
	if n := service.Sample(t, sv, "xks_request_errors_total"); n != 2 {
		t.Errorf("errors = %v, want 2 (one mismatch, one stale)", n)
	}
}

// truncatingSearcher marks every result truncated, standing in for a
// pipeline whose best-effort deadline always expires mid-page: a bounded
// page is cut mid-materialization after one fragment.
func truncatingSearcher(inner service.Backend) service.Backend {
	return service.Buffered{Backend: inner, Page: func(ctx context.Context, req xks.Request) (*xks.Results, error) {
		r, err := inner.Search(ctx, req)
		if err != nil {
			return nil, err
		}
		r.Truncated = true
		if req.Limit > 0 {
			r.Fragments, r.Truncation = r.Fragments[:1], xks.TruncMaterialize
		}
		return r, nil
	}}
}

// appendingBackend tail-appends to its engine before delegating the first
// Search after it is armed: an append that lands between the service's
// admission of a request and the backend's pin of a snapshot.
type appendingBackend struct {
	service.SingleDoc
	armed bool
}

func (b *appendingBackend) Search(ctx context.Context, req xks.Request) (*xks.Results, error) {
	if b.armed {
		b.armed = false
		if err := b.Engine.AppendXML("0", "<b><t>xml search</t></b>"); err != nil {
			return nil, err
		}
	}
	return b.SingleDoc.Search(ctx, req)
}

// TestCursorPageReadsItsCursorSnapshot: a cursor page is computed on the
// snapshot its cursor pins, even when an append lands after the service
// admitted the request. On the newest head the appended record, ranked
// first, would shift the page and repeat page 1's fragment.
func TestCursorPageReadsItsCursorSnapshot(t *testing.T) {
	e, err := xks.LoadString("<lib>" + strings.Repeat("<b><x><t>xml</t><u>search</u></x></b>", 3) + "</lib>")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	req := xks.Request{Query: "xml search", Rank: true, Limit: 1}
	first, err := e.Search(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	next := req
	next.Cursor = first.Cursor
	want, err := e.Search(ctx, next)
	if err != nil {
		t.Fatal(err)
	}

	be := &appendingBackend{SingleDoc: service.SingleDoc{Name: "lib", Engine: e}}
	sv := service.New(be, service.Config{CacheSize: 16})
	page1, _, err := sv.Search(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if page1.Fragments[0].Root != first.Fragments[0].Root || page1.Cursor != first.Cursor {
		t.Fatalf("page 1 = %s (cursor %q), want %s (cursor %q)",
			page1.Fragments[0].Root, page1.Cursor, first.Fragments[0].Root, first.Cursor)
	}
	be.armed = true
	page2, _, err := sv.Search(ctx, next)
	if err != nil {
		t.Fatal(err)
	}
	if len(page2.Fragments) != 1 {
		t.Fatalf("cursor page has %d fragments, want 1", len(page2.Fragments))
	}
	if got := page2.Fragments[0].Root; got != want.Fragments[0].Root {
		t.Fatalf("cursor page = %s, want the engine's %s", got, want.Fragments[0].Root)
	}
}

// TestTruncatedResultsNotCached: a partial (truncated) page is neither served
// from the cache as if it were the full answer nor kept there — also not a
// bounded page the deadline cut mid-materialization after some fragments,
// which an identical retry recomputes from the start.
func TestTruncatedResultsNotCached(t *testing.T) {
	for _, req := range []xks.Request{
		{Query: "liu keyword", Budget: xks.BestEffort},
		{Query: "name", Limit: 10, Budget: xks.BestEffort},
	} {
		sv := service.New(truncatingSearcher(testCorpus(t)), service.Config{CacheSize: 16})
		for i := 0; i < 3; i++ {
			res, cached, err := sv.Search(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Truncated || len(res.Fragments) == 0 {
				t.Fatalf("%q: searcher stub should truncate a non-empty page; %d fragments", req.Query, len(res.Fragments))
			}
			if cached {
				t.Fatalf("%q: request %d served a truncated page from the cache", req.Query, i)
			}
		}
		if n := sv.CacheLen(); n != 0 {
			t.Errorf("%q: CacheLen = %d, want 0 — truncated pages must not be cached", req.Query, n)
		}
	}
}

// partialCorpus builds a ten-copy corpus (one matching fragment each for
// the workload query): an injected deadline exhaustion on the fifth
// fragment's materialization leaves a four-fragment partial page.
func partialCorpus(t *testing.T) *xks.Corpus {
	t.Helper()
	c := xks.NewCorpus()
	for _, n := range []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"} {
		c.Add(n, xks.FromTree(paperdata.Publications()))
	}
	return c
}

// TestPartialPageResumeServesStream: a page the deadline cut
// mid-materialization is served and not kept, so a retry sent as a stream
// runs the pipeline from the page's start and yields the whole page live
// under an untruncated trailer, and still leaves the cache empty.
func TestPartialPageResumeServesStream(t *testing.T) {
	const limit = 8
	sv := service.New(partialCorpus(t), service.Config{CacheSize: 32})
	req := xks.Request{Query: paperdata.Q1, Rank: true, Limit: limit, Budget: xks.BestEffort}

	plan := fault.NewPlan(fault.Rule{
		Point:  fault.PointMaterialize,
		After:  4,
		Count:  1,
		Action: fault.Action{UntilDeadline: true},
	})
	ctx, cancel := context.WithTimeout(fault.NewContext(context.Background(), plan), 200*time.Millisecond)
	defer cancel()
	part, cached, err := sv.Search(ctx, req)
	if err != nil || cached {
		t.Fatalf("truncated search: cached=%t err=%v", cached, err)
	}
	if !part.Truncated || part.Truncation != xks.TruncMaterialize {
		t.Fatalf("truncation = (%v, %q), want (true, %q)", part.Truncated, part.Truncation, xks.TruncMaterialize)
	}
	if n := len(part.Fragments); n == 0 || n >= limit {
		t.Fatalf("partial page has %d fragments, want a non-empty strict prefix of %d", n, limit)
	}
	if n := sv.CacheLen(); n != 0 {
		t.Fatalf("CacheLen = %d after the truncated page, want 0", n)
	}

	seq, trailer := sv.Stream(context.Background(), req)
	n := 0
	for f, err := range seq {
		if err != nil {
			t.Fatal(err)
		}
		if f.Fragment == nil {
			t.Fatal("stream yielded a nil fragment")
		}
		n++
	}
	if n != limit {
		t.Fatalf("stream yielded %d fragments, want the full page of %d", n, limit)
	}
	if tr := trailer(); tr.Truncated {
		t.Fatalf("stream trailer still truncated (%q)", tr.Truncation)
	}
	if n := sv.CacheLen(); n != 0 {
		t.Fatalf("CacheLen = %d after the stream, want 0", n)
	}
}

// TestSalvagedPageNotCachedAsPartial: a candidate-stage salvage page
// (TruncCandidates) covers only the documents that finished, so it is not
// kept — the retry runs the full pipeline and is not a hit.
func TestSalvagedPageNotCachedAsPartial(t *testing.T) {
	sv := service.New(partialCorpus(t), service.Config{CacheSize: 32})
	req := xks.Request{Query: paperdata.Q1, Rank: true, Limit: 6, Budget: xks.BestEffort}

	plan := fault.NewPlan(fault.Rule{
		Point:  fault.PointCandidates,
		Label:  "j",
		Action: fault.Action{UntilDeadline: true},
	})
	ctx, cancel := context.WithTimeout(fault.NewContext(context.Background(), plan), 150*time.Millisecond)
	defer cancel()
	part, _, err := sv.Search(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !part.Truncated || part.Truncation != xks.TruncCandidates {
		t.Fatalf("truncation = (%v, %q), want (true, %q)", part.Truncated, part.Truncation, xks.TruncCandidates)
	}
	if n := sv.CacheLen(); n != 0 {
		t.Fatalf("CacheLen = %d after the salvaged page, want 0: salvage pages are not kept", n)
	}

	full, cached, err := sv.Search(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("retry of a salvaged page must not hit any cache")
	}
	if full.Truncated {
		t.Fatalf("fault-free retry still truncated (%q)", full.Truncation)
	}
	if len(full.Fragments) != 6 {
		t.Fatalf("retry page has %d fragments, want 6", len(full.Fragments))
	}
}

// truncateOnceSearcher truncates its first execution (after a delay long
// enough for joiners to pile up) and answers fully from then on.
type truncateOnceSearcher struct {
	service.Buffered
	calls atomic.Int64
}

func newTruncateOnceSearcher(inner service.Backend, delay time.Duration) *truncateOnceSearcher {
	ts := &truncateOnceSearcher{}
	ts.Buffered = service.Buffered{Backend: inner, Page: func(ctx context.Context, req xks.Request) (*xks.Results, error) {
		n := ts.calls.Add(1)
		r, err := inner.Search(ctx, req)
		if err != nil || n > 1 {
			return r, err
		}
		time.Sleep(delay)
		r.Truncated = true
		r.Fragments = r.Fragments[:1]
		return r, nil
	}}
	return ts
}

// TestFlightDoesNotShareTruncatedPage: a leader whose BestEffort deadline
// truncated its page must not hand that partial page to singleflight
// joiners — a Strict waiter with a generous deadline re-runs the pipeline
// and gets full results.
func TestFlightDoesNotShareTruncatedPage(t *testing.T) {
	ts := newTruncateOnceSearcher(testCorpus(t), 50*time.Millisecond)
	sv := service.New(ts, service.Config{}) // cache off: the flight is the only sharing path

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		res, _, err := sv.Search(context.Background(), xks.Request{Query: "liu keyword", Budget: xks.BestEffort})
		if err != nil {
			t.Error(err)
		} else if !res.Truncated {
			t.Error("leader should have been truncated")
		}
	}()
	time.Sleep(10 * time.Millisecond) // let the truncating leader take off

	res, _, err := sv.Search(context.Background(), xks.Request{Query: "liu keyword"})
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated || len(res.Fragments) != 2 {
		t.Fatalf("strict joiner got truncated=%t with %d fragments; must re-execute for the full page",
			res.Truncated, len(res.Fragments))
	}
	if got := ts.calls.Load(); got != 2 {
		t.Errorf("underlying executions = %d, want 2 (truncated page not shared)", got)
	}
}

// resumesAt is the Offset a cursor resumes req at against the service's
// current generation.
func resumesAt(t *testing.T, sv *service.Service, req xks.Request, tok xks.Cursor) int {
	t.Helper()
	req.Cursor = tok
	r, err := req.ResolveCursor(sv.Generation())
	if err != nil || tok == "" {
		t.Fatalf("cursor %q does not resume: %v", tok, err)
	}
	return r.Offset
}

// TestStreamServesCachesAndReplays covers how Service.Stream serves against
// the cache: a stream runs the backend's stream live — a drained bounded one
// caches nothing and moves neither cache counter, and one sent after a
// buffered hit replays nothing but runs the pipeline — an abandoned one
// leaves a trailer that resumes after what it yielded, and errors surface
// through the iterator.
func TestStreamServesCachesAndReplays(t *testing.T) {
	sv := service.New(testCorpus(t), service.Config{CacheSize: 16})
	req := xks.Request{Query: "name", Rank: true, Limit: 10}
	plans := func() float64 { return service.Sample(t, sv, `xks_stage_duration_seconds_count{stage="plan"}`) }
	drain := func(req xks.Request) ([]xks.CorpusFragment, *xks.Results) {
		t.Helper()
		var frags []xks.CorpusFragment
		seq, trailer := sv.Stream(context.Background(), req)
		for f, err := range seq {
			if err != nil {
				t.Fatal(err)
			}
			frags = append(frags, f)
		}
		return frags, trailer()
	}

	cold, ct := drain(req)
	if len(cold) == 0 {
		t.Fatal("stream yielded nothing")
	}
	if ct.Stats.NumLCAs != len(cold) || ct.Cursor != "" {
		t.Fatalf("trailer: stats %+v cursor %q for a drained %d-fragment stream", ct.Stats, ct.Cursor, len(cold))
	}
	s := service.Samples(t, sv)
	if sv.CacheLen() != 0 || s["xks_cache_hits_total"] != 0 || s["xks_cache_misses_total"] != 0 {
		t.Fatalf("a drained stream: CacheLen = %d, hits %v, misses %v; want 0, 0, 0",
			sv.CacheLen(), s["xks_cache_hits_total"], s["xks_cache_misses_total"])
	}

	// The buffered page is a miss, then a hit; a stream after the hit still
	// runs the pipeline, and yields the page's fragments.
	for i, want := range []bool{false, true} {
		if _, cached, err := sv.Search(context.Background(), req); err != nil || cached != want {
			t.Fatalf("buffered request %d: cached=%t err=%v, want cached=%t", i, cached, err, want)
		}
	}
	before := plans()
	warm, _ := drain(req)
	if plans() != before+1 {
		t.Fatalf("plan stage count %v -> %v across a stream after a hit; want one more execution", before, plans())
	}
	if len(warm) != len(cold) {
		t.Fatalf("second stream yielded %d fragments, want %d", len(warm), len(cold))
	}
	for i := range warm {
		if warm[i].Root != cold[i].Root {
			t.Fatalf("fragment %d: %s vs %s", i, warm[i].Root, cold[i].Root)
		}
	}

	// An abandoned stream's trailer stays resumable from after the one
	// fragment consumed.
	other := xks.Request{Query: "liu keyword", Limit: 10}
	seq, trailer := sv.Stream(context.Background(), other)
	for _, err := range seq {
		if err != nil {
			t.Fatal(err)
		}
		break
	}
	if tr := trailer(); resumesAt(t, sv, other, tr.Cursor) != 1 {
		t.Fatalf("abandoned trailer: Cursor=%q, want resumable at 1", tr.Cursor)
	}

	// Errors surface through the iterator (and count in metrics).
	seq, _ = sv.Stream(context.Background(), xks.Request{Query: "the of"})
	var got error
	for _, err := range seq {
		got = err
	}
	if !errors.Is(got, xks.ErrEmptyQuery) {
		t.Fatalf("unsearchable stream: err = %v, want ErrEmptyQuery", got)
	}

	s = service.Samples(t, sv)
	if s["xks_streamed_requests_total"] != 4 {
		t.Errorf("streamed = %v, want 4", s["xks_streamed_requests_total"])
	}
	if s["xks_request_errors_total"] != 1 {
		t.Errorf("errors = %v, want 1", s["xks_request_errors_total"])
	}
	if s["xks_cache_hits_total"] != 1 || s["xks_cache_misses_total"] != 1 || sv.CacheLen() != 1 {
		t.Errorf("hits %v, misses %v, CacheLen %d; want the buffered pair's 1, 1, 1",
			s["xks_cache_hits_total"], s["xks_cache_misses_total"], sv.CacheLen())
	}
}

func ExampleService_Search() {
	engine, _ := xks.LoadString(`<bib><paper><title>xml keyword search</title></paper></bib>`)
	sv := service.New(service.SingleDoc{Name: "bib.xml", Engine: engine}, service.Config{CacheSize: 128})
	res, cached, _ := sv.Search(context.Background(), xks.Request{Query: "keyword search"})
	fmt.Println(len(res.Fragments), cached)
	_, cached, _ = sv.Search(context.Background(), xks.Request{Query: "keyword search"})
	fmt.Println(cached)
	// Output:
	// 1 false
	// true
}

// TestAppendDoesNotEvictOtherDocuments pins the narrowed invalidation the
// snapshot-vector generation buys: doc-filtered cache entries are tagged
// with that document's own version, so appending to one document must not
// evict another document's cached pages or kill its cursors. Only the
// appended document's entries (and corpus-wide merges, which really did
// change) turn over.
func TestAppendDoesNotEvictOtherDocuments(t *testing.T) {
	a, err := xks.LoadString(`<bib><paper><title>alpha search</title></paper></bib>`)
	if err != nil {
		t.Fatal(err)
	}
	c := xks.NewCorpus()
	c.Add("a.xml", a)
	c.Add("b.xml", xks.FromTree(paperdata.Publications()))
	sv := service.New(c, service.Config{CacheSize: 64})

	reqA := xks.Request{Query: "search", Document: "a.xml"}
	reqB := xks.Request{Query: "liu keyword", Document: "b.xml"}
	reqAll := xks.Request{Query: "name"}
	for _, req := range []xks.Request{reqA, reqB, reqAll} {
		if _, cached, err := sv.Search(context.Background(), req); err != nil || cached {
			t.Fatalf("warm-up %+v: cached=%t err=%v", req, cached, err)
		}
		if _, cached, err := sv.Search(context.Background(), req); err != nil || !cached {
			t.Fatalf("warm-up hit %+v: cached=%t err=%v", req, cached, err)
		}
	}
	// A live cursor over document B, issued before the append.
	pageB, _, err := sv.Search(context.Background(), xks.Request{Query: "liu keyword", Document: "b.xml", Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if pageB.Cursor == "" {
		t.Fatal("doc-B page 1 issued no cursor")
	}

	if err := sv.Append("a.xml", "0", `<paper><title>fresh search paper</title></paper>`); err != nil {
		t.Fatal(err)
	}

	// Document B's entry survives the unrelated append...
	if _, cached, err := sv.Search(context.Background(), reqB); err != nil || !cached {
		t.Errorf("append to a.xml evicted b.xml's cache entry (cached=%t err=%v)", cached, err)
	}
	// ...and so does its cursor — no 410 for a document that never changed.
	resumed, _, err := sv.Search(context.Background(), xks.Request{Query: "liu keyword", Document: "b.xml", Limit: 1, Cursor: pageB.Cursor})
	if err != nil {
		t.Fatalf("doc-B cursor after unrelated append: %v", err)
	}
	for _, f := range resumed.Fragments {
		if f.Document != "b.xml" {
			t.Errorf("resumed fragment from %s", f.Document)
		}
	}

	// The appended document's own entry turned over and now sees the write.
	resA, cached, err := sv.Search(context.Background(), reqA)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Error("append must invalidate the appended document's entry")
	}
	if len(resA.Fragments) < 2 {
		t.Errorf("a.xml fragments = %d, want the appended paper visible", len(resA.Fragments))
	}
	// Corpus-wide merges span the appended document, so they turn over too.
	if _, cached, err := sv.Search(context.Background(), reqAll); err != nil || cached {
		if err != nil {
			t.Fatal(err)
		}
		t.Error("corpus-wide entry must not survive an append to a member")
	}
}
