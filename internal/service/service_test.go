package service_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xks"
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
	s := sv.Metrics().Snapshot()
	if s.CacheHits != 2 || s.CacheMisses != 2 {
		t.Errorf("hits=%d misses=%d, want 2/2", s.CacheHits, s.CacheMisses)
	}
	if s.Requests != 4 || s.Errors != 0 {
		t.Errorf("requests=%d errors=%d", s.Requests, s.Errors)
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
	if s := sv.Metrics().Snapshot(); s.Errors != 1 {
		t.Errorf("errors = %d, want 1", s.Errors)
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
	cs.Buffered = service.Buffered{Backend: inner, Search: func(ctx context.Context, req xks.Request) (*xks.Results, error) {
		cs.execs.Add(1)
		time.Sleep(delay)
		return service.Drain(ctx, inner, req)
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
	s := sv.Metrics().Snapshot()
	if s.Collapsed < herd-3 {
		t.Errorf("collapsed = %d, want >= %d", s.Collapsed, herd-3)
	}
	if s.Requests != herd {
		t.Errorf("requests = %d", s.Requests)
	}
}

// TestConcurrentHammer drives the cache + singleflight + metrics from many
// goroutines under -race.
func TestConcurrentHammer(t *testing.T) {
	c := testCorpus(t)
	sv := service.New(c, service.Config{CacheSize: 32, CacheShards: 4})
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
					sv.Metrics().Snapshot()
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

	s := sv.Metrics().Snapshot()
	if s.Requests != 16*50 {
		t.Errorf("requests = %d, want %d", s.Requests, 16*50)
	}
	if s.Errors != 0 {
		t.Errorf("errors = %d", s.Errors)
	}
	if s.CacheHits == 0 {
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
	s := sv.Metrics().Snapshot()
	if s.CacheHits != 0 || s.CacheMisses != 0 {
		t.Errorf("disabled cache counted hits/misses: %+v", s)
	}
}

func TestCacheEvictionUnderPressure(t *testing.T) {
	sv := service.New(testCorpus(t), service.Config{CacheSize: 4, CacheShards: 1})
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
// serves the same page 2 — while a non-tail append (a renumbering rebuild)
// kills it with ErrStaleCursor; a cursor replayed under a different query
// fails with ErrCursorMismatch. Failures are counted as request errors.
func TestCursorScrollStalenessAndMismatch(t *testing.T) {
	e, err := xks.LoadString(`<bib><paper><title>xml search</title></paper><paper><title>search trees</title></paper><paper><title>search engines</title></paper></bib>`)
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

	// A non-tail append renumbers the whole document: the pinned snapshot
	// is gone and the old cursor is 410 material, deterministically.
	if err := e.AppendXML("0.0", `<note>search aside</note>`); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sv.Search(context.Background(), xks.Request{Query: "search", Limit: 1, Cursor: page1.Cursor}); !errors.Is(err, xks.ErrStaleCursor) {
		t.Fatalf("post-rebuild cursor: err = %v, want ErrStaleCursor", err)
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
	if s := sv.Metrics().Snapshot(); s.Errors != 2 {
		t.Errorf("errors = %d, want 2 (one mismatch, one stale)", s.Errors)
	}
}

// truncatingSearcher marks every result truncated, standing in for a
// pipeline whose best-effort deadline always expires mid-page.
func truncatingSearcher(inner service.Backend) service.Backend {
	return service.Buffered{Backend: inner, Search: func(ctx context.Context, req xks.Request) (*xks.Results, error) {
		r, err := service.Drain(ctx, inner, req)
		if err != nil {
			return nil, err
		}
		r.Truncated = true
		return r, nil
	}}
}

// TestTruncatedResultsNotCached: a partial (truncated) page must never be
// served from the cache as if it were the full answer.
func TestTruncatedResultsNotCached(t *testing.T) {
	sv := service.New(truncatingSearcher(testCorpus(t)), service.Config{CacheSize: 16})
	for i := 0; i < 3; i++ {
		res, cached, err := sv.Search(context.Background(), xks.Request{Query: "liu keyword", Budget: xks.BestEffort})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Truncated {
			t.Fatal("searcher stub should truncate")
		}
		if cached {
			t.Fatalf("request %d served a truncated page from the cache", i)
		}
	}
	if n := sv.CacheLen(); n != 0 {
		t.Errorf("CacheLen = %d, want 0 — truncated pages must not be cached", n)
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
	ts.Buffered = service.Buffered{Backend: inner, Search: func(ctx context.Context, req xks.Request) (*xks.Results, error) {
		n := ts.calls.Add(1)
		r, err := service.Drain(ctx, inner, req)
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

// TestStreamServesCachesAndReplays covers Service.Stream: a cold stream
// drives the pipeline lazily and caches its fully-drained page, a warm one
// replays the cached page, an abandoned one caches nothing, and the
// trailer always carries the envelope.
func TestStreamServesCachesAndReplays(t *testing.T) {
	sv := service.New(testCorpus(t), service.Config{CacheSize: 16})
	// Bounded page: only Limit > 0 streams are collected for caching (an
	// unbounded scroll must not pin its whole result set server-side).
	req := xks.Request{Query: "name", Rank: true, Limit: 10}

	// Cold: live stream, page cached at drain.
	var cold []xks.CorpusFragment
	seq, trailer := sv.Stream(context.Background(), req)
	for f, err := range seq {
		if err != nil {
			t.Fatal(err)
		}
		cold = append(cold, f.CorpusFragment)
	}
	if len(cold) == 0 {
		t.Fatal("stream yielded nothing")
	}
	ct := trailer()
	if ct.Stats.NumLCAs != len(cold) || ct.Cursor != "" {
		t.Fatalf("trailer: stats %+v cursor %q for a drained %d-fragment stream", ct.Stats, ct.Cursor, len(cold))
	}
	if sv.CacheLen() != 1 {
		t.Fatalf("CacheLen = %d after a drained stream, want 1", sv.CacheLen())
	}

	// The buffered path hits the stream-populated entry, and vice versa.
	if _, cached, err := sv.Search(context.Background(), req); err != nil || !cached {
		t.Fatalf("buffered after stream: cached=%t err=%v", cached, err)
	}
	var warm []xks.CorpusFragment
	seq, _ = sv.Stream(context.Background(), req)
	for f, err := range seq {
		if err != nil {
			t.Fatal(err)
		}
		warm = append(warm, f.CorpusFragment)
	}
	if len(warm) != len(cold) {
		t.Fatalf("replayed %d fragments, want %d", len(warm), len(cold))
	}
	for i := range warm {
		if warm[i].Root != cold[i].Root {
			t.Fatalf("fragment %d: replay %s vs live %s", i, warm[i].Root, cold[i].Root)
		}
	}

	// An abandoned stream caches nothing (its page is incomplete), and the
	// trailer stays resumable from after the one fragment consumed.
	other := xks.Request{Query: "liu keyword", Limit: 10}
	seq, trailer = sv.Stream(context.Background(), other)
	for _, err := range seq {
		if err != nil {
			t.Fatal(err)
		}
		break
	}
	if sv.CacheLen() != 1 {
		t.Fatalf("CacheLen = %d after an abandoned stream, want still 1", sv.CacheLen())
	}
	if tr := trailer(); resumesAt(t, sv, other, tr.Cursor) != 1 {
		t.Fatalf("abandoned trailer: Cursor=%q, want resumable at 1", tr.Cursor)
	}

	// Replaying the cached page to a consumer that breaks early re-points
	// the trailer cursor after the last yielded fragment — never past the
	// fragments it never received.
	p1req := xks.Request{Query: "name", Rank: true, Limit: 2}
	if _, _, err := sv.Search(context.Background(), p1req); err != nil { // prime the cache
		t.Fatal(err)
	}
	seq, trailer = sv.Stream(context.Background(), p1req)
	for _, err := range seq {
		if err != nil {
			t.Fatal(err)
		}
		break // take 1 of the cached page of 2
	}
	if tr := trailer(); resumesAt(t, sv, p1req, tr.Cursor) != 1 {
		t.Fatalf("replayed early break: Cursor=%q, want re-pointed to 1", tr.Cursor)
	}
	// Resuming from that cursor yields the fragment the break skipped.
	res2, _, err := sv.Search(context.Background(), xks.Request{Query: "name", Rank: true, Limit: 2, Cursor: trailer().Cursor})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Fragments) == 0 {
		t.Fatal("resume from re-pointed cursor yielded nothing")
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

	s := sv.Metrics().Snapshot()
	if s.Streamed != 5 {
		t.Errorf("streamed = %d, want 5", s.Streamed)
	}
	if s.Errors != 1 {
		t.Errorf("errors = %d, want 1", s.Errors)
	}
	if s.CacheHits < 2 {
		t.Errorf("cache hits = %d, want >= 2 (one buffered, one replay)", s.CacheHits)
	}
}

// TestStreamJoinsInflightBufferedQuery: a stream arriving while an
// identical buffered query is mid-flight joins it (singleflight) and
// replays its page instead of running the pipeline twice.
func TestStreamJoinsInflightBufferedQuery(t *testing.T) {
	cs := newCountingSearcher(testCorpus(t), 50*time.Millisecond)
	sv := service.New(cs, service.Config{}) // cache off: only the flight can collapse

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, _, err := sv.Search(context.Background(), xks.Request{Query: "liu keyword"}); err != nil {
			t.Error(err)
		}
	}()
	time.Sleep(10 * time.Millisecond) // let the buffered leader take off

	n := 0
	seq, _ := sv.Stream(context.Background(), xks.Request{Query: "liu keyword"})
	for _, err := range seq {
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	wg.Wait()
	if n == 0 {
		t.Fatal("joined stream yielded nothing")
	}
	if got := cs.execs.Load(); got != 1 {
		t.Errorf("underlying executions = %d, want 1 (stream joined the in-flight leader)", got)
	}
	if s := sv.Metrics().Snapshot(); s.Collapsed != 1 {
		t.Errorf("collapsed = %d, want 1", s.Collapsed)
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
