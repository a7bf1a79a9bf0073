package xks

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"xks/internal/paperdata"
)

func TestRequestCanonical(t *testing.T) {
	r := Request{Query: "  Liu   KEYWORD ", Limit: -3, Offset: -1, Timeout: time.Second}
	c := r.Canonical()
	if c.Query != "liu keyword" {
		t.Errorf("Query = %q", c.Query)
	}
	if c.Limit != 0 || c.Offset != 0 || c.Timeout != 0 {
		t.Errorf("Limit/Offset/Timeout = %d/%d/%v, want zeros", c.Limit, c.Offset, c.Timeout)
	}
	// Canonicalization is idempotent and preserves the algorithm knobs.
	r2 := Request{Query: "a b", Algorithm: MaxMatch, Semantics: SLCAOnly, Rank: true, Limit: 4, Offset: 8}
	if got := r2.Canonical(); got != r2 {
		t.Errorf("Canonical() = %+v, want unchanged %+v", got, r2)
	}
}

func TestNewRequestMapsOptions(t *testing.T) {
	opts := Options{Algorithm: MaxMatch, Semantics: SLCAOnly, ExactContent: true, Rank: true, Limit: 7}
	req := NewRequest("q", opts)
	want := Request{Query: "q", Algorithm: MaxMatch, Semantics: SLCAOnly, ExactContent: true, Rank: true, Limit: 7}
	if req != want {
		t.Errorf("NewRequest = %+v, want %+v", req, want)
	}
}

// nextOffset is the position a page's cursor resumes at, -1 when the page
// issued none (the result set is exhausted).
func nextOffset(t testing.TB, c Cursor) int {
	t.Helper()
	if c == "" {
		return -1
	}
	st, err := c.decode()
	if err != nil {
		t.Fatalf("cursor %q: %v", c, err)
	}
	return st.offset
}

// TestEnginePagination walks a multi-fragment result page by page, each
// page at the raw Offset the previous page's cursor resumes at, and asserts
// the concatenation equals the unpaged result.
func TestEnginePagination(t *testing.T) {
	e, queries := figure5Engine(t)
	q := richestQuery(t, e, queries)
	for _, rank := range []bool{false, true} {
		full, err := e.Search(context.Background(), Request{Query: q, Rank: rank})
		if err != nil {
			t.Fatal(err)
		}
		if len(full.Fragments) < 3 {
			t.Skipf("query %q yields %d fragments; need a few pages", q, len(full.Fragments))
		}
		if full.Cursor != "" {
			t.Fatalf("unpaged search: Cursor = %q, want none", full.Cursor)
		}

		var pages []*Fragment
		req := Request{Query: q, Rank: rank, Limit: 2}
		for {
			res, err := e.Search(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			pages = append(pages, res.Fragments...)
			next := nextOffset(t, res.Cursor)
			if next < 0 {
				break
			}
			if next != req.Offset+len(res.Fragments) {
				t.Fatalf("cursor resumes at %d after offset %d + %d fragments", next, req.Offset, len(res.Fragments))
			}
			req.Offset = next
		}
		if len(pages) != len(full.Fragments) {
			t.Fatalf("rank=%v: paged walk yielded %d fragments, full search %d", rank, len(pages), len(full.Fragments))
		}
		for i := range pages {
			if pages[i].Root != full.Fragments[i].Root || pages[i].Score != full.Fragments[i].Score {
				t.Fatalf("rank=%v fragment %d: page %s/%v vs full %s/%v",
					rank, i, pages[i].Root, pages[i].Score, full.Fragments[i].Root, full.Fragments[i].Score)
			}
		}

		// An offset past the end is an empty page, not an error.
		res, err := e.Search(context.Background(), Request{Query: q, Rank: rank, Offset: len(full.Fragments) + 5})
		if err != nil || len(res.Fragments) != 0 || res.Cursor != "" {
			t.Fatalf("past-the-end page: %d fragments, Cursor %q, err %v", len(res.Fragments), res.Cursor, err)
		}
	}
}

// TestCorpusPagination does the same walk over the streamed corpus merge,
// where ranked pages come out of the bounded top-K heap.
func TestCorpusPagination(t *testing.T) {
	c, q := corpusForCancel(t)
	for _, rank := range []bool{false, true} {
		full, err := c.Search(context.Background(), Request{Query: q, Rank: rank})
		if err != nil {
			t.Fatal(err)
		}
		if len(full.Fragments) < 4 {
			t.Skipf("query %q yields %d fragments; need a few pages", q, len(full.Fragments))
		}

		var pages []CorpusFragment
		req := Request{Query: q, Rank: rank, Limit: 3}
		for {
			res, err := c.Search(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			pages = append(pages, res.Fragments...)
			next := nextOffset(t, res.Cursor)
			if next < 0 {
				break
			}
			req.Offset = next
		}
		if len(pages) != len(full.Fragments) {
			t.Fatalf("rank=%v: paged walk yielded %d fragments, full search %d", rank, len(pages), len(full.Fragments))
		}
		for i := range pages {
			if pages[i].Document != full.Fragments[i].Document || pages[i].Root != full.Fragments[i].Root {
				t.Fatalf("rank=%v fragment %d: page %s/%s vs full %s/%s", rank, i,
					pages[i].Document, pages[i].Root, full.Fragments[i].Document, full.Fragments[i].Root)
			}
		}
	}
}

// TestNegativePagingClampedAtExecution: a raw negative Offset/Limit must
// execute exactly like its canonicalized (clamped) form — caching layers
// key on the canonical request, so a divergent execution would poison the
// cache entry legitimate requests share.
func TestNegativePagingClampedAtExecution(t *testing.T) {
	c, q := corpusForCancel(t)
	want, err := c.Search(context.Background(), Request{Query: q, Rank: true, Limit: 10})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Search(context.Background(), Request{Query: q, Rank: true, Limit: 10, Offset: -5})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Fragments) != len(want.Fragments) || got.Cursor != want.Cursor {
		t.Fatalf("negative offset: %d fragments / Cursor %q, want %d / %q",
			len(got.Fragments), got.Cursor, len(want.Fragments), want.Cursor)
	}
	for i := range got.Fragments {
		if got.Fragments[i].Root != want.Fragments[i].Root {
			t.Fatalf("fragment %d: %s vs %s", i, got.Fragments[i].Root, want.Fragments[i].Root)
		}
	}
	// Negative Limit means unlimited, same as the canonical zero.
	e := c.Engine(c.Names()[0])
	full, err := e.Search(context.Background(), Request{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	neg, err := e.Search(context.Background(), Request{Query: q, Limit: -1, Offset: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(neg.Fragments) != len(full.Fragments) {
		t.Fatalf("negative limit: %d fragments, want %d", len(neg.Fragments), len(full.Fragments))
	}
}

// TestHugePaginationWindowIsSafe is the regression test for the top-K
// preallocation: a request paging absurdly far past the result set — up to
// an Offset+Limit that overflows int — must return an empty page cheaply,
// not preallocate a window-sized heap or panic.
func TestHugePaginationWindowIsSafe(t *testing.T) {
	c, q := corpusForCancel(t)
	for _, off := range []int{1 << 30, int(^uint(0) >> 1)} { // 1Gi, MaxInt
		res, err := c.Search(context.Background(), Request{Query: q, Rank: true, Limit: 10, Offset: off})
		if err != nil {
			t.Fatalf("offset %d: %v", off, err)
		}
		if len(res.Fragments) != 0 || res.Cursor != "" {
			t.Fatalf("offset %d: %d fragments, Cursor %q", off, len(res.Fragments), res.Cursor)
		}
	}
}

// TestCorpusSearchDocumentFilter pins Request.Document routing: a corpus
// search with the filter set equals the named document's own engine search,
// and an unknown name fails with ErrUnknownDocument.
func TestCorpusSearchDocumentFilter(t *testing.T) {
	c := NewCorpus()
	c.Add("pubs", FromTree(paperdata.Publications()))
	c.Add("team", FromTree(paperdata.Team()))

	via, err := c.Search(context.Background(), Request{Query: "liu keyword", Document: "pubs"})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := c.Engine("pubs").Search(context.Background(), Request{Query: "liu keyword"})
	if err != nil {
		t.Fatal(err)
	}
	if want := map[string]int{"pubs": direct.Stats.NumLCAs}; !reflect.DeepEqual(via.PerDocument, want) || len(via.Fragments) != len(direct.Fragments) {
		t.Fatalf("filtered Search %+v vs the engine's %+v", via.PerDocument, want)
	}
	for i, f := range via.Fragments {
		if f.Document != "pubs" || f.Root != direct.Fragments[i].Root {
			t.Fatalf("fragment %d: %s/%s vs the engine's %s", i, f.Document, f.Root, direct.Fragments[i].Root)
		}
	}
	if _, err := c.Search(context.Background(), Request{Query: "liu", Document: "absent"}); !errors.Is(err, ErrUnknownDocument) {
		t.Fatalf("unknown document filter: err = %v", err)
	}
}

// TestFragmentsStreams pins the streaming iterator: it yields the same
// fragments as Search in the same order, and breaking early materializes
// only the consumed prefix.
func TestFragmentsStreams(t *testing.T) {
	e, queries := figure5Engine(t)
	q := richestQuery(t, e, queries)
	full, err := e.Search(context.Background(), Request{Query: q, Rank: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Fragments) < 3 {
		t.Skipf("query %q yields %d fragments; need a few to stream", q, len(full.Fragments))
	}

	var streamed []*Fragment
	all, _ := e.Stream(context.Background(), Request{Query: q, Rank: true})
	for f, err := range all {
		if err != nil {
			t.Fatal(err)
		}
		streamed = append(streamed, f)
	}
	if len(streamed) != len(full.Fragments) {
		t.Fatalf("streamed %d fragments, Search returned %d", len(streamed), len(full.Fragments))
	}
	for i := range streamed {
		if streamed[i].Root != full.Fragments[i].Root || streamed[i].Score != full.Fragments[i].Score {
			t.Fatalf("fragment %d: streamed %s/%v vs %s/%v", i,
				streamed[i].Root, streamed[i].Score, full.Fragments[i].Root, full.Fragments[i].Score)
		}
	}

	// Early break: exactly the consumed fragments are assembled.
	before := e.assembledFragments()
	n := 0
	prefix, _ := e.Stream(context.Background(), Request{Query: q, Rank: true})
	for _, err := range prefix {
		if err != nil {
			t.Fatal(err)
		}
		if n++; n == 2 {
			break
		}
	}
	if assembled := e.assembledFragments() - before; assembled != 2 {
		t.Fatalf("early break assembled %d fragments, want 2", assembled)
	}

	// A cancelled context surfaces as a yielded error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var got error
	cancelled, _ := e.Stream(ctx, Request{Query: q})
	for _, err := range cancelled {
		got = err
		break
	}
	if !errors.Is(got, context.Canceled) {
		t.Fatalf("cancelled iterator yielded err = %v", got)
	}

	// An unsearchable query yields its error.
	got = nil
	unsearchable, _ := e.Stream(context.Background(), Request{Query: "the of"})
	for _, err := range unsearchable {
		got = err
	}
	if !errors.Is(got, ErrEmptyQuery) {
		t.Fatalf("unsearchable query yielded err = %v, want ErrEmptyQuery", got)
	}
}
