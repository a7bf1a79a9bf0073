package xks

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"xks/internal/reference"
)

func TestRequestCanonical(t *testing.T) {
	r := Request{Query: "  Liu   KEYWORD ", Limit: -3, Offset: -1, Budget: BestEffort}
	c := r.Canonical()
	if c.Query != "liu keyword" {
		t.Errorf("Query = %q", c.Query)
	}
	if c.Limit != 0 || c.Offset != 0 || c.Budget != Strict {
		t.Errorf("Limit/Offset/Budget = %d/%d/%v, want 0/0/Strict", c.Limit, c.Offset, c.Budget)
	}
	// Canonicalization is idempotent and preserves the algorithm knobs.
	r2 := Request{Query: "a b", Algorithm: MaxMatch, Semantics: SLCAOnly, Rank: true, Limit: 4, Offset: 8}
	if got := r2.Canonical(); got != r2 {
		t.Errorf("Canonical() = %+v, want unchanged %+v", got, r2)
	}
}

// TestRequestKeyGolden pins Key and the cursor fingerprint to the values
// the service's own cache key and the cursor held before both became one
// serialization (appendIdentity): a changed byte would orphan every cached
// page or every outstanding cursor. The cases cover each order-defining
// field, a document filter, a ':' inside the query and inside the document
// name (length prefixes keep them apart), normalization, clamped negative
// windows, the fields a key leaves out (Budget, Cursor), and queries that
// miss the allocation-free canonical form.
func TestRequestKeyGolden(t *testing.T) {
	for _, c := range []struct {
		req Request
		key string
		fp  uint64
	}{
		{Request{Query: "xml keyword"}, "11:xml keyword0:0.0.false.false.0.0", 0x8828368574a684e1},
		{Request{Query: "  XML   Keyword  "}, "11:xml keyword0:0.0.false.false.0.0", 0x8828368574a684e1},
		{Request{Query: "keyword xml"}, "11:keyword xml0:0.0.false.false.0.0", 0xbf24bdd7e91d6dcd},
		{Request{Query: "xml keyword", Document: "dblp.xml"}, "11:xml keyword8:dblp.xml0.0.false.false.0.0", 0xf75d7ae2004f506},
		{Request{Query: "a:b", Document: "c"}, "3:a:b1:c0.0.false.false.0.0", 0x507a85d6ba0d1b09},
		{Request{Query: "a", Document: "b:c"}, "1:a3:b:c0.0.false.false.0.0", 0xd8cc83abe77f274d},
		{Request{Query: "xml keyword", Algorithm: MaxMatch}, "11:xml keyword0:1.0.false.false.0.0", 0x276aedb635804e22},
		{Request{Query: "xml keyword", Algorithm: RawRTF}, "11:xml keyword0:2.0.false.false.0.0", 0xe59aa4e590d1a623},
		{Request{Query: "xml keyword", Semantics: SLCAOnly}, "11:xml keyword0:0.1.false.false.0.0", 0xaea5f5a6ef625306},
		{Request{Query: "xml keyword", ExactContent: true}, "11:xml keyword0:0.0.true.false.0.0", 0xfa652d429e9e79ec},
		{Request{Query: "xml keyword", Rank: true}, "11:xml keyword0:0.0.false.true.0.0", 0x67700add8c808086},
		{Request{Query: "title:xml author:liu", Rank: true, Limit: 10, Offset: 20}, "20:title:xml author:liu0:0.0.false.true.10.20", 0x4b56d58c2778d346},
		{Request{Query: "xml keyword", Limit: -3, Offset: -1}, "11:xml keyword0:0.0.false.false.0.0", 0x8828368574a684e1},
		{Request{Query: "xml keyword", Limit: 25, Budget: BestEffort, Cursor: "AgAB"}, "11:xml keyword0:0.0.false.false.25.0", 0x8828368574a684e1},
		{Request{Query: "Liu Keyword", Document: "team", Algorithm: MaxMatch, Semantics: SLCAOnly, ExactContent: true, Rank: true, Limit: 1, Offset: 7},
			"11:liu keyword4:team1.1.true.true.1.7", 0xe29e5cff23294eaf},
		// Queries off the canonical fast path: non-ASCII case folding,
		// ASCII and Unicode white space, an edge space, the empty query
		// and a byte that is not UTF-8.
		{Request{Query: "Ünïcode  ÉTÉ"}, "15:ünïcode été0:0.0.false.false.0.0", 0x89d1f48a6171b2cb},
		{Request{Query: "xml\tkeyword\n", Document: "d"}, "11:xml keyword1:d0.0.false.false.0.0", 0x67dcbc594f15a30a},
		{Request{Query: "xml\u00a0keyword"}, "11:xml keyword0:0.0.false.false.0.0", 0x8828368574a684e1},
		{Request{Query: " xml"}, "3:xml0:0.0.false.false.0.0", 0x17f23b12c40eeadf},
		{Request{Query: ""}, "0:0:0.0.false.false.0.0", 0x1f3b885523361169},
		{Request{Query: "xml\xffkeyword", Limit: 3}, "13:xml\uFFFDkeyword0:0.0.false.false.3.0", 0x2ed5c9cf5c407e06},
	} {
		if got := c.req.Key(); got != c.key {
			t.Errorf("%+v: Key() = %q, want %q", c.req, got, c.key)
		}
		if got := c.req.fingerprint(); got != c.fp {
			t.Errorf("%+v: fingerprint() = %#x, want %#x", c.req, got, c.fp)
		}
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

// TestCorpusPagination does the same walk over the corpus, where ranked
// pages are selected across the documents' windows.
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

// TestHugePaginationWindowIsSafe is the regression test for window-sized
// preallocation: a request paging absurdly far past the result set — up to
// an Offset+Limit that overflows int — must return an empty page cheaply,
// not preallocate a window-sized array or panic.
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
	c.Add("pubs", FromTree(reference.Publications()))
	c.Add("team", FromTree(reference.Team()))

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
