package xks

// Tests for the opaque generation-aware cursor: token round-trips,
// validation failures (malformed / mismatched / stale), precedence over a
// raw Offset, and full cursor walks matching offset walks.

import (
	"context"
	"errors"
	"testing"

	"xks/internal/paperdata"
)

func TestCursorRoundTrip(t *testing.T) {
	want := cursorState{gen: 42, offset: 17, doc: 3, seq: 9, fp: 0xdeadbeefcafe}
	got, err := encodeCursor(want).decode()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("round trip: got %+v, want %+v", got, want)
	}
	// Extremes survive.
	want = cursorState{gen: ^uint64(0), offset: maxInt, doc: 0, seq: maxInt, fp: 0}
	if got, err = encodeCursor(want).decode(); err != nil || got != want {
		t.Fatalf("extreme round trip: got %+v err %v, want %+v", got, err, want)
	}
}

func TestCursorDecodeRejectsGarbage(t *testing.T) {
	for _, tok := range []Cursor{"not base64!!", "", "AA", "zzzz", Cursor([]byte{0xff, 0x01})} {
		if _, err := tok.decode(); !errors.Is(err, ErrBadCursor) {
			t.Errorf("decode(%q): err = %v, want ErrBadCursor", tok, err)
		}
	}
	// A valid token with trailing bytes is rejected, not half-parsed.
	tok := encodeCursor(cursorState{gen: 1, offset: 2, fp: 3}) + "AA"
	if _, err := tok.decode(); !errors.Is(err, ErrBadCursor) {
		t.Errorf("trailing bytes: err = %v, want ErrBadCursor", err)
	}
}

func TestResolveCursorValidation(t *testing.T) {
	req := Request{Query: "xml keyword", Rank: true, Limit: 5}
	tok := encodeCursor(cursorState{gen: 7, offset: 10, fp: req.fingerprint()})

	// Empty cursor: the request passes through untouched.
	if got, err := req.ResolveCursor(7); err != nil || got != req {
		t.Fatalf("no cursor: %+v, %v", got, err)
	}

	// Matching generation and fingerprint: the offset folds in, the
	// cursor clears.
	withTok := req
	withTok.Cursor = tok
	got, err := withTok.ResolveCursor(7)
	if err != nil {
		t.Fatal(err)
	}
	if got.Offset != 10 || got.Cursor != "" {
		t.Fatalf("resolved: Offset=%d Cursor=%q, want 10 / empty", got.Offset, got.Cursor)
	}
	// The cursor wins over a raw Offset passed alongside it.
	withBoth := withTok
	withBoth.Offset = 3
	if got, err := withBoth.ResolveCursor(7); err != nil || got.Offset != 10 {
		t.Fatalf("cursor precedence: Offset=%d err=%v, want 10", got.Offset, err)
	}

	// Stale generation.
	if _, err := withTok.ResolveCursor(8); !errors.Is(err, ErrStaleCursor) {
		t.Fatalf("stale: err = %v, want ErrStaleCursor", err)
	}

	// Fingerprint mismatch: same token, different query / knobs.
	for _, other := range []Request{
		{Query: "different query", Rank: true, Limit: 5, Cursor: tok},
		{Query: "xml keyword", Rank: false, Limit: 5, Cursor: tok},
		{Query: "xml keyword", Rank: true, Semantics: SLCAOnly, Cursor: tok},
		{Query: "xml keyword", Rank: true, Document: "other.xml", Cursor: tok},
	} {
		if _, err := other.ResolveCursor(7); !errors.Is(err, ErrCursorMismatch) {
			t.Errorf("mismatch %+v: err = %v, want ErrCursorMismatch", other.Query, err)
		}
	}
	// The window and deadline are not part of the fingerprint: a client
	// may change the page size or timeout mid-scroll.
	resized := Request{Query: "  XML   Keyword ", Rank: true, Limit: 50, Timeout: 1, Budget: BestEffort, Cursor: tok}
	if _, err := resized.ResolveCursor(7); err != nil {
		t.Errorf("resized page: err = %v, want nil", err)
	}

	// Malformed token.
	bad := req
	bad.Cursor = "%%%"
	if _, err := bad.ResolveCursor(7); !errors.Is(err, ErrBadCursor) {
		t.Fatalf("malformed: err = %v, want ErrBadCursor", err)
	}
}

// TestEngineCursorWalkMatchesOffsetWalk pages one engine's result set to
// exhaustion by cursor and asserts it tiles exactly like the deprecated
// offset walk and the unpaged search.
func TestEngineCursorWalkMatchesOffsetWalk(t *testing.T) {
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
			t.Fatalf("unpaged search issued cursor %q", full.Cursor)
		}

		var pages []*Fragment
		req := Request{Query: q, Rank: rank, Limit: 2}
		for {
			res, err := e.Search(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			pages = append(pages, res.Fragments...)
			if next := nextOffset(t, res.Cursor); res.Cursor != "" && next != len(pages) {
				t.Fatalf("cursor %q resumes at %d after %d fragments", res.Cursor, next, len(pages))
			}
			if res.Cursor == "" {
				break
			}
			req.Cursor = res.Cursor
		}
		if len(pages) != len(full.Fragments) {
			t.Fatalf("rank=%v: cursor walk yielded %d fragments, full search %d", rank, len(pages), len(full.Fragments))
		}
		for i := range pages {
			if pages[i].Root != full.Fragments[i].Root {
				t.Fatalf("rank=%v fragment %d: %s vs %s", rank, i, pages[i].Root, full.Fragments[i].Root)
			}
		}
	}
}

// TestCorpusCursorWalk pages the streamed corpus merge by cursor, including
// through the document-filtered route, and pins staleness after a mutation.
func TestCorpusCursorWalk(t *testing.T) {
	c, q := corpusForCancel(t)
	full, err := c.Search(context.Background(), Request{Query: q, Rank: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Fragments) < 4 {
		t.Skipf("query %q yields %d fragments; need a few pages", q, len(full.Fragments))
	}

	var pages []CorpusFragment
	req := Request{Query: q, Rank: true, Limit: 3}
	for {
		res, err := c.Search(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		pages = append(pages, res.Fragments...)
		if res.Cursor == "" {
			break
		}
		req.Cursor = res.Cursor
	}
	if len(pages) != len(full.Fragments) {
		t.Fatalf("cursor walk yielded %d fragments, full search %d", len(pages), len(full.Fragments))
	}
	for i := range pages {
		if pages[i].Document != full.Fragments[i].Document || pages[i].Root != full.Fragments[i].Root {
			t.Fatalf("fragment %d: %s/%s vs %s/%s", i,
				pages[i].Document, pages[i].Root, full.Fragments[i].Document, full.Fragments[i].Root)
		}
	}

	// The document-filtered route issues corpus-generation cursors that
	// resume through either entrypoint.
	name := c.Names()[0]
	p1, err := c.Search(context.Background(), Request{Query: q, Document: name, Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if p1.Cursor != "" {
		if _, err := c.Search(context.Background(), Request{Query: q, Document: name, Limit: 1, Cursor: p1.Cursor}); err != nil {
			t.Fatalf("filtered cursor resume: %v", err)
		}
		seq, _ := c.Stream(context.Background(), Request{Query: q, Document: name, Limit: 1, Cursor: p1.Cursor})
		for _, err := range seq {
			if err != nil {
				t.Fatalf("filtered Stream cursor resume: %v", err)
			}
		}
	}

	// Adding a new document between pages does NOT stale the cursor: it
	// re-pins the snapshot vector it was issued against, so the scroll
	// continues over exactly the documents its first page saw — the late
	// document is invisible to it.
	page1, err := c.Search(context.Background(), Request{Query: q, Rank: true, Limit: 3})
	if err != nil {
		t.Fatal(err)
	}
	if page1.Cursor == "" {
		t.Fatal("page 1 issued no cursor")
	}
	c.Add("late.xml", FromTree(paperdata.Publications()))
	pinned, err := c.Search(context.Background(), Request{Query: q, Rank: true, Limit: 3, Cursor: page1.Cursor})
	if err != nil {
		t.Fatalf("post-Add page 2: err = %v, want snapshot-pinned resume", err)
	}
	for _, f := range pinned.Fragments {
		if f.Document == "late.xml" {
			t.Fatalf("pinned scroll surfaced the late document: %+v", f)
		}
	}
	if _, ok := pinned.PerDocument["late.xml"]; ok {
		t.Fatal("pinned scroll counted the late document")
	}

	// Replacing a document the cursor pinned destroys its snapshot: the
	// cursor dies loudly instead of silently scrolling different data.
	c.Add(c.Names()[0], FromTree(paperdata.Publications()))
	if _, err := c.Search(context.Background(), Request{Query: q, Rank: true, Limit: 3, Cursor: page1.Cursor}); !errors.Is(err, ErrStaleCursor) {
		t.Fatalf("post-replace page 2: err = %v, want ErrStaleCursor", err)
	}
}

// TestAppendXMLEngineCursorLifecycle covers the single-engine mutation
// path: a tail append lands in the delta index without renumbering, so a
// pre-append cursor resumes against its pinned snapshot (the appended
// content invisible to it); only a non-tail append — a renumbering rebuild
// — makes the cursor die loudly.
func TestAppendXMLEngineCursorLifecycle(t *testing.T) {
	e, err := LoadString(`<bib><paper><title>xml search</title></paper><paper><title>search trees</title></paper></bib>`)
	if err != nil {
		t.Fatal(err)
	}
	page1, err := e.Search(context.Background(), Request{Query: "search", Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if page1.Cursor == "" {
		t.Fatalf("page 1 issued no cursor (%d fragments of %d)", len(page1.Fragments), page1.Stats.NumLCAs)
	}
	// The cursor works while nothing mutates...
	if _, err := e.Search(context.Background(), Request{Query: "search", Limit: 1, Cursor: page1.Cursor}); err != nil {
		t.Fatal(err)
	}
	// ...survives a tail append, serving the pre-append page 2 with the
	// fresh paper invisible...
	if err := e.AppendXML("0", `<paper><title>fresh search result</title></paper>`); err != nil {
		t.Fatal(err)
	}
	pinned, err := e.Search(context.Background(), Request{Query: "search", Limit: 1, Cursor: page1.Cursor})
	if err != nil {
		t.Fatalf("post-append: err = %v, want snapshot-pinned resume", err)
	}
	if pinned.Stats.NumLCAs != 2 {
		t.Fatalf("pinned scroll sees %d candidates, want the pre-append 2", pinned.Stats.NumLCAs)
	}
	// ...and dies after a non-tail append renumbers the document.
	if err := e.AppendXML("0.0", `<note>search aside</note>`); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Search(context.Background(), Request{Query: "search", Limit: 1, Cursor: page1.Cursor}); !errors.Is(err, ErrStaleCursor) {
		t.Fatalf("post-rebuild: err = %v, want ErrStaleCursor", err)
	}
}
