package httpapi

// Tests for the streaming results API over HTTP: NDJSON stream=1 output,
// opaque cursor pagination (410 on staleness, 400 on mismatch), and
// best-effort deadline truncation (200 + truncated where strict 504s).

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"xks"
	"xks/internal/datagen"
	"xks/internal/service"
)

// readNDJSON collects a stream=1 response: the fragment lines and the
// trailer record (asserted to be last, exactly once).
func readNDJSON(t *testing.T, resp *http.Response) ([]Fragment, StreamTrailer) {
	t.Helper()
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
	}
	var (
		frags   []Fragment
		trailer StreamTrailer
		sawTr   bool
	)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if sawTr {
			t.Fatalf("record after the trailer: %s", line)
		}
		if strings.Contains(string(line), `"trailer":true`) {
			if err := json.Unmarshal(line, &trailer); err != nil {
				t.Fatalf("trailer %s: %v", line, err)
			}
			sawTr = true
			continue
		}
		var f Fragment
		if err := json.Unmarshal(line, &f); err != nil {
			t.Fatalf("fragment line %s: %v", line, err)
		}
		frags = append(frags, f)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawTr {
		t.Fatal("stream ended without a trailer record")
	}
	return frags, trailer
}

// TestStreamNDJSON pins the stream=1 contract: one fragment object per
// line, identical content to the buffered response, and a final trailer
// record carrying the stats.
func TestStreamNDJSON(t *testing.T) {
	srv, _ := corpusServer(t)

	_, buffered := getJSON(t, srv.URL+"/search?q=name")
	resp, err := http.Get(srv.URL + "/search?q=name&stream=1")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	frags, trailer := readNDJSON(t, resp)
	if len(frags) == 0 || len(frags) != len(buffered.Fragments) {
		t.Fatalf("streamed %d fragments, buffered %d", len(frags), len(buffered.Fragments))
	}
	for i := range frags {
		if frags[i].Root != buffered.Fragments[i].Root || frags[i].Document != buffered.Fragments[i].Document {
			t.Fatalf("fragment %d: %s/%s vs %s/%s", i,
				frags[i].Document, frags[i].Root, buffered.Fragments[i].Document, buffered.Fragments[i].Root)
		}
	}
	if trailer.NumLCAs != buffered.NumLCAs || trailer.Error != "" || trailer.Truncated {
		t.Fatalf("trailer = %+v", trailer)
	}
	if trailer.Cursor != "" {
		t.Fatalf("exhausted stream issued cursor %q", trailer.Cursor)
	}

	// An empty result set still streams: zero fragment lines, one trailer.
	resp, err = http.Get(srv.URL + "/search?q=zebra&stream=1")
	if err != nil {
		t.Fatal(err)
	}
	frags, _ = readNDJSON(t, resp)
	if len(frags) != 0 {
		t.Fatalf("no-match stream yielded %d fragments", len(frags))
	}

	// Pre-stream failures keep their status codes: nothing was written
	// yet, so a 400 is still possible.
	resp, err = http.Get(srv.URL + "/search?q=the+of&stream=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unsearchable stream: status = %d, want 400", resp.StatusCode)
	}
	// So does every failure the backend meets before the first line: a
	// stream resolves its own cursor, document and deadline. (A stale
	// cursor's 410 is TestCursorSurvivesAppendStaleOnRebuild's.)
	_, page1 := getJSON(t, srv.URL+"/search?q=name&limit=1")
	if page1.Cursor == "" {
		t.Fatal("a one-fragment page issued no cursor")
	}
	for path, want := range map[string]int{
		"/search?q=name&limit=1&stream=1&cursor=garbage%21":                      http.StatusBadRequest,
		"/search?q=liu&limit=1&stream=1&cursor=" + url.QueryEscape(page1.Cursor): http.StatusBadRequest,
		"/search?q=name&stream=1&doc=missing":                                    http.StatusNotFound,
		"/search?q=name&stream=1&timeout=1ns":                                    http.StatusGatewayTimeout,
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s: status = %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// TestStreamCursorWalk scrolls a limited stream page by page via the
// trailer cursor and asserts the pages tile the buffered result.
func TestStreamCursorWalk(t *testing.T) {
	srv, _ := corpusServer(t)
	_, full := getJSON(t, srv.URL+"/search?q=name")
	if len(full.Fragments) < 2 {
		t.Fatalf("need several fragments, got %d", len(full.Fragments))
	}

	var pages []Fragment
	cursor := ""
	for {
		u := srv.URL + "/search?q=name&limit=1&stream=1"
		if cursor != "" {
			u += "&cursor=" + url.QueryEscape(cursor)
		}
		resp, err := http.Get(u)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("page at cursor %q: status %d", cursor, resp.StatusCode)
		}
		frags, trailer := readNDJSON(t, resp)
		pages = append(pages, frags...)
		if trailer.Cursor == "" {
			break
		}
		cursor = trailer.Cursor
	}
	if len(pages) != len(full.Fragments) {
		t.Fatalf("cursor walk yielded %d fragments, full %d", len(pages), len(full.Fragments))
	}
	for i := range pages {
		if pages[i].Root != full.Fragments[i].Root {
			t.Fatalf("fragment %d: %s vs %s", i, pages[i].Root, full.Fragments[i].Root)
		}
	}
}

// TestCursorSurvivesAppendStaleOnRebuild covers the mutation
// contract end to end: scroll page 1, tail-append to the document, and the
// page-2 cursor still works — it re-pins the snapshot it was issued at and
// serves the pre-append page 2, as it does after a refused off-spine
// append. Only a cursor the engine cannot resolve (one issued on a longer
// history of the document) gets 410 Gone and a restart hint.
func TestCursorSurvivesAppendStaleOnRebuild(t *testing.T) {
	const doc = `<bib><paper><title>xml search</title></paper><paper><title>search trees</title></paper></bib>`
	engine, err := xks.LoadString(doc)
	if err != nil {
		t.Fatal(err)
	}
	svc := service.New(service.SingleDoc{Name: "bib", Engine: engine}, service.Config{CacheSize: 8})
	srv := httptest.NewServer(NewHandler(svc, nil))
	t.Cleanup(srv.Close)

	code, page1 := getJSON(t, srv.URL+"/search?q=search&limit=1")
	if code != http.StatusOK || page1.Cursor == "" {
		t.Fatalf("page 1: status %d cursor %q", code, page1.Cursor)
	}
	// The cursor works before the append...
	code, before := getJSON(t, srv.URL+"/search?q=search&limit=1&cursor="+url.QueryEscape(page1.Cursor))
	if code != http.StatusOK || len(before.Fragments) != 1 {
		t.Fatalf("pre-append page 2: status %d, %d fragments", code, len(before.Fragments))
	}
	if err := engine.AppendXML("0", `<paper><title>fresh search result</title></paper>`); err != nil {
		t.Fatal(err)
	}
	// ...and still works after a tail append: the delta index kept the old
	// node IDs, so resumption re-pins the issuing snapshot and the page
	// boundary cannot shift.
	code, after := getJSON(t, srv.URL+"/search?q=search&limit=1&cursor="+url.QueryEscape(page1.Cursor))
	if code != http.StatusOK {
		t.Fatalf("post-append cursor: status = %d, want 200", code)
	}
	if len(after.Fragments) != 1 || after.Fragments[0].Root != before.Fragments[0].Root {
		t.Fatalf("pinned page 2 = %+v, want the pre-append page 2 (%s)", after.Fragments, before.Fragments[0].Root)
	}
	// An off-spine append is refused and changes nothing: same version,
	// same page 2.
	gen := engine.Generation()
	if err := engine.AppendXML("0.0", `<note>search aside</note>`); !errors.Is(err, xks.ErrOffSpine) {
		t.Fatalf("off-spine append: err = %v, want ErrOffSpine", err)
	}
	code, again := getJSON(t, srv.URL+"/search?q=search&limit=1&cursor="+url.QueryEscape(page1.Cursor))
	if engine.Generation() != gen || code != http.StatusOK || len(again.Fragments) != 1 || again.Fragments[0].Root != before.Fragments[0].Root {
		t.Fatalf("post-refusal page 2: version %d -> %d, status %d, %+v", gen, engine.Generation(), code, again.Fragments)
	}
	// A cursor issued on a longer history of the document names a snapshot
	// past this engine's head: 410 Gone, with the restart hint in the body.
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
	stale := url.QueryEscape(string(ahead.Cursor))
	resp, err := http.Get(srv.URL + "/search?q=search&limit=1&cursor=" + stale)
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 512)
	n, _ := resp.Body.Read(body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("longer-history cursor: status = %d, want 410", resp.StatusCode)
	}
	if !strings.Contains(string(body[:n]), "restart") {
		t.Errorf("410 body carries no restart hint: %q", body[:n])
	}
	// The streaming path maps it identically (the error precedes any
	// fragment, so the status is still available).
	resp, err = http.Get(srv.URL + "/search?q=search&limit=1&stream=1&cursor=" + stale)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("longer-history stream cursor: status = %d, want 410", resp.StatusCode)
	}
}

// TestCursorFingerprintMismatchIs400: the same cursor under a different
// query is a client error, not a silent mis-scroll; garbage tokens too.
func TestCursorFingerprintMismatchIs400(t *testing.T) {
	srv, _ := corpusServer(t)
	code, page1 := getJSON(t, srv.URL+"/search?q=name&limit=1")
	if code != http.StatusOK || page1.Cursor == "" {
		t.Fatalf("page 1: status %d cursor %q", code, page1.Cursor)
	}
	for _, path := range []string{
		"/search?q=liu&limit=1&cursor=" + url.QueryEscape(page1.Cursor),         // different query
		"/search?q=name&rank=1&limit=1&cursor=" + url.QueryEscape(page1.Cursor), // different order
		"/search?q=name&limit=1&cursor=garbage%21",                              // undecodable
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", path, resp.StatusCode)
		}
	}
}

// heavyServer serves a document big enough that its pipeline cannot beat a
// 1ns deadline (the merged keyword stream is thousands of events), making
// the strict-504 / best-effort-200 pair deterministic.
func heavyServer(t *testing.T) *httptest.Server {
	t.Helper()
	tree := datagen.DBLP(datagen.DBLPConfig{
		Seed:       42,
		NumRecords: 2000,
		Keywords:   []datagen.KeywordSpec{{Word: "alpha", Count: 4000}, {Word: "beta", Count: 4000}},
	})
	svc := service.New(service.SingleDoc{Name: "heavy", Engine: xks.FromTree(tree)}, service.Config{})
	srv := httptest.NewServer(NewHandler(svc, nil))
	t.Cleanup(srv.Close)
	return srv
}

// TestBestEffortBudgetIs200WhereStrict504s pins the acceptance contract
// over HTTP: the same under-deadline request that 504s by default returns
// 200 with "truncated":true under budget=best-effort — partial results for
// best-effort UIs instead of an error page.
func TestBestEffortBudgetIs200WhereStrict504s(t *testing.T) {
	srv := heavyServer(t)
	const q = "/search?q=alpha+beta&timeout=1ns"

	resp, err := http.Get(srv.URL + q)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("strict deadline: status = %d, want 504", resp.StatusCode)
	}

	code, out := getJSON(t, srv.URL+q+"&budget=best-effort")
	if code != http.StatusOK {
		t.Fatalf("best-effort deadline: status = %d, want 200", code)
	}
	if !out.Truncated {
		t.Fatalf("best-effort deadline: truncated = false, response %+v", out)
	}

	// The streamed variant delivers the same truncation in its trailer.
	sresp, err := http.Get(srv.URL + q + "&budget=best-effort&stream=1")
	if err != nil {
		t.Fatal(err)
	}
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("best-effort stream: status = %d, want 200", sresp.StatusCode)
	}
	_, trailer := readNDJSON(t, sresp)
	if !trailer.Truncated || trailer.Error != "" {
		t.Fatalf("best-effort stream trailer = %+v, want truncated", trailer)
	}

	// A bogus budget value is a 400.
	resp, err = http.Get(srv.URL + "/search?q=alpha&budget=sometimes")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad budget: status = %d, want 400", resp.StatusCode)
	}
}

// TestStreamedStatsCounter: streamed requests show up on /metrics.
func TestStreamedStatsCounter(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Get(srv.URL + "/search?q=liu+keyword&stream=1")
	if err != nil {
		t.Fatal(err)
	}
	readNDJSON(t, resp)
	if n := scrape(t, srv.URL)["xks_streamed_requests_total"]; n != 1 {
		t.Errorf("xks_streamed_requests_total = %v, want 1", n)
	}
}
