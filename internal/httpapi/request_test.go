package httpapi

// Tests for the Request-era API surface: typed error mapping (errors.Is on
// the sentinels behind the handler), pagination cursors, and deadline
// behavior (504).

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"xks"
	"xks/internal/fault"
	"xks/internal/service"
)

// TestStatusMapping pins the error → status translation the handler relies
// on, via errors.Is against the exported sentinels.
func TestStatusMapping(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{fmt.Errorf("wrapped: %w", xks.ErrUnknownDocument), http.StatusNotFound},
		{fmt.Errorf("wrapped: %w", xks.ErrEmptyQuery), http.StatusBadRequest},
		{fmt.Errorf("wrapped: %w", xks.ErrTooManyTerms), http.StatusBadRequest},
		{fmt.Errorf("deep: %w", fmt.Errorf("wrap: %w", context.DeadlineExceeded)), http.StatusGatewayTimeout},
		{errors.New("anything else"), http.StatusBadRequest},
	}
	for _, c := range cases {
		if got := status(c.err); got != c.want {
			t.Errorf("status(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

// TestSentinelErrorsOverHTTP drives the sentinel errors end to end: the
// engine's typed failures come back as the mapped status codes, not as
// opaque 400s by accident of string formatting.
func TestSentinelErrorsOverHTTP(t *testing.T) {
	srv, _ := corpusServer(t)

	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	// ErrEmptyQuery: all stop words.
	if code := get("/search?q=the+of+and"); code != http.StatusBadRequest {
		t.Errorf("stop-word query: status = %d, want 400", code)
	}
	// ErrTooManyTerms: 65 distinct keywords.
	long := "/search?q="
	for i := 0; i < 65; i++ {
		if i > 0 {
			long += "+"
		}
		long += "kw" + strconv.Itoa(i)
	}
	if code := get(long); code != http.StatusBadRequest {
		t.Errorf("65-term query: status = %d, want 400", code)
	}
	// ErrUnknownDocument → 404 (also covered by TestSearchUnknownDocumentIs404).
	if code := get("/search?q=liu&doc=nope"); code != http.StatusNotFound {
		t.Errorf("unknown doc: status = %d, want 404", code)
	}
	// Bad pagination/timeout parameters are 400s — including windows past
	// the MaxPageParam sanity cap.
	for _, path := range []string{"/search?q=liu&offset=-1", "/search?q=liu&offset=x", "/search?q=liu&offset=2000000000", "/search?q=liu&limit=2000000000", "/search?q=liu&timeout=bogus", "/search?q=liu&timeout=-1s"} {
		if code := get(path); code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", path, code)
		}
	}
}

// TestPaginationCursor walks a multi-fragment result via the "cursor"
// token and asserts the pages tile the unpaged result.
func TestPaginationCursor(t *testing.T) {
	srv, _ := corpusServer(t)

	_, full := getJSON(t, srv.URL+"/search?q=name")
	if len(full.Fragments) < 2 {
		t.Fatalf("need several fragments to page, got %d", len(full.Fragments))
	}
	if full.Cursor != "" {
		t.Fatalf("unpaged response carries cursor=%q", full.Cursor)
	}

	var pages []Fragment
	cursor := ""
	for {
		code, page := getJSON(t, srv.URL+"/search?q=name&limit=1&cursor="+url.QueryEscape(cursor))
		if code != http.StatusOK {
			t.Fatalf("page at cursor %q: status %d", cursor, code)
		}
		pages = append(pages, page.Fragments...)
		if page.Cursor == "" {
			break
		}
		cursor = page.Cursor
	}
	if len(pages) != len(full.Fragments) {
		t.Fatalf("cursor walk yielded %d fragments, full response %d", len(pages), len(full.Fragments))
	}
	for i := range pages {
		if pages[i].Root != full.Fragments[i].Root || pages[i].Document != full.Fragments[i].Document {
			t.Fatalf("fragment %d: paged %s/%s vs full %s/%s", i,
				pages[i].Document, pages[i].Root, full.Fragments[i].Document, full.Fragments[i].Root)
		}
	}
}

// TestDeadlineExceededIs504: a search that outlives its timeout= deadline
// comes back as 504 Gateway Timeout. The pipeline slower than the request's
// deadline is a real one whose candidate stage is scripted to park until
// its context ends.
func TestDeadlineExceededIs504(t *testing.T) {
	srv := resilienceServer(t, nil, fault.NewPlan(fault.Rule{
		Point:  fault.PointCandidates,
		Action: fault.Action{UntilDeadline: true},
	}))

	resp, err := http.Get(srv.URL + "/search?q=liu&timeout=10ms")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", resp.StatusCode)
	}
}

// TestTimeoutParamCapped: timeout= beyond MaxTimeout is clamped, not
// honored (the parse keeps the request well-formed).
func TestTimeoutParamCapped(t *testing.T) {
	r := httptest.NewRequest(http.MethodGet, "/search?q=x&timeout=10h", nil)
	req, _, err := parseRequest(r)
	if err != nil {
		t.Fatal(err)
	}
	if req.Timeout != MaxTimeout {
		t.Fatalf("Timeout = %v, want clamped to %v", req.Timeout, MaxTimeout)
	}
}

// TestCursorOnlyWire: the cursor is the only way to page. offset= is a 400
// naming cursor= (ignoring it would silently replay page 1), and no answer —
// buffered or stream=1, miss or hit, corpus-wide or doc=, first page or a
// cursor follow-up — carries a "next" or an "offset" member.
func TestCursorOnlyWire(t *testing.T) {
	for _, b := range streamBackends() {
		backend := b.build(t)
		handler := func() http.Handler { return NewHandler(service.New(backend, service.Config{CacheSize: 64}), nil) }
		h := handler()
		for _, path := range []string{
			"/search?q=alpha+beta&offset=1",
			"/search?q=alpha+beta&limit=2&offset=0",
			"/search?q=alpha+beta&offset=1&stream=1",
			"/search?q=alpha+beta&offset=1&doc=" + b.doc,
		} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
			if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "cursor=") {
				t.Fatalf("%s %s: status %d: %s; want a 400 naming cursor=", b.name, path, rec.Code, rec.Body)
			}
		}
		for _, first := range []string{"/search?q=alpha+beta&limit=2", "/search?q=alpha+beta&limit=2&doc=" + b.doc} {
			page1 := decodeBody(t, serve(t, h, first))
			if page1.Cursor == "" {
				t.Fatalf("%s %s: a 2-fragment page issued no cursor", b.name, first)
			}
			for _, shape := range []string{"", "&stream=1"} {
				h := handler() // the first answer of each shape is a miss
				for _, path := range []string{first, first + "&cursor=" + url.QueryEscape(page1.Cursor)} {
					for _, disposition := range []string{"miss", "hit"} {
						what := fmt.Sprintf("%s %s%s (%s)", b.name, path, shape, disposition)
						body := serve(t, h, path+shape).Body.Bytes()
						records := [][]byte{body}
						if shape != "" {
							records = bytes.Split(bytes.TrimSpace(body), []byte("\n"))
						}
						for _, rec := range records {
							var members map[string]json.RawMessage
							if err := json.Unmarshal(rec, &members); err != nil {
								t.Fatalf("%s: %v\n%s", what, err, rec)
							}
							for _, gone := range []string{"next", "offset"} {
								if _, ok := members[gone]; ok {
									t.Fatalf("%s: the answer carries %q: %s", what, gone, rec)
								}
							}
						}
					}
				}
			}
		}
	}
}
