package httpapi

// A request runs one request loop with two faces: a buffered page is the
// backend's Search, a streamed response (stream=1) its Stream. These tests
// hold the two against each other through the service: over every backend
// and request shape the page equals the collected stream plus its trailer,
// the encoded body is the NDJSON lines re-framed, and a page answers the
// same bytes whichever face filled its cache entry.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"

	"xks"
	"xks/internal/analysis"
	"xks/internal/datagen"
	"xks/internal/fault"
	"xks/internal/service"
	"xks/internal/store"
)

// streamBackend is one backend of the differential: how to build it fresh
// (shapes that append need their own copy) and a document name for doc=.
type streamBackend struct {
	name  string
	build func(t *testing.T) service.Backend
	doc   string
}

func streamBackends() []streamBackend {
	tree := func(seed int64) *xks.Engine {
		return xks.FromTree(datagen.DBLP(datagen.DBLPConfig{
			Seed:       seed,
			NumRecords: 60,
			Keywords:   []datagen.KeywordSpec{{Word: "alpha", Count: 40}, {Word: "beta", Count: 40}},
		}))
	}
	return []streamBackend{
		{name: "tree", doc: "dblp", build: func(*testing.T) service.Backend {
			return service.SingleDoc{Name: "dblp", Engine: tree(7)}
		}},
		{name: "store-v3", doc: "dblp", build: func(t *testing.T) service.Backend {
			path := filepath.Join(t.TempDir(), "dblp.xks")
			if err := store.Shred(wireTree(), analysis.New()).SaveFile(path); err != nil {
				t.Fatal(err)
			}
			st, err := store.OpenFile(path, store.OpenOptions{})
			if err != nil {
				t.Fatal(err)
			}
			e := xks.FromStore(st)
			t.Cleanup(func() { e.Close() })
			if mode := st.Mode(); mode != "v3-mmap" && mode != "v3-heap" {
				t.Fatalf("store opened in mode %q, want v3", mode)
			}
			return service.SingleDoc{Name: "dblp", Engine: e}
		}},
		{name: "corpus", doc: "b", build: func(*testing.T) service.Backend {
			c := xks.NewCorpus()
			c.Add("a", tree(7))
			c.Add("b", tree(8))
			c.Add("c", tree(9))
			return c
		}},
	}
}

// materializeDeadline scripts the third fragment's materialization to burn
// the rest of the request's deadline. Hit counts live in the plan, so every
// execution gets its own.
func materializeDeadline(ctx context.Context) context.Context {
	return fault.NewContext(ctx, fault.NewPlan(fault.Rule{
		Point:  fault.PointMaterialize,
		After:  2,
		Count:  1,
		Action: fault.Action{UntilDeadline: true},
	}))
}

// within derives a context that expires after d, cancelled when the test
// ends.
func within(t *testing.T, ctx context.Context, d time.Duration) context.Context {
	ctx, cancel := context.WithTimeout(ctx, d)
	t.Cleanup(cancel)
	return ctx
}

// candidatesDeadline scripts every candidate stage to park until the
// request's deadline.
func candidatesDeadline(ctx context.Context) context.Context {
	return fault.NewContext(ctx, fault.NewPlan(fault.Rule{
		Point:  fault.PointCandidates,
		Action: fault.Action{UntilDeadline: true},
	}))
}

var elapsedMember = regexp.MustCompile(`"elapsedMs":[^,]+`)

// withoutElapsed zeroes the one member of a body that differs run to run.
func withoutElapsed(body []byte) []byte {
	return elapsedMember.ReplaceAll(body, []byte(`"elapsedMs":0`))
}

// TestPageIsTheDrainedStream is the differential. The cache is off, so the
// page and the stream are each a pipeline execution of their own.
func TestPageIsTheDrainedStream(t *testing.T) {
	const base = "/search?q=alpha+beta"
	for _, b := range streamBackends() {
		// check compares one request's page with its stream, at the service
		// and on the wire, and returns the page. ctx derives each
		// execution's context (fault plans are stateful).
		check := func(svc *service.Service, path string, ctx func(context.Context) context.Context) *service.Page {
			t.Helper()
			what := b.name + " " + path
			if ctx == nil {
				ctx = func(c context.Context) context.Context { return c }
			}
			req, _ := requestOf(t, path)
			if req.Budget == xks.BestEffort {
				script := ctx
				ctx = func(c context.Context) context.Context { return within(t, script(c), 100*time.Millisecond) }
				path += "&timeout=100ms"
			}
			page, cached, err := svc.SearchPage(ctx(t.Context()), req)
			if err != nil || cached {
				t.Fatalf("%s: SearchPage: cached=%t err=%v", what, cached, err)
			}
			seq, trailer := svc.Stream(ctx(t.Context()), req)
			var frags []xks.CorpusFragment
			for f, err := range seq {
				if err != nil {
					t.Fatalf("%s: Stream: %v", what, err)
				}
				frags = append(frags, f)
			}
			if len(frags) != len(page.Fragments) {
				t.Fatalf("%s: the stream yielded %d fragments, the page holds %d", what, len(frags), len(page.Fragments))
			}
			for i, f := range frags {
				if want := ToFragment(page.Fragments[i], true); ToFragment(f, true) != want {
					t.Fatalf("%s: fragment %d: streamed %+v, paged %+v", what, i, ToFragment(f, true), want)
				}
			}
			// The envelopes agree on everything but the time it took.
			got, want := *trailer(), *page.Results
			want.Fragments = nil
			got.Stats.Elapsed, got.Stats.Stages = 0, xks.StageStats{}
			want.Stats.Elapsed, want.Stats.Stages = 0, xks.StageStats{}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: trailer and page envelope differ:\n trailer %+v\n    page %+v", what, got, want)
			}
			sum := 0
			for _, n := range want.PerDocument {
				sum += n
			}
			if sum != want.Stats.NumLCAs {
				t.Fatalf("%s: perDocument %v sums to %d, numLcas is %d", what, want.PerDocument, sum, want.Stats.NumLCAs)
			}

			// On the wire: the body's fragments array is the NDJSON lines
			// joined by commas, and its envelope says what the trailer says.
			h := NewHandler(svc, nil)
			get := func(path string) []byte {
				rec := httptest.NewRecorder()
				r := httptest.NewRequest(http.MethodGet, path, nil)
				h.ServeHTTP(rec, r.WithContext(ctx(r.Context())))
				if rec.Code != http.StatusOK {
					t.Fatalf("GET %s: status %d: %s", path, rec.Code, rec.Body)
				}
				return rec.Body.Bytes()
			}
			body, ndjson := get(path), get(path+"&stream=1")
			lines := bytes.SplitAfter(ndjson, []byte("\n"))
			lines = lines[:len(lines)-1] // SplitAfter leaves an empty tail
			records := bytes.Join(lines[:len(lines)-1], []byte(","))
			if want := append(append([]byte(`"fragments":[`), records...), "]}\n"...); !bytes.HasSuffix(body, want) {
				t.Fatalf("%s: the body is not the NDJSON lines re-framed:\n%s\n----\n%s", what, body, ndjson)
			}
			if len(lines)-1 != len(frags) {
				t.Fatalf("%s: %d NDJSON lines for %d fragments", what, len(lines)-1, len(frags))
			}
			var env Response
			var tr StreamTrailer
			if err := json.Unmarshal(body, &env); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(lines[len(lines)-1], &tr); err != nil || !tr.Trailer {
				t.Fatalf("%s: last line is not a trailer (%v): %s", what, err, lines[len(lines)-1])
			}
			if env.Cursor != tr.Cursor || env.NumLCAs != tr.NumLCAs ||
				env.Truncated != tr.Truncated || env.Truncation != tr.Truncation ||
				!reflect.DeepEqual(env.Keywords, tr.Keywords) || tr.Error != "" {
				t.Fatalf("%s: body envelope %+v, trailer %+v", what, env, tr)
			}
			if env.Cursor != string(page.Cursor) || env.NumLCAs != page.Stats.NumLCAs {
				t.Fatalf("%s: the wire envelope %+v is not the service's (cursor %q)", what, env, page.Cursor)
			}
			return page
		}

		svc := service.New(b.build(t), service.Config{})
		if all := check(svc, base, nil); len(all.Fragments) < 4 || all.Cursor != "" {
			t.Fatalf("%s: unlimited page: %d fragments, cursor %q", b.name, len(all.Fragments), all.Cursor)
		}
		if top := check(svc, base+"&rank=1&limit=3", nil); len(top.Fragments) != 3 {
			t.Fatalf("%s: top-3 page holds %d fragments", b.name, len(top.Fragments))
		}
		page1 := check(svc, base+"&limit=2", nil)
		if len(page1.Fragments) != 2 || page1.Cursor == "" {
			t.Fatalf("%s: page 1: %d fragments, cursor %q", b.name, len(page1.Fragments), page1.Cursor)
		}
		follow := base + "&limit=2&cursor=" + url.QueryEscape(string(page1.Cursor))
		page2 := check(svc, follow, nil)
		if len(page2.Fragments) != 2 || page2.Fragments[0].Root == page1.Fragments[0].Root {
			t.Fatalf("%s: the cursor did not advance", b.name)
		}
		docPath := base + "&limit=2&doc=" + b.doc
		one := check(svc, docPath, nil)
		if len(one.PerDocument) != 1 || one.Fragments[0].Document != b.doc || one.Cursor == "" {
			t.Fatalf("%s: doc= page: perDocument %v, first fragment from %q, cursor %q", b.name, one.PerDocument, one.Fragments[0].Document, one.Cursor)
		}
		docFollow := docPath + "&cursor=" + url.QueryEscape(string(one.Cursor))
		docPage2 := check(svc, docFollow, nil)
		// A BestEffort deadline in a lone document's candidate stage: an empty
		// page that still reports the query's keywords and keyword nodes, the
		// document with no candidates counted, and a cursor that resumes at
		// the page's own start.
		stalled := check(svc, base+"&limit=5&doc="+b.doc+"&budget=best-effort", candidatesDeadline)
		if !stalled.Truncated || stalled.Truncation != xks.TruncCandidates || len(stalled.Fragments) != 0 ||
			!reflect.DeepEqual(stalled.Stats.Keywords, []string{"alpha", "beta"}) || stalled.Stats.KeywordNodes == 0 ||
			!reflect.DeepEqual(stalled.PerDocument, map[string]int{b.doc: 0}) || stalled.Cursor == "" {
			t.Fatalf("%s: stalled doc= page: truncated=%t (%q), %d fragments, stats %+v, perDocument %v, cursor %q", b.name,
				stalled.Truncated, stalled.Truncation, len(stalled.Fragments), stalled.Stats, stalled.PerDocument, stalled.Cursor)
		}
		retry := check(svc, base+"&limit=5&doc="+b.doc+"&cursor="+url.QueryEscape(string(stalled.Cursor)), nil)
		samePage(t, b.name+" stalled doc= page retried", retry, check(svc, base+"&limit=5&doc="+b.doc, nil))
		cut := check(svc, base+"&limit=5&budget=best-effort", materializeDeadline)
		if !cut.Truncated || cut.Truncation != xks.TruncMaterialize || len(cut.Fragments) != 2 || cut.Cursor == "" {
			t.Fatalf("%s: best-effort page: truncated=%t (%q), %d fragments, cursor %q",
				b.name, cut.Truncated, cut.Truncation, len(cut.Fragments), cut.Cursor)
		}

		if other := otherDocument(svc, b.doc); other != "" {
			// A tail append to another document does not shift a doc= scroll.
			if err := svc.Append(other, "0", `<inproceedings><title>alpha beta elsewhere</title></inproceedings>`); err != nil {
				t.Fatal(err)
			}
			samePage(t, b.name+" doc= page 2 after an append elsewhere", check(svc, docFollow, nil), docPage2)
		}
		// A cursor issued before an append pins its snapshot: page 2 is served
		// straight from the backend, uncached, and is the page 2 from before.
		if err := svc.Append(b.doc, "0", `<inproceedings><title>alpha beta appended</title></inproceedings>`); err != nil {
			t.Fatal(err)
		}
		samePage(t, b.name+" pinned page 2", check(svc, follow, nil), page2)
	}
}

// samePage fails unless got holds the fragments of want, in order.
func samePage(t *testing.T, what string, got, want *service.Page) {
	t.Helper()
	if len(got.Fragments) != len(want.Fragments) {
		t.Fatalf("%s: %d fragments, want %d", what, len(got.Fragments), len(want.Fragments))
	}
	for i, f := range got.Fragments {
		if w := want.Fragments[i]; f.Document != w.Document || f.Root != w.Root {
			t.Fatalf("%s: fragment %d is %s/%s, want %s/%s", what, i, f.Document, f.Root, w.Document, w.Root)
		}
	}
}

// otherDocument names a document of svc other than doc, or "".
func otherDocument(svc *service.Service, doc string) string {
	for _, d := range svc.Documents() {
		if d.Name != doc {
			return d.Name
		}
	}
	return ""
}

// TestPerDocumentHasOneMeaning: perDocument holds per-document candidate
// totals — they sum to numLcas however small the page — and a buffered
// answer is the same bytes outside cached/elapsedMs as a miss and as a hit.
// A stream=1 request before them fills no entry: the first buffered request
// after it is the miss. (At the PR 22 tree a SingleDoc page reported its
// own length, and 0 once a stream had filled the entry.)
func TestPerDocumentHasOneMeaning(t *testing.T) {
	for _, b := range streamBackends() {
		paths := []string{"/search?q=alpha+beta&limit=2", "/search?q=alpha+beta&rank=1&limit=3"}
		if b.name == "corpus" {
			paths = append(paths, "/search?q=alpha+beta&limit=2&doc="+b.doc)
		}
		backend := b.build(t)
		for _, path := range paths {
			what := b.name + " " + path
			h := NewHandler(service.New(backend, service.Config{CacheSize: 16}), nil)
			serve(t, h, path+"&stream=1")
			miss := withoutElapsed(serve(t, h, path).Body.Bytes())
			if !bytes.Contains(miss, []byte(`"cached":false`)) {
				t.Fatalf("%s: the request after a stream was a hit; a stream fills no entry: %s", what, miss)
			}
			buffered := withoutElapsed(serve(t, h, path).Body.Bytes())
			if asHit := bytes.Replace(miss, []byte(`"cached":false`), []byte(`"cached":true`), 1); !bytes.Equal(asHit, buffered) {
				t.Fatalf("%s: miss and hit differ beyond \"cached\":\n%s\n----\n%s", what, miss, buffered)
			}
			var out Response
			if err := json.Unmarshal(buffered, &out); err != nil {
				t.Fatal(err)
			}
			sum := 0
			for _, n := range out.PerDocument {
				sum += n
			}
			if out.NumLCAs <= len(out.Fragments) || sum != out.NumLCAs {
				t.Fatalf("%s: %d fragments of numLcas %d, perDocument %v sums to %d; want a page smaller than the total it reports",
					what, len(out.Fragments), out.NumLCAs, out.PerDocument, sum)
			}
		}
	}
}
