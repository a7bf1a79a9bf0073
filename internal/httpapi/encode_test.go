package httpapi

// Tests for the encode-once contract: every /search answer is written by
// the one record encoder, a cached page's records are encoded at most once
// and retained with its cache entry, and the bytes on the wire decode to
// exactly what the encoding/json path they replaced produced.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"xks"
	"xks/internal/analysis"
	"xks/internal/datagen"
	"xks/internal/reference"
	"xks/internal/service"
	"xks/internal/store"
	"xks/internal/xmltree"
)

// wireTree is a document whose "alpha beta" answers span several pages.
func wireTree() *xmltree.Tree {
	return datagen.DBLP(datagen.DBLPConfig{
		Seed:       7,
		NumRecords: 60,
		Keywords:   []datagen.KeywordSpec{{Word: "alpha", Count: 40}, {Word: "beta", Count: 40}},
	})
}

// serve runs one request through the handler in process.
func serve(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, rec.Code, rec.Body)
	}
	return rec
}

// requestOf parses path the way the handler does.
func requestOf(t *testing.T, path string) (xks.Request, bool) {
	t.Helper()
	req, _, snippets, err := parseRequest(httptest.NewRequest(http.MethodGet, path, nil).URL.Query())
	if err != nil {
		t.Fatal(err)
	}
	return req, snippets
}

// referenceResponse is the encoding/json path the encoder replaced: the
// Response struct filled from the results, fragments through ToFragment.
func referenceResponse(req xks.Request, res *xks.Results, cached, snippets bool) Response {
	resp := Response{
		Query:       req.Query,
		Keywords:    res.Stats.Keywords,
		NumLCAs:     res.Stats.NumLCAs,
		ElapsedMS:   float64(res.Stats.Elapsed.Microseconds()) / 1000.0,
		Cached:      cached,
		Cursor:      string(res.Cursor),
		Truncated:   res.Truncated,
		Truncation:  string(res.Truncation),
		PerDocument: res.PerDocument,
	}
	for _, f := range res.Fragments {
		resp.Fragments = append(resp.Fragments, ToFragment(f, snippets))
	}
	return resp
}

// decodeBody decodes a buffered body, checking the framing every buffered
// answer now has: a Content-Length that matches and an array, never null,
// for the fragments.
func decodeBody(t *testing.T, rec *httptest.ResponseRecorder) Response {
	t.Helper()
	body := rec.Body.Bytes()
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(body)) {
		t.Fatalf("Content-Length = %q, body is %d bytes", cl, len(body))
	}
	if !bytes.Contains(body, []byte(`"fragments":[`)) {
		t.Fatalf("fragments is not an array: %s", body)
	}
	var out Response
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("body does not decode: %v\n%s", err, body)
	}
	return out
}

// sameResponse compares a decoded body with the reference after one trip
// through encoding/json, which is what a client of the old path decoded.
func sameResponse(t *testing.T, what string, got, want Response) {
	t.Helper()
	raw, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var ref Response
	if err := json.Unmarshal(raw, &ref); err != nil {
		t.Fatal(err)
	}
	if len(got.Fragments) == 0 && len(ref.Fragments) == 0 {
		got.Fragments, ref.Fragments = nil, nil // [] where the old path wrote null
	}
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("%s: decoded body differs from the reference:\n got %+v\nwant %+v", what, got, ref)
	}
}

// readLines splits a stream=1 body into its fragment lines and trailer.
func readLines(t *testing.T, body []byte) ([]Fragment, StreamTrailer) {
	t.Helper()
	lines := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
	var tr StreamTrailer
	if err := json.Unmarshal(lines[len(lines)-1], &tr); err != nil || !tr.Trailer {
		t.Fatalf("last line is not a trailer (%v): %s", err, lines[len(lines)-1])
	}
	frags := make([]Fragment, len(lines)-1)
	for i, l := range lines[:len(lines)-1] {
		if err := json.Unmarshal(l, &frags[i]); err != nil {
			t.Fatalf("line %d does not decode: %v\n%s", i, err, l)
		}
	}
	return frags, tr
}

// escapesXML is four answers to "alpha beta" whose text carries every byte
// class the escaper treats specially, and the <>& it no longer does.
const escapesXML = `<r>` +
	`<p><t>alpha "quoted" back\\slash &lt;b&gt; &amp; beta</t></p>` +
	`<p><t>alpha tab&#9;here</t><u>beta line&#10;break</u></p>` +
	`<p><t>alpha héllo 漢字 beta</t></p>` +
	`<p a="x&quot;y"><t>alpha</t><u>beta</u></p>` +
	`</r>`

// TestWireEquivalence: over algorithms × semantics × page shapes × the
// backings — a store image and its file round trip — the body decodes equal
// to the reference, the miss and the hit differ in nothing but "cached", and
// every NDJSON line decodes equal to ToFragment.
func TestWireEquivalence(t *testing.T) {
	image := store.Shred(wireTree(), analysis.New())
	path := filepath.Join(t.TempDir(), "dblp.xks")
	if err := image.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	file, err := store.OpenFile(path, store.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fromFile := xks.FromStore(file)
	defer fromFile.Close()
	escapes, err := xks.LoadString(escapesXML)
	if err != nil {
		t.Fatal(err)
	}
	backings := map[string]*xks.Engine{
		"image":   xks.FromStore(image),
		"file":    fromFile,
		"escapes": escapes,
	}
	for name, engine := range backings {
		svc := service.New(service.SingleDoc{Name: "dblp", Engine: engine}, service.Config{CacheSize: 256})
		h := NewHandler(svc, nil)
		check := func(path string) Response {
			what := name + " " + path
			miss := serve(t, h, path)
			hit := serve(t, h, path)
			asHit := bytes.Replace(miss.Body.Bytes(), []byte(`"cached":false`), []byte(`"cached":true`), 1)
			if !bytes.Equal(asHit, hit.Body.Bytes()) {
				t.Fatalf("%s: hit body differs from the miss body beyond \"cached\":\n%s\n----\n%s", what, miss.Body, hit.Body)
			}
			req, _ := requestOf(t, path)
			res, cached, err := svc.Search(context.Background(), req)
			if err != nil || !cached {
				t.Fatalf("%s: reference search: cached=%t err=%v", what, cached, err)
			}
			sameResponse(t, what+" (miss)", decodeBody(t, miss), referenceResponse(req, res, false, false))
			got := decodeBody(t, hit)
			sameResponse(t, what+" (hit)", got, referenceResponse(req, res, true, false))

			frags, tr := readLines(t, serve(t, h, path+"&stream=1").Body.Bytes())
			if len(frags) != len(res.Fragments) {
				t.Fatalf("%s: streamed %d lines, want %d", what, len(frags), len(res.Fragments))
			}
			for i, f := range res.Fragments {
				if want := ToFragment(f, false); frags[i] != want {
					t.Fatalf("%s: line %d decodes to %+v, want %+v", what, i, frags[i], want)
				}
			}
			if tr.Cursor != string(res.Cursor) || tr.NumLCAs != res.Stats.NumLCAs {
				t.Fatalf("%s: trailer %+v does not match the page (cursor %q)", what, tr, res.Cursor)
			}
			return got
		}
		answers := 0
		for _, algo := range []string{"validrtf", "maxmatch", "raw"} {
			for _, slca := range []string{"0", "1"} {
				base := "/search?q=alpha+beta&algo=" + algo + "&slca=" + slca
				answers += len(check(base + "&rank=1&limit=3").Fragments)
				answers += len(check(base).Fragments)
				page1 := check(base + "&limit=2")
				if page1.Cursor == "" {
					t.Fatalf("%s %s: a 2-fragment page issued no cursor", name, base)
				}
				page2 := check(base + "&limit=2&cursor=" + url.QueryEscape(page1.Cursor))
				if len(page2.Fragments) == 0 || page2.Fragments[0].Root == page1.Fragments[0].Root {
					t.Fatalf("%s %s: the cursor did not advance", name, base)
				}
			}
		}
		if answers == 0 {
			t.Fatalf("%s: no fragments compared", name)
		}
	}
}

// TestEmptyPageEncodesArray: a query with no answer carries "fragments":[]
// — buffered, and again from the cache.
func TestEmptyPageEncodesArray(t *testing.T) {
	svc := service.New(
		service.SingleDoc{Name: "publications.xml", Engine: xks.FromTree(reference.Publications())},
		service.Config{CacheSize: 8},
	)
	h := NewHandler(svc, nil)
	for _, wantCached := range []bool{false, true} {
		rec := serve(t, h, "/search?q=zebra+liu")
		if !bytes.Contains(rec.Body.Bytes(), []byte(`"fragments":[]`)) {
			t.Fatalf("cached=%t: empty page body: %s", wantCached, rec.Body)
		}
		if out := decodeBody(t, rec); out.Cached != wantCached || out.Fragments == nil || len(out.Fragments) != 0 {
			t.Fatalf("cached=%t: empty page decodes to %+v", wantCached, out)
		}
	}
}

// encodes reads the page-encode counter off the service's exposition.
func encodes(svc *service.Service) uint64 {
	var b strings.Builder
	svc.WritePrometheus(&b)
	_, v, _ := strings.Cut(b.String(), "\nxks_response_encodes_total ")
	n, _ := strconv.ParseUint(v[:strings.IndexByte(v, '\n')], 10, 64)
	return n
}

// TestEncodeOnce: the miss that produced a page encodes it; buffered hits —
// eight at once — are served from those bytes. A stream reads no entry and
// fills none: it encodes its own lines, hit or miss.
func TestEncodeOnce(t *testing.T) {
	engine := xks.FromStore(store.Shred(wireTree(), analysis.New()))
	svc := service.New(service.SingleDoc{Name: "dblp", Engine: engine}, service.Config{CacheSize: 64})
	h := NewHandler(svc, nil)
	hitAtOnce := func(path string, want []byte) {
		t.Helper()
		var wg sync.WaitGroup
		for range 8 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
				if want != nil && !bytes.Equal(rec.Body.Bytes(), want) {
					t.Errorf("concurrent hit body differs:\n%s\n----\n%s", rec.Body, want)
				}
			}()
		}
		wg.Wait()
	}

	const path = "/search?q=alpha+beta&slca=1"
	miss := serve(t, h, path)
	if n := encodes(svc); n != 1 {
		t.Fatalf("encodes after the miss = %d, want 1", n)
	}
	if svc.CacheBodyBytes() == 0 {
		t.Fatal("the miss did not leave its bytes with the cache entry")
	}
	first := serve(t, h, path)
	hitAtOnce(path, first.Body.Bytes())
	if n := encodes(svc); n != 1 {
		t.Fatalf("encodes after 9 buffered hits = %d, want still 1", n)
	}
	held := svc.CacheBodyBytes()
	streamed := serve(t, h, path+"&stream=1")
	if n := encodes(svc); n != 2 {
		t.Fatalf("encodes after a stream of a cached page = %d, want 2 (the stream encodes its own lines)", n)
	}
	frags, _ := readLines(t, streamed.Body.Bytes())
	if want := decodeBody(t, miss).Fragments; !reflect.DeepEqual(frags, want) {
		t.Fatalf("streamed lines differ from the buffered fragments:\n%+v\n----\n%+v", frags, want)
	}

	// A stream of an uncached bounded page leaves no entry and no bytes.
	serve(t, h, "/search?q=alpha+beta&slca=1&limit=5&stream=1")
	if n := encodes(svc); n != 3 || svc.CacheLen() != 1 || svc.CacheBodyBytes() != held {
		t.Fatalf("after a streamed miss: %d encodes, %d entries holding %d bytes; want 3, 1 and %d",
			n, svc.CacheLen(), svc.CacheBodyBytes(), held)
	}
}

// TestEncodedBytesDieWithTheEntry: after an append the old bytes are never
// served — a new generation is a new page and a new encode — and an evicted
// entry takes its bytes with it.
func TestEncodedBytesDieWithTheEntry(t *testing.T) {
	engine, err := xks.LoadString(`<bib><paper><title>xml search</title></paper></bib>`)
	if err != nil {
		t.Fatal(err)
	}
	svc := service.New(service.SingleDoc{Name: "bib", Engine: engine}, service.Config{CacheSize: 1})
	h := NewHandler(svc, &Options{AllowWrites: true})

	before := decodeBody(t, serve(t, h, "/search?q=search"))
	if !decodeBody(t, serve(t, h, "/search?q=search")).Cached {
		t.Fatal("repeat was not a hit")
	}
	body, _ := json.Marshal(AppendRequest{Parent: "0", XML: `<paper><title>fresh search result</title></paper>`})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/append", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("append: status %d: %s", rec.Code, rec.Body)
	}
	n := encodes(svc)
	after := decodeBody(t, serve(t, h, "/search?q=search"))
	if after.Cached || len(after.Fragments) <= len(before.Fragments) {
		t.Fatalf("after the append: cached=%t, %d fragments (had %d)", after.Cached, len(after.Fragments), len(before.Fragments))
	}
	if !strings.Contains(after.Fragments[len(after.Fragments)-1].XML, "fresh") {
		t.Fatalf("the appended paper is not in the answer: %+v", after.Fragments)
	}
	if encodes(svc) != n+1 {
		t.Fatalf("encodes across the append: %d -> %d, want one new encode", n, encodes(svc))
	}

	// One entry of capacity: an empty page evicts the page held, and the
	// gauge drops to the newcomer's zero bytes.
	if svc.CacheBodyBytes() == 0 {
		t.Fatal("no bytes held before the eviction")
	}
	serve(t, h, "/search?q=zebra")
	if svc.CacheLen() != 1 || svc.CacheBodyBytes() != 0 {
		t.Fatalf("after the eviction: %d entries holding %d bytes, want 1 holding 0", svc.CacheLen(), svc.CacheBodyBytes())
	}
}

// TestRetainedBytesOnlyWhereTheyBelong: snippets=1 neither fills nor reads
// the retained form (which has no snippets), explain=1 rides the envelope
// of a hit, and pages the cache does not hold — truncated, pinned to an old
// snapshot — are encoded per request and retain nothing.
func TestRetainedBytesOnlyWhereTheyBelong(t *testing.T) {
	engine, err := xks.LoadString(`<bib><paper><title>xml search</title></paper><paper><title>search trees</title></paper></bib>`)
	if err != nil {
		t.Fatal(err)
	}
	svc := service.New(service.SingleDoc{Name: "bib", Engine: engine}, service.Config{CacheSize: 8})
	h := NewHandler(svc, nil)
	reference := func(path string, cached bool) Response {
		req, snippets := requestOf(t, path)
		res, _, err := svc.Search(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		return referenceResponse(req, res, cached, snippets)
	}

	const plain, snip = "/search?q=search", "/search?q=search&snippets=1"
	got := decodeBody(t, serve(t, h, snip))
	if got.Fragments[0].Snippet == "" {
		t.Fatalf("snippets=1 returned no snippet: %+v", got.Fragments[0])
	}
	sameResponse(t, snip, got, reference(snip, false))
	if encodes(svc) != 1 || svc.CacheBodyBytes() != 0 {
		t.Fatalf("a snippets=1 miss: %d encodes, %d bytes retained; want 1 and 0", encodes(svc), svc.CacheBodyBytes())
	}
	got = decodeBody(t, serve(t, h, plain))
	if !got.Cached || got.Fragments[0].Snippet != "" {
		t.Fatalf("plain hit after a snippets miss: %+v", got)
	}
	sameResponse(t, plain, got, reference(plain, true))
	held := svc.CacheBodyBytes()
	if encodes(svc) != 2 || held == 0 {
		t.Fatalf("the first plain hit: %d encodes, %d bytes retained; want 2 and some", encodes(svc), held)
	}
	sameResponse(t, snip+" (hit)", decodeBody(t, serve(t, h, snip)), reference(snip, true))
	if encodes(svc) != 3 || svc.CacheBodyBytes() != held {
		t.Fatalf("a snippets=1 hit: %d encodes, %d bytes retained; want 3 and %d", encodes(svc), svc.CacheBodyBytes(), held)
	}

	got = decodeBody(t, serve(t, h, plain+"&explain=1"))
	if got.Explain == nil || got.Explain.Name != "search" {
		t.Fatalf("explain=1 hit carries no span tree: %+v", got.Explain)
	}
	got.Explain = nil
	sameResponse(t, plain+"&explain=1", got, reference(plain, true))
	if encodes(svc) != 3 {
		t.Fatalf("an explain=1 hit encoded the page again (%d encodes)", encodes(svc))
	}

	// A cursor issued before an append resolves against its pinned
	// snapshot: served, never cached, nothing retained.
	page1 := decodeBody(t, serve(t, h, plain+"&limit=1"))
	if err := engine.AppendXML("0", `<paper><title>fresh search result</title></paper>`); err != nil {
		t.Fatal(err)
	}
	held, n := svc.CacheBodyBytes(), encodes(svc)
	stale := plain + "&limit=1&cursor=" + url.QueryEscape(page1.Cursor)
	for range 2 {
		got = decodeBody(t, serve(t, h, stale))
		if got.Cached || len(got.Fragments) != 1 || strings.Contains(got.Fragments[0].XML, "fresh") {
			t.Fatalf("pinned page 2: %+v", got)
		}
	}
	if encodes(svc) != n+2 || svc.CacheBodyBytes() != held {
		t.Fatalf("two pinned pages: %d encodes, %d bytes retained; want %d and %d", encodes(svc), svc.CacheBodyBytes(), n+2, held)
	}

	// A best-effort deadline truncates the page: 200, uncached.
	heavy := datagen.DBLP(datagen.DBLPConfig{
		Seed:       42,
		NumRecords: 2000,
		Keywords:   []datagen.KeywordSpec{{Word: "alpha", Count: 4000}, {Word: "beta", Count: 4000}},
	})
	hsvc := service.New(service.SingleDoc{Name: "heavy", Engine: xks.FromTree(heavy)}, service.Config{CacheSize: 8})
	got = decodeBody(t, serve(t, NewHandler(hsvc, nil), "/search?q=alpha+beta&timeout=1ns&budget=best-effort"))
	if !got.Truncated || got.Truncation == "" {
		t.Fatalf("best-effort page: %+v", got)
	}
	if hsvc.CacheLen() != 0 || hsvc.CacheBodyBytes() != 0 {
		t.Fatalf("a truncated page was retained: %d entries, %d bytes", hsvc.CacheLen(), hsvc.CacheBodyBytes())
	}
}
