package httpapi

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"xks"
	"xks/internal/reference"
	"xks/internal/service"
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	svc := service.New(
		service.SingleDoc{Name: "publications.xml", Engine: xks.FromTree(reference.Publications())},
		service.Config{CacheSize: 64},
	)
	srv := httptest.NewServer(NewHandler(svc, nil))
	t.Cleanup(srv.Close)
	return srv
}

func corpusServer(t *testing.T) (*httptest.Server, *xks.Corpus) {
	t.Helper()
	c := xks.NewCorpus()
	c.Add("publications", xks.FromTree(reference.Publications()))
	c.Add("team", xks.FromTree(reference.Team()))
	svc := service.New(c, service.Config{CacheSize: 64})
	srv := httptest.NewServer(NewHandler(svc, nil))
	t.Cleanup(srv.Close)
	return srv, c
}

func getJSON(t *testing.T, url string) (int, *Response) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil
	}
	var out Response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, &out
}

func decodeInto(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode
}

func TestHealthz(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status = %d", resp.StatusCode)
	}
}

func TestSearchBasic(t *testing.T) {
	srv := testServer(t)
	code, out := getJSON(t, srv.URL+"/search?q=liu+keyword")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if out.NumLCAs != 2 || len(out.Fragments) != 2 {
		t.Fatalf("response = %+v", out)
	}
	if out.Fragments[0].Root != "0.2.0" || !out.Fragments[1].IsSLCA {
		t.Errorf("fragments = %+v", out.Fragments)
	}
	if out.Fragments[0].Document != "publications.xml" {
		t.Errorf("document = %q", out.Fragments[0].Document)
	}
	if !strings.Contains(out.Fragments[0].XML, "<article>") {
		t.Errorf("xml missing: %q", out.Fragments[0].XML)
	}
	if len(out.Keywords) != 2 || out.ElapsedMS < 0 {
		t.Errorf("stats = %+v", out)
	}
	if out.Cached {
		t.Error("first request should not be cached")
	}
}

func TestSearchRepeatIsCacheHit(t *testing.T) {
	srv := testServer(t)
	_, first := getJSON(t, srv.URL+"/search?q=liu+keyword")
	if first.Cached {
		t.Fatal("cold request marked cached")
	}
	_, second := getJSON(t, srv.URL+"/search?q=liu+keyword")
	if !second.Cached {
		t.Fatal("repeated request should be a cache hit")
	}
	if len(second.Fragments) != len(first.Fragments) {
		t.Errorf("cached fragments = %d, want %d", len(second.Fragments), len(first.Fragments))
	}
	m := scrape(t, srv.URL)
	if m["xks_cache_hits_total"] != 1 || m["xks_cache_misses_total"] != 1 {
		t.Errorf("hits/misses = %v/%v, want 1/1", m["xks_cache_hits_total"], m["xks_cache_misses_total"])
	}
}

func TestSearchOptions(t *testing.T) {
	srv := testServer(t)
	// SLCA-only restricts to one fragment.
	_, slca := getJSON(t, srv.URL+"/search?q=liu+keyword&slca=1")
	if len(slca.Fragments) != 1 {
		t.Errorf("slca fragments = %d", len(slca.Fragments))
	}
	// Ranked results carry scores.
	_, ranked := getJSON(t, srv.URL+"/search?q=liu+keyword&rank=1")
	if ranked.Fragments[0].Score <= 0 {
		t.Errorf("ranked score = %v", ranked.Fragments[0].Score)
	}
	// Limit.
	_, limited := getJSON(t, srv.URL+"/search?q=liu+keyword&limit=1")
	if len(limited.Fragments) != 1 {
		t.Errorf("limited fragments = %d", len(limited.Fragments))
	}
	// Snippets on demand.
	_, snip := getJSON(t, srv.URL+"/search?q=liu+keyword&snippets=1")
	if !strings.Contains(snip.Fragments[0].Snippet, "[") {
		t.Errorf("snippet = %q", snip.Fragments[0].Snippet)
	}
	// MaxMatch algorithm selector.
	code, _ := getJSON(t, srv.URL+"/search?q=liu+keyword&algo=maxmatch")
	if code != http.StatusOK {
		t.Errorf("maxmatch status = %d", code)
	}
}

func TestSearchErrors(t *testing.T) {
	srv := testServer(t)
	cases := []string{
		"/search",                      // missing q
		"/search?q=the+of",             // unsearchable query
		"/search?q=liu&algo=bogus",     // unknown algorithm
		"/search?q=liu&limit=notanint", // bad limit
		"/search?q=liu&limit=-3",       // negative limit
	}
	for _, path := range cases {
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

func TestSearchUnknownDocumentIs404(t *testing.T) {
	srv, _ := corpusServer(t)
	resp, err := http.Get(srv.URL + "/search?q=liu&doc=absent.xml")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status = %d, want 404", resp.StatusCode)
	}
}

func TestSearchDocumentFilter(t *testing.T) {
	srv, _ := corpusServer(t)
	// Corpus-wide: "name" matches both documents.
	_, all := getJSON(t, srv.URL+"/search?q=name")
	if all.PerDocument["publications"] == 0 || all.PerDocument["team"] == 0 {
		t.Fatalf("perDocument = %v", all.PerDocument)
	}
	// Filtered to one document.
	_, team := getJSON(t, srv.URL+"/search?q=name&doc=team")
	if len(team.Fragments) == 0 || len(team.Fragments) >= len(all.Fragments) {
		t.Errorf("filtered fragments = %d of %d", len(team.Fragments), len(all.Fragments))
	}
	for _, f := range team.Fragments {
		if f.Document != "team" {
			t.Errorf("fragment from %q", f.Document)
		}
	}
}

func TestDocumentsEndpoint(t *testing.T) {
	srv, _ := corpusServer(t)
	var out DocumentsResponse
	if code := decodeInto(t, srv.URL+"/documents", &out); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if len(out.Documents) != 2 {
		t.Fatalf("documents = %+v", out.Documents)
	}
	if out.Documents[0].Name != "publications" || out.Documents[1].Name != "team" {
		t.Errorf("names/order = %+v", out.Documents)
	}
	for _, d := range out.Documents {
		if d.Words == 0 || d.Nodes == 0 {
			t.Errorf("document %s missing index sizes: %+v", d.Name, d)
		}
	}
}

// TestStatsEndpoint: /metrics is the server's one metrics surface — GET
// /stats is gone (404) — and it carries every figure the JSON endpoint
// did: the corpus and cache gauges, the request counters, and the latency
// histogram the average and quantiles derive from.
func TestStatsEndpoint(t *testing.T) {
	srv, c := corpusServer(t)
	getJSON(t, srv.URL+"/search?q=name")
	getJSON(t, srv.URL+"/search?q=name") // cache hit
	resp, err := http.Get(srv.URL + "/search?q=the+of")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close() // error request

	resp, err = http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /stats: status %d, want 404", resp.StatusCode)
	}

	m := scrape(t, srv.URL)
	for series, want := range map[string]float64{
		"xks_corpus_documents":               2,
		"xks_corpus_generation":              float64(c.Generation()),
		"xks_cache_entries":                  1,
		"xks_response_encodes_total":         1, // the miss; the hit is served from its bytes
		"xks_requests_total":                 3,
		"xks_request_errors_total":           1,
		"xks_cache_hits_total":               1,
		"xks_cache_misses_total":             2,
		"xks_request_duration_seconds_count": 3,
	} {
		if m[series] != want {
			t.Errorf("%s = %v, want %v", series, m[series], want)
		}
	}
	if m["xks_cache_body_bytes"] <= 0 {
		t.Errorf("xks_cache_body_bytes = %v, want the one entry's encoded page", m["xks_cache_body_bytes"])
	}
	if m["xks_request_duration_seconds_sum"] < 0 || m[`xks_request_duration_seconds_bucket{le="+Inf"}`] != 3 {
		t.Errorf("latency histogram: _sum %v, +Inf bucket %v", m["xks_request_duration_seconds_sum"], m[`xks_request_duration_seconds_bucket{le="+Inf"}`])
	}
}

func TestAppendInvalidatesOverHTTP(t *testing.T) {
	engine, err := xks.LoadString(`<bib><paper><title>xml search</title></paper></bib>`)
	if err != nil {
		t.Fatal(err)
	}
	svc := service.New(service.SingleDoc{Name: "bib", Engine: engine}, service.Config{CacheSize: 8})
	srv := httptest.NewServer(NewHandler(svc, nil))
	t.Cleanup(srv.Close)

	_, cold := getJSON(t, srv.URL+"/search?q=search")
	_, warm := getJSON(t, srv.URL+"/search?q=search")
	if cold.Cached || !warm.Cached {
		t.Fatalf("cold/warm cached = %t/%t", cold.Cached, warm.Cached)
	}
	if err := engine.AppendXML("0", `<paper><title>fresh search result</title></paper>`); err != nil {
		t.Fatal(err)
	}
	_, after := getJSON(t, srv.URL+"/search?q=search")
	if after.Cached {
		t.Error("append should have invalidated the cached entry")
	}
	if len(after.Fragments) <= len(warm.Fragments) {
		t.Errorf("fragments after append = %d, want > %d", len(after.Fragments), len(warm.Fragments))
	}
}

func TestSearchNoMatchIsEmptyOK(t *testing.T) {
	srv := testServer(t)
	code, out := getJSON(t, srv.URL+"/search?q=zebra+liu")
	if code != http.StatusOK || len(out.Fragments) != 0 {
		t.Errorf("no-match response: %d %+v", code, out)
	}
}

func TestPredicateQueryOverHTTP(t *testing.T) {
	srv := testServer(t)
	code, out := getJSON(t, srv.URL+"/search?q=title:skyline+wong")
	if code != http.StatusOK || len(out.Fragments) != 1 {
		t.Fatalf("predicate query: %d %+v", code, out)
	}
}
