package httpapi

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"xks"
	"xks/internal/admission"
	"xks/internal/reference"
	"xks/internal/service"
	"xks/internal/trace"
)

// --- /metrics exposition format ---

var (
	helpLine = regexp.MustCompile(`^# HELP ([a-zA-Z_:][a-zA-Z0-9_:]*) .+$`)
	typeLine = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram|summary|untyped)$`)
	// sampleLine matches `name{labels} value` and `name value`; labels and
	// the capture groups keep the test's parser small, not fully general.
	sampleLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?[0-9.e+-]+|\+Inf|NaN)$`)
)

// catalogueRow is one row of the README's metric catalogue: the family in
// backticks, then its type.
var catalogueRow = regexp.MustCompile("^\\| `(xks_[a-z_]+)` \\| (counter|gauge|histogram|summary) \\| .+ \\|$")

// TestMetricCatalogue holds the README's metric catalogue to what /metrics
// emits: every family the service and the admission controller write — the
// store gauges included, which only a store-backed server writes — is a
// row of the catalogue with its type, and every row names an emitted
// family.
func TestMetricCatalogue(t *testing.T) {
	svc := service.New(service.SingleDoc{Name: "d", Engine: xks.FromTree(reference.Publications())}, service.Config{CacheSize: 4})
	svc.Metrics().SetStoreOpen(service.StoreOpenInfo{Mode: "v3-mmap"})
	var b strings.Builder
	svc.WritePrometheus(&b)
	admission.New(admission.Config{MaxInFlight: 1}).WritePrometheus(&b)
	emitted := map[string]string{}
	for _, line := range strings.Split(b.String(), "\n") {
		if m := typeLine.FindStringSubmatch(line); m != nil {
			emitted[m[1]] = m[2]
		}
	}

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]string{}
	in := false
	for _, line := range strings.Split(string(readme), "\n") {
		line = strings.TrimSpace(line)
		switch {
		case line == "| family | type | what moves it |":
			in = true
		case !in || strings.HasPrefix(line, "|---"):
		case !strings.HasPrefix(line, "|"):
			in = false
		default:
			m := catalogueRow.FindStringSubmatch(line)
			if m == nil {
				t.Errorf("malformed catalogue row %q", line)
				continue
			}
			listed[m[1]] = m[2]
		}
	}
	if len(listed) == 0 {
		t.Fatal("README.md has no metric catalogue (a table headed | family | type | what moves it |)")
	}
	for family, typ := range emitted {
		if got, ok := listed[family]; !ok {
			t.Errorf("/metrics emits %s (%s), which the README's catalogue does not list", family, typ)
		} else if got != typ {
			t.Errorf("the README's catalogue lists %s as a %s; /metrics emits a %s", family, got, typ)
		}
	}
	for family := range listed {
		if _, ok := emitted[family]; !ok {
			t.Errorf("the README's catalogue lists %s, which /metrics never emits", family)
		}
	}
}

// scrape fetches /metrics and parses it into name{labels} → value,
// validating every line against the text exposition grammar.
func scrape(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("GET /metrics: content type %q", ct)
	}
	samples := map[string]float64{}
	typed := map[string]string{}
	var lastFamily string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			if !helpLine.MatchString(line) {
				t.Fatalf("malformed HELP line: %q", line)
			}
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			m := typeLine.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			if _, dup := typed[m[1]]; dup {
				t.Fatalf("duplicate TYPE for family %s", m[1])
			}
			typed[m[1]] = m[2]
			lastFamily = m[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unexpected comment line: %q", line)
		}
		m := sampleLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed sample line: %q", line)
		}
		name := m[1]
		family := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if typed[family] == "" {
			t.Fatalf("sample %q precedes its TYPE line", line)
		}
		if family != lastFamily {
			t.Fatalf("sample %q outside its family block (last TYPE %s)", line, lastFamily)
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Fatalf("unparsable value in %q: %v", line, err)
		}
		key := name + m[2]
		if _, dup := samples[key]; dup {
			t.Fatalf("duplicate sample %q", key)
		}
		samples[key] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, fam := range []string{
		"xks_requests_total", "xks_request_errors_total",
		"xks_cache_hits_total", "xks_cache_misses_total",
		"xks_collapsed_requests_total", "xks_streamed_requests_total",
		"xks_truncated_results_total",
		"xks_request_duration_seconds", "xks_stage_duration_seconds",
		"xks_cache_entries", "xks_corpus_documents", "xks_corpus_generation",
	} {
		if _, ok := typed[fam]; !ok {
			t.Fatalf("family %s missing from exposition", fam)
		}
	}
	return samples
}

// checkHistogram asserts the Prometheus histogram invariants for one
// series: cumulative non-decreasing buckets ending at +Inf == _count.
func checkHistogram(t *testing.T, samples map[string]float64, name, labels string) {
	t.Helper()
	sep := ""
	if labels != "" {
		sep = ","
	}
	prev := -1.0
	var inf float64
	n := 0
	for key, v := range samples {
		if !strings.HasPrefix(key, name+"_bucket{"+labels+sep+"le=") &&
			!(labels == "" && strings.HasPrefix(key, name+"_bucket{le=")) {
			continue
		}
		n++
		if strings.Contains(key, `le="+Inf"`) {
			inf = v
		}
	}
	if n == 0 {
		t.Fatalf("no buckets found for %s{%s}", name, labels)
	}
	// Re-walk in bound order to check monotonicity: extract the le values.
	var bounds []float64
	for key := range samples {
		if !strings.HasPrefix(key, name+"_bucket") || !strings.Contains(key, labels) {
			continue
		}
		le := key[strings.Index(key, `le="`)+4:]
		le = le[:strings.Index(le, `"`)]
		if le == "+Inf" {
			continue
		}
		b, err := strconv.ParseFloat(le, 64)
		if err != nil {
			t.Fatalf("bad le in %q: %v", key, err)
		}
		bounds = append(bounds, b)
	}
	for i := range bounds {
		for j := i + 1; j < len(bounds); j++ {
			if bounds[j] < bounds[i] {
				bounds[i], bounds[j] = bounds[j], bounds[i]
			}
		}
	}
	for _, b := range bounds {
		le := strconv.FormatFloat(b, 'g', -1, 64)
		var key string
		if labels == "" {
			key = fmt.Sprintf(`%s_bucket{le="%s"}`, name, le)
		} else {
			key = fmt.Sprintf(`%s_bucket{%s,le="%s"}`, name, labels, le)
		}
		v, ok := samples[key]
		if !ok {
			t.Fatalf("missing bucket %s", key)
		}
		if v < prev {
			t.Fatalf("bucket %s not cumulative: %v < %v", key, v, prev)
		}
		prev = v
	}
	if inf < prev {
		t.Fatalf("+Inf bucket of %s{%s} below last bound: %v < %v", name, labels, inf, prev)
	}
	countKey := name + "_count"
	sumKey := name + "_sum"
	if labels != "" {
		countKey += "{" + labels + "}"
		sumKey += "{" + labels + "}"
	}
	count, ok := samples[countKey]
	if !ok {
		t.Fatalf("missing %s", countKey)
	}
	if count != inf {
		t.Fatalf("%s = %v, +Inf bucket = %v; must match", countKey, count, inf)
	}
	if sum, ok := samples[sumKey]; !ok || sum < 0 {
		t.Fatalf("missing or negative %s (%v)", sumKey, sum)
	}
}

func TestMetricsExposition(t *testing.T) {
	srv, corpus := corpusServer(t)

	// Drive some traffic: two identical searches (miss then hit), one
	// streamed, one error.
	for _, q := range []string{
		"/search?q=liu+keyword", "/search?q=liu+keyword",
		"/search?q=liu+keyword&stream=1&limit=1", "/search?q=liu+keyword&doc=missing",
	} {
		resp, err := http.Get(srv.URL + q)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	first := scrape(t, srv.URL)
	if first["xks_requests_total"] < 4 {
		t.Fatalf("xks_requests_total = %v, want >= 4", first["xks_requests_total"])
	}
	if first["xks_request_errors_total"] < 1 {
		t.Fatalf("xks_request_errors_total = %v, want >= 1", first["xks_request_errors_total"])
	}
	if first["xks_cache_hits_total"] < 1 {
		t.Fatalf("xks_cache_hits_total = %v, want >= 1", first["xks_cache_hits_total"])
	}
	if first["xks_streamed_requests_total"] < 1 {
		t.Fatalf("xks_streamed_requests_total = %v, want >= 1", first["xks_streamed_requests_total"])
	}
	if first["xks_corpus_documents"] != 2 {
		t.Fatalf("xks_corpus_documents = %v, want 2", first["xks_corpus_documents"])
	}
	// The buffered miss and the live stream each encoded a page; the hit was
	// served from the bytes the miss left with its cache entry.
	if first["xks_response_encodes_total"] != 2 {
		t.Fatalf("xks_response_encodes_total = %v, want 2", first["xks_response_encodes_total"])
	}
	if first["xks_cache_body_bytes"] <= 0 {
		t.Fatalf("xks_cache_body_bytes = %v, want > 0", first["xks_cache_body_bytes"])
	}

	checkHistogram(t, first, "xks_request_duration_seconds", "")
	for _, stage := range []string{"plan", "candidates", "select", "materialize"} {
		checkHistogram(t, first, "xks_stage_duration_seconds", `stage="`+stage+`"`)
	}
	// Only real executions observe stages: 1 miss + 1 streamed = 2, the
	// cache hit must not inflate the count.
	if got := first[`xks_stage_duration_seconds_count{stage="candidates"}`]; got != 2 {
		t.Fatalf(`stage count = %v, want 2 (cache hits must not observe stages)`, got)
	}

	// Counters are monotonic across scrapes (more traffic in between).
	resp, err := http.Get(srv.URL + "/search?q=liu+keyword")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	second := scrape(t, srv.URL)
	for _, c := range []string{
		"xks_requests_total", "xks_request_errors_total",
		"xks_cache_hits_total", "xks_cache_misses_total",
		"xks_collapsed_requests_total", "xks_streamed_requests_total",
		"xks_truncated_results_total", "xks_request_duration_seconds_count",
		"xks_response_encodes_total",
	} {
		if second[c] < first[c] {
			t.Fatalf("counter %s went backwards: %v -> %v", c, first[c], second[c])
		}
	}
	if second["xks_response_encodes_total"] != first["xks_response_encodes_total"] {
		t.Fatalf("a cache hit encoded a page: xks_response_encodes_total %v -> %v",
			first["xks_response_encodes_total"], second["xks_response_encodes_total"])
	}
	if second["xks_requests_total"] != first["xks_requests_total"]+1 {
		t.Fatalf("xks_requests_total: %v -> %v, want +1", first["xks_requests_total"], second["xks_requests_total"])
	}

	// The write side: an append is counted and timed and leaves merged lists
	// in the live overlay; a compaction hands them to the base.
	for _, fam := range []string{"xks_appends_total", "xks_append_duration_seconds_count", "xks_delta_merged_lists", "xks_delta_merged_ids"} {
		if v, ok := second[fam]; !ok || v != 0 {
			t.Fatalf("%s = %v (present %v) before any write, want 0", fam, v, ok)
		}
	}
	if err := corpus.AppendXML("publications", "0", "<paper><title>fresh keyword</title></paper>"); err != nil {
		t.Fatal(err)
	}
	written := scrape(t, srv.URL)
	if written["xks_appends_total"] != 1 || written["xks_append_duration_seconds_count"] != 1 || written["xks_append_duration_seconds_sum"] <= 0 {
		t.Fatalf("after one append: xks_appends_total %v, duration count %v sum %v", written["xks_appends_total"],
			written["xks_append_duration_seconds_count"], written["xks_append_duration_seconds_sum"])
	}
	if lists, ids := written["xks_delta_merged_lists"], written["xks_delta_merged_ids"]; lists < 1 || ids < lists || written["xks_delta_segments"] != 1 {
		t.Fatalf("after one append: %v merged lists holding %v IDs over %v segments", lists, ids, written["xks_delta_segments"])
	}
	if _, err := corpus.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	folded := scrape(t, srv.URL)
	if folded["xks_delta_merged_lists"] != 0 || folded["xks_delta_merged_ids"] != 0 || folded["xks_appends_total"] != 1 {
		t.Fatalf("after compaction: %v merged lists, %v IDs, %v appends; want 0, 0, 1",
			folded["xks_delta_merged_lists"], folded["xks_delta_merged_ids"], folded["xks_appends_total"])
	}
}

// --- explain=1 ---

// spanNames collects every span name of an explain tree.
func spanNames(sp *trace.SpanJSON, into map[string]*trace.SpanJSON) {
	if sp == nil {
		return
	}
	into[sp.Name] = sp
	for _, c := range sp.Children {
		spanNames(c, into)
	}
}

func TestSearchExplain(t *testing.T) {
	srv, _ := corpusServer(t)
	code, out := getJSON(t, srv.URL+"/search?q=liu+keyword&rank=1&limit=2&explain=1")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if out.Explain == nil {
		t.Fatal("explain=1 returned no explain tree")
	}
	if out.Explain.Name != "search" {
		t.Fatalf("root span %q, want search", out.Explain.Name)
	}
	if out.Explain.DurationMS < 0 {
		t.Fatalf("root duration %v", out.Explain.DurationMS)
	}
	seen := map[string]*trace.SpanJSON{}
	spanNames(out.Explain, seen)
	for _, stage := range []string{"plan", "candidates", "select", "materialize"} {
		if seen[stage] == nil {
			t.Fatalf("stage span %q missing from explain tree; got %v", stage, keys(seen))
		}
	}
	// The serving layer annotates the root: cache disposition + generation.
	if seen["search"].Attrs["cache"] == nil {
		t.Fatal("root span missing cache attr")
	}
	// Candidate counts surface on the select span.
	sel := seen["select"]
	if sel.Attrs["candidates"] == nil || sel.Attrs["selected"] == nil {
		t.Fatalf("select span missing counters: %v", sel.Attrs)
	}
	// Per-document fan-out appears under candidates.
	if seen["doc:publications"] == nil || seen["doc:team"] == nil {
		t.Fatalf("per-document spans missing: %v", keys(seen))
	}

	// Without explain=1 the field is absent.
	_, plain := getJSON(t, srv.URL+"/search?q=liu+keyword&rank=1&limit=2")
	if plain.Explain != nil {
		t.Fatal("explain tree present without explain=1")
	}
}

func TestStreamExplainTrailer(t *testing.T) {
	srv, _ := corpusServer(t)
	resp, err := http.Get(srv.URL + "/search?q=liu+keyword&stream=1&limit=2&explain=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var trailer StreamTrailer
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var probe struct {
			Trailer bool `json:"trailer"`
		}
		if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if probe.Trailer {
			if err := json.Unmarshal(sc.Bytes(), &trailer); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !trailer.Trailer {
		t.Fatal("no trailer record")
	}
	if trailer.Explain == nil {
		t.Fatal("stream trailer missing explain tree")
	}
	seen := map[string]*trace.SpanJSON{}
	spanNames(trailer.Explain, seen)
	for _, stage := range []string{"plan", "candidates", "select", "materialize"} {
		if seen[stage] == nil {
			t.Fatalf("stage span %q missing from stream explain; got %v", stage, keys(seen))
		}
	}
}

func keys(m map[string]*trace.SpanJSON) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// --- request-ID middleware + access log ---

func TestRequestIDAndAccessLog(t *testing.T) {
	var buf strings.Builder
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	c := xks.NewCorpus()
	c.Add("publications", xks.FromTree(reference.Publications()))
	svc := service.New(c, service.Config{CacheSize: 16})
	srv := httptest.NewServer(NewHandler(svc, &Options{Logger: logger}))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/search?q=liu+keyword")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	generated := resp.Header.Get("X-Request-Id")
	if generated == "" {
		t.Fatal("no X-Request-Id generated")
	}

	req, _ := http.NewRequest("GET", srv.URL+"/healthz", nil)
	req.Header.Set("X-Request-Id", "caller-supplied-1")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Request-Id"); got != "caller-supplied-1" {
		t.Fatalf("caller request ID not echoed: %q", got)
	}

	logs := buf.String()
	if !strings.Contains(logs, generated) {
		t.Fatalf("access log missing generated request ID %s:\n%s", generated, logs)
	}
	if !strings.Contains(logs, "caller-supplied-1") {
		t.Fatalf("access log missing caller request ID:\n%s", logs)
	}
	if !strings.Contains(logs, `"path":"/search"`) || !strings.Contains(logs, `"status":200`) {
		t.Fatalf("access log missing fields:\n%s", logs)
	}
}

func TestSlowQueryLog(t *testing.T) {
	var buf strings.Builder
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	c := xks.NewCorpus()
	c.Add("publications", xks.FromTree(reference.Publications()))
	svc := service.New(c, service.Config{})
	// A 1ns threshold makes every query slow, so the log must fire.
	srv := httptest.NewServer(NewHandler(svc, &Options{Logger: logger, SlowQuery: 1}))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/search?q=liu+keyword")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	logs := buf.String()
	if !strings.Contains(logs, "slow query") {
		t.Fatalf("no slow-query line:\n%s", logs)
	}
	// The slow log carries the full explain tree, stage names included.
	for _, stage := range []string{"plan", "candidates", "select", "materialize"} {
		if !strings.Contains(logs, stage) {
			t.Fatalf("slow-query explain missing stage %q:\n%s", stage, logs)
		}
	}
}
