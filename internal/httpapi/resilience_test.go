package httpapi

// Resilience tests at the HTTP boundary: the admission front door sheds
// overload fast with 429 + Retry-After while admitted requests stay
// bounded, a draining server answers 503 + Connection: close (and flips
// /healthz) while in-flight requests finish, and a recovered pipeline
// panic maps to an opaque 500 with the stack in the structured log — never
// in the response body. The fault harness (internal/fault) is installed as
// request-context middleware, the same way a chaos proxy would.

import (
	"bytes"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"xks"
	"xks/internal/admission"
	"xks/internal/fault"
	"xks/internal/reference"
	"xks/internal/service"
)

// syncBuffer is a concurrency-safe bytes.Buffer for capturing slog output
// across handler goroutines.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// resilienceServer builds a corpus-backed server with the given options,
// installing plan on every request context when non-nil.
func resilienceServer(t *testing.T, opts *Options, plan *fault.Plan) *httptest.Server {
	t.Helper()
	c := xks.NewCorpus()
	c.Add("publications", xks.FromTree(reference.Publications()))
	c.Add("team", xks.FromTree(reference.Team()))
	svc := service.New(c, service.Config{CacheSize: 64})
	h := NewHandler(svc, opts)
	if plan != nil {
		inner := h
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			inner.ServeHTTP(w, r.WithContext(fault.NewContext(r.Context(), plan)))
		})
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv
}

func get(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

// TestOverloadShedsFastWithRetryAfter pins the overload contract: with one
// execution slot held (an injected in-slot delay) and the queue disabled,
// every further search sheds with 429 + Retry-After — and shedding is
// non-blocking, so rejection latency stays under the 10ms bound (asserted
// on the median to tolerate CI scheduler blips; no probe may block for
// real). Cache misses are forced by varying the query so probes never
// bypass admission... they don't: admission gates before the cache, so an
// identical query sheds too — asserted last.
func TestOverloadShedsFastWithRetryAfter(t *testing.T) {
	adm := admission.New(admission.Config{MaxInFlight: 1, MaxQueue: -1})
	// The congestor holds its admitted slot inside the handler until its
	// own 400ms timeout expires.
	plan := fault.NewPlan(fault.Rule{
		Point:  fault.PointAdmission,
		Count:  1,
		Action: fault.Action{UntilDeadline: true},
	})
	srv := resilienceServer(t, &Options{Admission: adm}, plan)

	congested := make(chan struct{})
	go func() {
		defer close(congested)
		resp, _ := get(t, srv.URL+"/search?q=dynamic+skyline&timeout=400ms")
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Errorf("congestor status = %d, want 504 (deadline burned in-slot)", resp.StatusCode)
		}
	}()
	// Wait until the congestor holds the only slot.
	deadline := time.Now().Add(2 * time.Second)
	for adm.Stats().InFlight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("congestor never acquired the slot")
		}
		time.Sleep(time.Millisecond)
	}

	const probes = 20
	lat := make([]time.Duration, 0, probes)
	for i := 0; i < probes; i++ {
		start := time.Now()
		resp, _ := get(t, srv.URL+"/search?q=xml+query")
		d := time.Since(start)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("probe %d: status = %d, want 429", i, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("probe %d: shed response carries no Retry-After", i)
		}
		lat = append(lat, d)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	if med := lat[probes/2]; med >= 10*time.Millisecond {
		t.Errorf("median shed latency %v, want < 10ms", med)
	}
	if worst := lat[probes-1]; worst >= time.Second {
		t.Errorf("worst shed latency %v: the shed path blocked", worst)
	}
	<-congested

	if s := adm.Stats(); s.ShedFull != probes {
		t.Errorf("shedQueueFull = %d, want %d", s.ShedFull, probes)
	}
}

// TestOverloadAdmittedLatencyBounded pins the other half of the overload
// contract: requests that are admitted (queued behind two slots) all
// complete, and their p99 stays bounded by queue wait + execution — the
// front door degrades by rejecting, not by stretching admitted latency
// without limit.
func TestOverloadAdmittedLatencyBounded(t *testing.T) {
	adm := admission.New(admission.Config{MaxInFlight: 2, MaxQueue: 64})
	srv := resilienceServer(t, &Options{Admission: adm}, nil)

	const n = 24
	durs := make([]time.Duration, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start := time.Now()
			resp, _ := get(t, srv.URL+"/search?q=dynamic+skyline+query&rank=1&limit=2")
			durs[i] = time.Since(start)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("admitted request %d: status = %d, want 200", i, resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	if p99 := durs[n-1]; p99 > 5*time.Second {
		t.Errorf("admitted p99 = %v, want bounded well under the queue-wait cap", p99)
	}
	if s := adm.Stats(); s.Admitted == 0 || s.InFlight != 0 {
		t.Errorf("stats = %+v, want every slot released", s)
	}
}

// TestDrainRejectsNewFinishesInFlight pins the xkserver SIGTERM sequence:
// Drain() makes new searches answer 503 + Connection: close and /healthz
// unhealthy, while a request already inside its slot runs to completion.
func TestDrainRejectsNewFinishesInFlight(t *testing.T) {
	adm := admission.New(admission.Config{MaxInFlight: 4})
	// The in-flight request holds its slot ~150ms across the drain flip.
	plan := fault.NewPlan(fault.Rule{
		Point:  fault.PointAdmission,
		Count:  1,
		Action: fault.Action{Delay: 150 * time.Millisecond},
	})
	srv := resilienceServer(t, &Options{Admission: adm}, plan)

	type outcome struct {
		status int
		body   string
	}
	inflight := make(chan outcome, 1)
	go func() {
		resp, body := get(t, srv.URL+"/search?q=dynamic+skyline+query")
		inflight <- outcome{resp.StatusCode, body}
	}()
	deadline := time.Now().Add(2 * time.Second)
	for adm.Stats().InFlight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("in-flight request never acquired its slot")
		}
		time.Sleep(time.Millisecond)
	}

	adm.Drain()

	resp, body := get(t, srv.URL+"/search?q=xml+keyword")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain search status = %d, want 503", resp.StatusCode)
	}
	if !strings.Contains(body, "draining") {
		t.Errorf("post-drain body = %q, want the draining notice", body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("post-drain search carries no Retry-After")
	}
	if !resp.Close && !strings.Contains(strings.ToLower(resp.Header.Get("Connection")), "close") {
		t.Error("post-drain search did not signal Connection: close")
	}

	hresp, hbody := get(t, srv.URL+"/healthz")
	if hresp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(hbody, "draining") {
		t.Errorf("draining /healthz = %d %q, want 503 draining", hresp.StatusCode, hbody)
	}

	got := <-inflight
	if got.status != http.StatusOK {
		t.Fatalf("in-flight request finished %d, want 200 across the drain flip", got.status)
	}
	if !strings.Contains(got.body, "fragments") {
		t.Errorf("in-flight response lost its payload: %q", got.body)
	}
}

// TestPanicOverHTTPIs500Opaque pins the panic policy at the boundary: an
// injected worker panic answers 500 with an opaque body — the panic value
// and stack appear in the structured log, never in the response — and the
// recovered-panic counter rides the Prometheus exposition.
func TestPanicOverHTTPIs500Opaque(t *testing.T) {
	var logBuf syncBuffer
	logger := slog.New(slog.NewJSONHandler(&logBuf, nil))
	plan := fault.NewPlan(fault.Rule{
		Point:  fault.PointCandidates,
		Count:  1,
		Action: fault.Action{PanicMsg: "chaos: secret internals"},
	})
	srv := resilienceServer(t, &Options{Logger: logger}, plan)

	resp, body := get(t, srv.URL+"/search?q=dynamic+skyline+query")
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	if strings.TrimSpace(body) != "internal error" {
		t.Errorf("body = %q, want the opaque internal-error line", body)
	}
	if strings.Contains(body, "secret internals") || strings.Contains(body, "goroutine") {
		t.Errorf("response leaked panic details: %q", body)
	}

	logged := logBuf.String()
	if !strings.Contains(logged, "panic recovered") {
		t.Errorf("log has no panic-recovered line:\n%s", logged)
	}
	if !strings.Contains(logged, "secret internals") || !strings.Contains(logged, "goroutine") {
		t.Errorf("log is missing the panic value or stack:\n%s", logged)
	}

	_, metrics := get(t, srv.URL+"/metrics")
	if !strings.Contains(metrics, "xks_panic_recovered_total 1") {
		t.Errorf("metrics missing the recovered-panic count:\n%s", grepMetrics(metrics, "panic"))
	}

	// The server still serves: the panic cost one request, not the process.
	if resp, _ := get(t, srv.URL+"/search?q=dynamic+skyline+query"); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-panic search status = %d, want 200", resp.StatusCode)
	}
}

// TestMetricsExposesResilienceFamilies pins the /metrics families the CI
// stream-smoke job greps for: the admission counters and gauges plus the
// panic counter, present even when all are zero.
func TestMetricsExposesResilienceFamilies(t *testing.T) {
	adm := admission.New(admission.Config{MaxInFlight: 8})
	srv := resilienceServer(t, &Options{Admission: adm}, nil)
	if resp, _ := get(t, srv.URL+"/search?q=dynamic+skyline"); resp.StatusCode != http.StatusOK {
		t.Fatalf("search failed: %d", resp.StatusCode)
	}

	_, body := get(t, srv.URL+"/metrics")
	for _, family := range []string{
		"xks_admission_admitted_total",
		"xks_admission_queued_total",
		`xks_admission_shed_total{reason="queue-full"}`,
		`xks_admission_shed_total{reason="queue-timeout"}`,
		`xks_admission_shed_total{reason="draining"}`,
		"xks_admission_inflight",
		"xks_admission_queue_depth",
		"xks_admission_draining",
		"xks_panic_recovered_total",
	} {
		if !strings.Contains(body, family) {
			t.Errorf("/metrics missing %s", family)
		}
	}
	if !strings.Contains(body, "xks_admission_admitted_total 1") {
		t.Errorf("admitted count not exported:\n%s", grepMetrics(body, "admission"))
	}
}

// grepMetrics filters an exposition body to lines containing substr, for
// readable failure output.
func grepMetrics(body, substr string) string {
	var out []string
	for _, line := range strings.Split(body, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}
