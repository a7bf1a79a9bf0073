package httpapi

// A stream=1 response hands net/http one Write per flush point — after
// fragments 1, 2, 4, 8, …, or once streamBatch bytes have built up — and
// the trailer goes out with the last batch. These tests count what reaches
// the socket, watch when it is flushed against the backend's yields, and
// hold the bytes to the buffered page's records.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"iter"
	"math/bits"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"xks"
	"xks/internal/service"
)

// countingListener counts the Write calls made on the connections it
// accepts: one per socket write the server makes.
type countingListener struct {
	net.Listener
	writes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, writes: l.writes}, nil
}

type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// countingServer serves h on a loopback listener that counts conn writes.
func countingServer(tb testing.TB, h http.Handler) (*httptest.Server, *atomic.Int64) {
	srv := httptest.NewUnstartedServer(h)
	writes := new(atomic.Int64)
	srv.Listener = countingListener{Listener: srv.Listener, writes: writes}
	srv.Start()
	tb.Cleanup(srv.Close)
	return srv, writes
}

// countedGet fetches path and returns the body and the conn writes the
// server made for it. The server's last write ends the chunked body, so
// once the body is read every write has been counted.
func countedGet(tb testing.TB, srv *httptest.Server, writes *atomic.Int64, path string) ([]byte, int64) {
	tb.Helper()
	before := writes.Load()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		tb.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		tb.Fatalf("GET %s: status %d, %v: %s", path, resp.StatusCode, err, body)
	}
	return body, writes.Load() - before
}

// pageLines is what a stream of page must put on the wire: its records,
// one line each, then the trailer for its envelope. A record holds no raw
// newline (JSON escapes it), so the records' separating commas are the
// ones that follow a newline.
func pageLines(t *testing.T, page *service.Page) []byte {
	t.Helper()
	out := bytes.ReplaceAll(encodeRecords(page.Fragments, false), []byte("\n,"), []byte("\n"))
	tr, err := json.Marshal(ToStreamTrailer(page.Results))
	if err != nil {
		t.Fatal(err)
	}
	return append(append(out, tr...), '\n')
}

// TestStreamWriteBudget: an n-fragment stream makes at most bits.Len(n)+1
// socket writes (one per flush point, plus the last batch with the trailer
// and the end of the chunked body), and its body is the buffered page's
// records and trailer byte for byte.
func TestStreamWriteBudget(t *testing.T) {
	svc := service.New(service.SingleDoc{Name: "dblp", Engine: xks.FromTree(seamTree(1))}, service.Config{CacheSize: 16})
	srv, writes := countingServer(t, NewHandler(svc, nil))
	for _, limit := range []int{1, 5, 50} {
		path := "/search?q=alpha+beta&slca=1&limit=" + strconv.Itoa(limit)
		body, n := countedGet(t, srv, writes, path+"&stream=1")
		req, _ := requestOf(t, path)
		page, cached, err := svc.SearchPage(t.Context(), req)
		if err != nil || cached {
			t.Fatalf("%s: SearchPage after a stream: cached=%t err=%v; a stream fills no entry", path, cached, err)
		}
		if len(page.Fragments) != limit {
			t.Fatalf("%s: the page holds %d fragments", path, len(page.Fragments))
		}
		t.Logf("limit=%d: %d conn writes", limit, n)
		if budget := int64(bits.Len(uint(limit)) + 1); n > budget {
			t.Errorf("limit=%d: %d conn writes for %d fragments; want at most bits.Len(n)+1 = %d", limit, n, limit, budget)
		}
		if got, want := withoutElapsed(body), withoutElapsed(pageLines(t, page)); !bytes.Equal(got, want) {
			t.Errorf("limit=%d: the body is not the page's records and trailer:\n%s\n----\n%s", limit, got, want)
		}
	}
}

// event is one step of a stream: the backend yielding fragment n (counted
// from 1), or the handler writing or flushing when the body holds n
// complete lines.
type event struct {
	kind byte // 'y' yield, 'w' write, 'f' flush
	n    int
}

// scheduleRecorder is an http.ResponseWriter and http.Flusher that logs
// each Write and Flush, in one sequence with the yields yieldLogger logs.
type scheduleRecorder struct {
	header http.Header
	code   int
	body   bytes.Buffer
	events []event
}

func (r *scheduleRecorder) Header() http.Header { return r.header }
func (r *scheduleRecorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}
func (r *scheduleRecorder) Write(p []byte) (int, error) {
	r.body.Write(p)
	r.events = append(r.events, event{'w', r.lines()})
	return len(p), nil
}
func (r *scheduleRecorder) Flush() { r.events = append(r.events, event{'f', r.lines()}) }

func (r *scheduleRecorder) lines() int { return bytes.Count(r.body.Bytes(), []byte("\n")) }

// first is the index of the first event of kind whose n is at least n, or
// -1 when none is.
func (r *scheduleRecorder) first(kind byte, n int) int {
	for i, e := range r.events {
		if e.kind == kind && e.n >= n {
			return i
		}
	}
	return -1
}

var errInjected = errors.New("injected backend failure")

// yieldLogger is a Backend whose streams log each fragment to rec just
// before yielding it. With failAfter > 0 the stream yields errInjected in
// place of fragment failAfter+1.
type yieldLogger struct {
	service.Backend
	rec       *scheduleRecorder
	failAfter int
}

func (b yieldLogger) Stream(ctx context.Context, req xks.Request) (iter.Seq2[xks.CorpusFragment, error], func() *xks.Results) {
	seq, trailer := b.Backend.Stream(ctx, req)
	return func(yield func(xks.CorpusFragment, error) bool) {
		k := 0
		for f, err := range seq {
			if err == nil {
				if k++; b.failAfter > 0 && k > b.failAfter {
					yield(xks.CorpusFragment{}, errInjected)
					return
				}
				b.rec.events = append(b.rec.events, event{'y', k})
			}
			if !yield(f, err) {
				return
			}
		}
	}, trailer
}

// scheduleOf streams path from engine with the cache off, so every fragment
// is a live yield, and returns the recorder.
func scheduleOf(t *testing.T, engine *xks.Engine, path string, failAfter int) *scheduleRecorder {
	t.Helper()
	rec := &scheduleRecorder{header: http.Header{}}
	backend := yieldLogger{Backend: service.SingleDoc{Name: "doc", Engine: engine}, rec: rec, failAfter: failAfter}
	NewHandler(service.New(backend, service.Config{}), nil).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.code != 0 && rec.code != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, rec.code, rec.body.Bytes())
	}
	return rec
}

// TestStreamFlushSchedule pins when a stream's fragments reach the client
// against when the backend yields them: the first is written and flushed
// before the second is yielded, fragment k before fragment 2^⌈log₂ k⌉+1 is,
// a record past streamBatch bytes before the next yield, and a backend
// error mid-stream still ends the body with exactly one "error" trailer.
func TestStreamFlushSchedule(t *testing.T) {
	t.Run("powers of two", func(t *testing.T) {
		rec := scheduleOf(t, xks.FromTree(seamTree(1)), "/search?q=alpha+beta&slca=1&limit=50&stream=1", 0)
		n := rec.lines() - 1 // the trailer is the last line
		if n != 50 {
			t.Fatalf("%d fragment lines, want 50", n)
		}
		if w, f, y := rec.first('w', 1), rec.first('f', 1), rec.first('y', 2); w < 0 || f < w || f > y {
			t.Fatalf("fragment 1: written at event %d, flushed at %d, fragment 2 yielded at %d; want both before", w, f, y)
		}
		for k := 1; k <= n; k++ {
			bound := 1 << bits.Len(uint(k-1)) // 2^⌈log₂ k⌉
			if bound >= n {
				continue // the last batch: written with the trailer, flushed by the handler's return
			}
			if f, y := rec.first('f', k), rec.first('y', bound+1); f < 0 || f > y {
				t.Fatalf("fragment %d flushed at event %d, fragment %d yielded at %d; want the flush first", k, f, bound+1, y)
			}
		}
		var writes, flushes int
		for _, e := range rec.events {
			switch e.kind {
			case 'w':
				writes++
			case 'f':
				flushes++
			}
		}
		if want := bits.Len(uint(n)); flushes != want || writes != want+1 {
			t.Fatalf("%d writes and %d flushes for %d fragments; want %d and %d", writes, flushes, n, want+1, want)
		}
	})

	t.Run("a record past the batch size", func(t *testing.T) {
		// Five answers to "alpha beta"; the third renders to more than
		// streamBatch bytes, and 3 is no flush point.
		small := `<p><t>alpha beta</t></p>`
		doc := `<r>` + small + small + `<p><t>alpha beta ` + strings.Repeat("filler ", 12<<10) + `</t></p>` + small + small + `</r>`
		engine, err := xks.LoadString(doc)
		if err != nil {
			t.Fatal(err)
		}
		rec := scheduleOf(t, engine, "/search?q=alpha+beta&slca=1&stream=1", 0)
		lines := bytes.SplitAfter(rec.body.Bytes(), []byte("\n"))
		if len(lines) != 7 || len(lines[2]) <= streamBatch { // five fragments, the trailer, SplitAfter's empty tail
			t.Fatalf("%d lines, the third %d bytes; want 5 fragments and a trailer, the third past %d bytes", len(lines)-1, len(lines[2]), streamBatch)
		}
		if w, y := rec.first('w', 3), rec.first('y', 4); w < 0 || w > y {
			t.Fatalf("the %d-byte record was written at event %d, fragment 4 yielded at %d; want the write first", len(lines[2]), w, y)
		}
	})

	t.Run("backend error mid-stream", func(t *testing.T) {
		rec := scheduleOf(t, xks.FromTree(seamTree(1)), "/search?q=alpha+beta&slca=1&limit=50&stream=1", 3)
		lines := bytes.Split(bytes.TrimSuffix(rec.body.Bytes(), []byte("\n")), []byte("\n"))
		trailers := 0
		for _, l := range lines {
			if bytes.Contains(l, []byte(`"trailer":true`)) {
				trailers++
			}
		}
		var tr StreamTrailer
		if err := json.Unmarshal(lines[len(lines)-1], &tr); err != nil || trailers != 1 || tr.Error != errInjected.Error() || len(lines) != 4 {
			t.Fatalf("%d lines, %d trailers, last %s (%v); want three fragments and one trailer with error %q",
				len(lines), trailers, lines[len(lines)-1], err, errInjected)
		}
	})
}

// BenchmarkStreamSearch serves a 50-fragment stream (slca=1&limit=50&
// stream=1) over loopback with the cache off, so every op runs the
// pipeline. writes/op is the server's socket writes per stream.
func BenchmarkStreamSearch(b *testing.B) {
	svc := service.New(service.SingleDoc{Name: "dblp", Engine: xks.FromTree(seamTree(1))}, service.Config{})
	srv, writes := countingServer(b, NewHandler(svc, nil))
	const path = "/search?q=alpha+beta&slca=1&limit=50&stream=1"
	countedGet(b, srv, writes, path) // dial the connection the ops reuse
	b.ReportAllocs()
	b.ResetTimer()
	var total int64
	for range b.N {
		_, n := countedGet(b, srv, writes, path)
		total += n
	}
	b.ReportMetric(float64(total)/float64(b.N), "writes/op")
}
