// Package httpapi exposes a service.Service — engine- or corpus-backed,
// with caching, singleflight, and metrics — as a small JSON HTTP API, used
// by cmd/xkserver and testable with net/http/httptest. Each request is
// parsed into an xks.Request and executed under the request's own context
// (r.Context(), optionally tightened by a timeout= deadline): a client that
// disconnects or times out cancels the pipeline mid-stream. Search
// execution is the staged pipeline of internal/exec: rank=1&limit=N
// requests prune and assemble only the N returned fragments.
//
// Encoding: one encoder (encode.go) writes every fragment record — the
// buffered body's "fragments" elements and the NDJSON lines alike — with
// the XML rendered straight into the record. A cached page is encoded at
// most once: the buffered miss that produced it leaves its records with the
// page's cache entry (service.Page.Encoded), and every later hit writes
// those bytes behind a freshly encoded envelope. The bytes live and die
// with the entry; snippets=1 responses, pages the cache does not hold
// (truncated, pinned to an old snapshot) and stream=1 lines are encoded per
// request. Buffered
// responses carry a Content-Length, "fragments" is always an array, and
// records escape only what JSON requires — '<', '>' and '&' in the XML are
// not \u-escaped.
//
// Endpoints:
//
//	GET /search?q=keyword+query[&doc=name][&algo=validrtf|maxmatch|raw]
//	           [&slca=1][&rank=1][&limit=N][&cursor=tok][&timeout=dur]
//	           [&budget=best-effort][&snippets=1][&stream=1][&explain=1]
//	GET /documents
//	GET /metrics
//	GET /healthz
//	POST /append  {"doc": name, "parent": dewey, "xml": snippet}
//	POST /compact
//
// Writes: the POST endpoints exist only when Options.AllowWrites is set
// (404 otherwise). /append lands the snippet in the named document's
// write-side delta index — outstanding cursors and cached pages keep
// working, pinned to the snapshot they were issued at — and /compact folds
// accumulated delta segments into the base without changing version
// tokens. Both answer JSON.
//
// Error mapping: malformed parameters and unsearchable queries
// (xks.ErrEmptyQuery, xks.ErrTooManyTerms) are 400, an unknown doc=
// (xks.ErrUnknownDocument) is 404, a search that exceeds its deadline is
// 504, a cursor that does not decode or was issued for a different query
// (xks.ErrBadCursor, xks.ErrCursorMismatch) is 400, and a cursor
// invalidated by an index mutation (xks.ErrStaleCursor) is 410 Gone with a
// restart hint — the scroll must begin again from the first page.
//
// Pagination: responses whose result set extends past the returned page
// carry an opaque "cursor" token; pass it back as cursor= to resume. The
// token pins the data generation, so a page boundary can never silently
// shift under a concurrent append. The cursor is the only way to page: an
// offset= parameter is a 400 rather than silently ignored, which would
// replay the first page. With budget=best-effort, a deadline that
// expires mid-page returns the fragments finished so far with
// "truncated":true (plus a machine-readable "truncation" reason naming the
// stage the deadline expired in, and a cursor to resume) instead of a 504.
//
// Streaming: stream=1 switches /search to NDJSON chunked output — one
// fragment object per line as the pipeline materializes it, with no page
// buffering and no cache read or write; the final line is a trailer record
// ({"trailer":true, ...}) carrying the cursor, stats, and the truncation
// marker. Lines are batched
// and flushed (when the ResponseWriter supports http.Flusher) after
// fragments 1, 2, 4, 8, …: the first reaches the client before the second
// materializes, fragment k by the time fragment 2^⌈log₂ k⌉ has (or once
// 64 KB has built up), and the trailer with the last batch. A mid-stream
// failure appears as a trailer with an "error" field, since the 200 status
// is already on the wire.
//
// Observability: explain=1 attaches a trace (internal/trace) to the
// request and returns the finished span tree — per-stage wall times,
// candidate counts, cache disposition, per-document fan-out — as the
// "explain" field of the response (or of the NDJSON trailer with
// stream=1). GET /metrics serves the service counters, the request-latency
// histogram, and the per-stage pipeline histograms in the Prometheus text
// exposition format — the server's one metrics surface (latency quantiles
// are histogram_quantile over xks_request_duration_seconds_bucket). Every
// request carries an X-Request-Id (the caller's, or a generated one), and
// when Options.Logger is set each request emits one structured access
// line; Options.SlowQuery additionally traces every search and logs the
// full explain tree for those slower than the threshold.
package httpapi

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"xks"
	"xks/internal/admission"
	"xks/internal/fault"
	"xks/internal/service"
	"xks/internal/trace"
)

// MaxTimeout caps the timeout= parameter so a client cannot pin a worker
// arbitrarily long; it is also the implicit deadline when none is given.
const MaxTimeout = 30 * time.Second

// MaxPageParam caps limit= so a crafted request cannot ask the pipeline for
// an absurd page.
const MaxPageParam = 1 << 20

// Options configures the optional observability surfaces of the handler.
// The zero value (and a nil *Options) disables them all: no access log, no
// slow-query log — explain=1 and /metrics are always available.
type Options struct {
	// Logger receives one structured access line per request, plus
	// slow-query reports and JSON encoding failures. nil disables logging.
	Logger *slog.Logger
	// SlowQuery, when positive, traces every /search request and logs the
	// full explain tree (via Logger) for those that take at least this
	// long end to end.
	SlowQuery time.Duration
	// Admission, when non-nil, gates /search behind the concurrency-limited,
	// queue-bounded front door: shed requests answer 429/503 with
	// Retry-After in microseconds, a draining server answers 503 with
	// Connection: close (and /healthz flips unhealthy), and the admission
	// counters ride along on /metrics and the explain span tree.
	Admission *admission.Controller
	// AllowWrites enables the POST /append and /compact endpoints; off by
	// default so a plain read-only server exposes no mutation surface.
	AllowWrites bool
}

// Fragment is the JSON shape of one result fragment.
type Fragment struct {
	Document  string  `json:"document,omitempty"`
	Root      string  `json:"root"`
	RootLabel string  `json:"rootLabel"`
	IsSLCA    bool    `json:"isSlca"`
	Score     float64 `json:"score,omitempty"`
	Snippet   string  `json:"snippet,omitempty"`
	XML       string  `json:"xml"`
	Nodes     int     `json:"nodes"`
}

// Response is the JSON shape of a search response.
type Response struct {
	Query     string   `json:"query"`
	Keywords  []string `json:"keywords"`
	NumLCAs   int      `json:"numLcas"`
	ElapsedMS float64  `json:"elapsedMs"`
	Cached    bool     `json:"cached"`
	// Cursor is the opaque, generation-aware resume token of the next
	// page; pass it back as cursor=. Empty when the result set is
	// exhausted.
	Cursor string `json:"cursor,omitempty"`
	// Truncated reports a best-effort deadline expiring mid-page: the
	// fragments below are everything that finished in time.
	Truncated bool `json:"truncated,omitempty"`
	// Truncation names the stage the deadline expired in when Truncated is
	// set: "deadline-candidates" (empty page, unknown total) or
	// "deadline-materialize" (partial page of finished fragments).
	Truncation  string         `json:"truncation,omitempty"`
	PerDocument map[string]int `json:"perDocument,omitempty"`
	Fragments   []Fragment     `json:"fragments"`
	// Explain is the finished trace span tree, present with explain=1.
	Explain *trace.SpanJSON `json:"explain,omitempty"`
}

// StreamTrailer is the final NDJSON record of a stream=1 search — the
// envelope for the fragment lines above it. Error is set when the stream
// failed after the 200 status was already committed.
type StreamTrailer struct {
	Trailer    bool     `json:"trailer"` // always true; marks the record
	Cursor     string   `json:"cursor,omitempty"`
	Truncated  bool     `json:"truncated,omitempty"`
	Truncation string   `json:"truncation,omitempty"`
	Keywords   []string `json:"keywords,omitempty"`
	NumLCAs    int      `json:"numLcas"`
	ElapsedMS  float64  `json:"elapsedMs"`
	Error      string   `json:"error,omitempty"`
	// Explain is the finished trace span tree, present with explain=1.
	Explain *trace.SpanJSON `json:"explain,omitempty"`
}

// DocumentsResponse is the JSON shape of /documents.
type DocumentsResponse struct {
	Documents []xks.DocumentInfo `json:"documents"`
}

// AppendRequest is the JSON body of POST /append: append the parsed XML
// snippet under the node identified by the Dewey code parent (e.g. "0.2")
// in the named document (doc may be empty on a single-document server).
// The parent must lie on the document's rightmost spine — its subtree ends
// the document, as the root's ("0") always does — so the write is a tail
// append that concurrent searches never observe half-done. Any other
// parent is refused with 409 Conflict, the reason in the body
// (xks.ErrOffSpine), and the document is left as it was.
type AppendRequest struct {
	Doc    string `json:"doc"`
	Parent string `json:"parent"`
	XML    string `json:"xml"`
}

// AppendResponse is the JSON shape of a successful POST /append.
type AppendResponse struct {
	OK bool `json:"ok"`
	// Generation is the corpus version token after the append.
	Generation uint64 `json:"generation"`
}

// CompactResponse is the JSON shape of a successful POST /compact.
type CompactResponse struct {
	OK             bool `json:"ok"`
	SegmentsFolded int  `json:"segmentsFolded"`
}

// maxAppendBody bounds the POST /append body (the XML snippet plus JSON
// framing) so a client cannot stream an unbounded document at the decoder.
const maxAppendBody = 8 << 20

// parseRequest builds the xks.Request from the parsed query parameters,
// beside the request's deadline — timeout=, capped at MaxTimeout and
// MaxTimeout when absent — and whether snippets=1 was asked for; the error
// message is returned to the client with a 400.
func parseRequest(q url.Values) (req xks.Request, timeout time.Duration, withSnippets bool, err error) {
	req = xks.Request{Query: q.Get("q"), Document: q.Get("doc")}
	if req.Query == "" {
		return req, 0, false, fmt.Errorf(`missing "q" parameter: %w`, xks.ErrEmptyQuery)
	}
	switch q.Get("algo") {
	case "", "validrtf":
	case "maxmatch":
		req.Algorithm = xks.MaxMatch
	case "raw":
		req.Algorithm = xks.RawRTF
	default:
		return req, 0, false, errors.New("unknown algo")
	}
	if q.Get("slca") == "1" {
		req.Semantics = xks.SLCAOnly
	}
	if q.Get("rank") == "1" {
		req.Rank = true
	}
	if l := q.Get("limit"); l != "" {
		n, err := strconv.Atoi(l)
		if err != nil || n < 0 || n > MaxPageParam {
			return req, 0, false, errors.New("bad limit")
		}
		req.Limit = n
	}
	if q.Has("offset") {
		return req, 0, false, errors.New(`offset= is not supported: page with the response's cursor as cursor=`)
	}
	if cur := q.Get("cursor"); cur != "" {
		req.Cursor = xks.Cursor(cur)
	}
	switch q.Get("budget") {
	case "", "strict":
	case "best-effort", "besteffort":
		req.Budget = xks.BestEffort
	default:
		return req, 0, false, errors.New("bad budget")
	}
	timeout = MaxTimeout
	if d := q.Get("timeout"); d != "" {
		t, err := time.ParseDuration(d)
		if err != nil || t <= 0 {
			return req, 0, false, errors.New("bad timeout")
		}
		timeout = min(t, MaxTimeout)
	}
	return req, timeout, q.Get("snippets") == "1", nil
}

// status maps a search error to its HTTP status: 404 for unknown documents,
// 504 for deadline-exceeded pipelines, 410 for cursors invalidated by an
// index mutation (the error text carries the restart hint), 409 for an
// append whose parent is off the rightmost spine, 400 for everything else
// (bad query shapes — xks.ErrEmptyQuery, xks.ErrTooManyTerms, malformed
// predicates — and malformed or mismatched cursors).
func status(err error) int {
	switch {
	case errors.Is(err, xks.ErrUnknownDocument):
		return http.StatusNotFound
	case errors.Is(err, xks.ErrStaleCursor):
		return http.StatusGone
	case errors.Is(err, xks.ErrOffSpine):
		return http.StatusConflict
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, xks.ErrInternal):
		// A recovered pipeline panic: the request failed, the server did
		// not. The stack went to the log, not the client.
		return http.StatusInternalServerError
	default:
		return http.StatusBadRequest
	}
}

// errorBody is the client-facing error text: recovered panics are replaced
// by an opaque line (the stack and panic value stay in the server log).
func errorBody(err error) string {
	if errors.Is(err, xks.ErrInternal) {
		return "internal error"
	}
	return err.Error()
}

// logInternal emits the structured error line for a recovered panic — the
// one place the captured stack surfaces.
func logInternal(logger *slog.Logger, ctx context.Context, err error) {
	if logger == nil || !errors.Is(err, xks.ErrInternal) {
		return
	}
	attrs := []slog.Attr{
		slog.String("requestId", requestID(ctx)),
		slog.String("error", err.Error()),
	}
	var pe *xks.PanicError
	if errors.As(err, &pe) {
		attrs = append(attrs, slog.String("stack", string(pe.Stack)))
	}
	logger.LogAttrs(ctx, slog.LevelError, "panic recovered", attrs...)
}

// reqMeta is the per-request bookkeeping the handlers fill in for the
// access line: the request ID and the serving dispositions worth logging.
type reqMeta struct {
	id        string
	cached    bool
	truncated bool
}

type metaKey struct{}

// metaFrom returns the request's bookkeeping record, or nil outside the
// middleware (e.g. a handler invoked directly in tests).
func metaFrom(ctx context.Context) *reqMeta {
	m, _ := ctx.Value(metaKey{}).(*reqMeta)
	return m
}

// requestID returns the request's ID, or "" outside the middleware.
func requestID(ctx context.Context) string {
	if m := metaFrom(ctx); m != nil {
		return m.id
	}
	return ""
}

// newRequestID generates a 16-hex-digit random request ID.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "unknown"
	}
	return hex.EncodeToString(b[:])
}

// statusWriter captures the response status and byte count for the access
// line. It always implements http.Flusher — delegating when the wrapped
// writer supports it, no-op otherwise — so the NDJSON streaming path keeps
// its flush points through the middleware.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// withObservability wraps the router with the request-ID middleware and,
// when logger is non-nil, one structured access line per request.
func withObservability(next http.Handler, logger *slog.Logger) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		meta := &reqMeta{id: r.Header.Get("X-Request-Id")}
		if meta.id == "" {
			meta.id = newRequestID()
		}
		w.Header().Set("X-Request-Id", meta.id)
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r.WithContext(context.WithValue(r.Context(), metaKey{}, meta)))
		if logger == nil {
			return
		}
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
			slog.String("requestId", meta.id),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.String("query", r.URL.RawQuery),
			slog.Int("status", sw.status),
			slog.Int64("bytes", sw.bytes),
			slog.Duration("duration", time.Since(start)),
			slog.Bool("cached", meta.cached),
			slog.Bool("truncated", meta.truncated),
		)
	})
}

// NewHandler builds the API router over the service. opts may be nil (no
// access or slow-query logging; explain=1 and /metrics work regardless).
func NewHandler(svc *service.Service, opts *Options) http.Handler {
	if opts == nil {
		opts = &Options{}
	}
	logger := opts.Logger
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		if opts.Admission != nil && opts.Admission.Draining() {
			// Tell load balancers to route elsewhere while in-flight and
			// queued requests finish.
			w.Header().Set("Connection", "close")
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/documents", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, logger, DocumentsResponse{Documents: svc.Documents()})
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		svc.WritePrometheus(w)
		if opts.Admission != nil {
			opts.Admission.WritePrometheus(w)
		}
	})
	if opts.AllowWrites {
		mux.HandleFunc("/append", func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodPost {
				http.Error(w, "POST only", http.StatusMethodNotAllowed)
				return
			}
			var body AppendRequest
			if err := json.NewDecoder(io.LimitReader(r.Body, maxAppendBody)).Decode(&body); err != nil {
				http.Error(w, "bad JSON body: "+err.Error(), http.StatusBadRequest)
				return
			}
			if body.XML == "" {
				http.Error(w, `missing "xml" field`, http.StatusBadRequest)
				return
			}
			if err := svc.Append(body.Doc, body.Parent, body.XML); err != nil {
				http.Error(w, errorBody(err), status(err))
				return
			}
			writeJSON(w, logger, AppendResponse{OK: true, Generation: svc.Generation()})
		})
		mux.HandleFunc("/compact", func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodPost {
				http.Error(w, "POST only", http.StatusMethodNotAllowed)
				return
			}
			folded, err := svc.Compact(r.Context())
			if err != nil {
				http.Error(w, errorBody(err), http.StatusInternalServerError)
				return
			}
			writeJSON(w, logger, CompactResponse{OK: true, SegmentsFolded: folded})
		})
	}
	mux.HandleFunc("/search", func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		params := r.URL.Query()
		req, timeout, withSnippets, err := parseRequest(params)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		// The deadline lives on the context, set here at the serving
		// boundary, so it holds for any backend behind the service.
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()

		// explain=1 returns the span tree to the client; a slow-query
		// threshold traces every search so the ones that cross it can be
		// logged with their full breakdown.
		explain := params.Get("explain") == "1"
		var tr *trace.Trace
		if explain || opts.SlowQuery > 0 {
			tr = trace.New("search")
			tr.Root().SetStr("algorithm", req.Algorithm.String())
			ctx = trace.NewContext(ctx, tr)
		}
		defer func() {
			if tr == nil || opts.SlowQuery <= 0 || logger == nil {
				return
			}
			if d := time.Since(start); d >= opts.SlowQuery {
				logger.LogAttrs(r.Context(), slog.LevelWarn, "slow query",
					slog.String("requestId", requestID(r.Context())),
					slog.String("query", req.Query),
					slog.Duration("duration", d),
					slog.String("explain", tr.Root().Text()),
				)
			}
		}()

		// Admission: acquire an execution slot (or shed) before any
		// pipeline work. The slot is held until the handler — including
		// response streaming — returns.
		if adm := opts.Admission; adm != nil {
			release, waited, aerr := adm.Acquire(ctx)
			if aerr != nil {
				if errors.Is(aerr, context.Canceled) {
					return // the client went away while queued
				}
				code := http.StatusServiceUnavailable
				switch {
				case errors.Is(aerr, admission.ErrShed):
					code = http.StatusTooManyRequests
				case errors.Is(aerr, context.DeadlineExceeded):
					code = http.StatusGatewayTimeout
				case errors.Is(aerr, admission.ErrDraining):
					// Make the client re-dial: the next connection lands on
					// a live server, not this draining one.
					w.Header().Set("Connection", "close")
				}
				w.Header().Set("Retry-After", "1")
				http.Error(w, aerr.Error(), code)
				return
			}
			defer release()
			if tr != nil {
				st := adm.Stats()
				asp := tr.Root()
				asp.SetInt("admissionWaitUs", waited.Microseconds())
				asp.SetInt("admissionInflight", int64(st.InFlight))
				asp.SetInt("admissionQueued", int64(st.Queued))
			}
		}
		// Chaos injection point: overload tests congest the server by
		// holding admitted slots here, between admission and execution.
		if ferr := fault.Inject(ctx, fault.PointAdmission, ""); ferr != nil {
			http.Error(w, errorBody(ferr), status(ferr))
			return
		}

		if params.Get("stream") == "1" {
			streamSearch(ctx, w, svc, logger, req, withSnippets, explain, tr)
			return
		}

		page, cached, err := svc.SearchPage(ctx, req)
		if err != nil {
			if errors.Is(err, context.Canceled) {
				// The client went away; there is no one to answer.
				return
			}
			logInternal(logger, r.Context(), err)
			http.Error(w, errorBody(err), status(err))
			return
		}
		if m := metaFrom(r.Context()); m != nil {
			m.cached, m.truncated = cached, page.Truncated
		}
		if page.Truncation != "" {
			tr.Root().SetStr("truncation", string(page.Truncation))
		}
		// Only the envelope is encoded per request; the records are the
		// page's own bytes, encoded once and retained by its cache entry.
		recs := pageRecords(svc, page, withSnippets)
		var explainJSON []byte
		if explain {
			tr.Finish()
			explainJSON, _ = json.Marshal(tr.Root().JSON()) // strings and finite numbers: cannot fail
		}
		bp := bufs.Get().(*[]byte)
		e := encoder{buf: (*bp)[:0]}
		e.head(req, page.Results, cached)
		head := len(e.buf)
		e.tail(explainJSON)
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", strconv.Itoa(len(e.buf)+len(recs)))
		for _, part := range [][]byte{e.buf[:head], recs, e.buf[head:]} {
			if _, err := w.Write(part); err != nil {
				break // the client went away
			}
		}
		putBuf(bp, e.buf)
	})
	return withObservability(mux, logger)
}

// pageRecords returns the encoded fragment records of a page: the bytes its
// cache entry retains (encoded by the first request to need them, which for
// a buffered miss is the miss itself), or a fresh encoding when the page
// keeps none or the request wants snippets, which the retained form omits.
func pageRecords(svc *service.Service, p *service.Page, withSnippets bool) []byte {
	encode := func() []byte {
		svc.Metrics().ObserveEncode()
		return encodeRecords(p.Fragments, withSnippets)
	}
	if withSnippets {
		return encode()
	}
	return p.Encoded(encode)
}

// streamSearch serves /search?stream=1: NDJSON chunked output driven
// directly off the service's fragment iterator — one fragment per line,
// encoded as it arrives, then one StreamTrailer record. The lines collect
// in one batch that goes to w once per flush point: written and flushed
// after fragments 1, 2, 4, 8, … (fragment k is on the wire by the time
// fragment 2^⌈log₂ k⌉ has materialized), written once it holds streamBatch
// bytes, and written with the trailer at the end, which the handler's
// return flushes — so n fragments cost bits.Len(n)+1 socket writes. Errors
// before the first fragment still map to proper status codes
// (400/404/410/504); a failure after bytes are on the wire becomes a
// trailer with its "error" field set. With explain set, the trailer carries
// tr's finished span tree.
func streamSearch(ctx context.Context, w http.ResponseWriter, svc *service.Service, logger *slog.Logger, req xks.Request, withSnippets, explain bool, tr *trace.Trace) {
	seq, trailer := svc.Stream(ctx, req)
	begin := func() {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Header().Set("X-Accel-Buffering", "no") // defeat proxy buffering
	}
	flusher, _ := w.(http.Flusher)
	n := 0 // fragments in the body so far
	bp := bufs.Get().(*[]byte)
	batch := encoder{buf: (*bp)[:0]} // the lines not yet handed to w
	defer func() { putBuf(bp, batch.buf) }()
	// send hands the batch to w, flushing it to the client when flush is
	// set; false means the connection is gone.
	send := func(flush bool) bool {
		_, err := w.Write(batch.buf)
		batch.buf = batch.buf[:0]
		if err == nil && flush && flusher != nil {
			flusher.Flush()
		}
		return err == nil
	}
	for f, err := range seq {
		if err != nil {
			if errors.Is(err, context.Canceled) {
				return // the client went away; there is no one to answer
			}
			logInternal(logger, ctx, err)
			if n == 0 {
				http.Error(w, errorBody(err), status(err))
				return
			}
			batch.trailerLine(StreamTrailer{Trailer: true, Error: errorBody(err)})
			send(false) // handler return flushes
			return
		}
		if n == 0 {
			begin()
			svc.Metrics().ObserveEncode()
		}
		batch.record(f, withSnippets)
		batch.raw("\n")
		n++
		if flush := n&(n-1) == 0; flush || len(batch.buf) >= streamBatch {
			if !send(flush) {
				return // the connection is gone; nothing left to answer
			}
		}
	}
	if n == 0 {
		begin()
	}
	t := trailer()
	if m := metaFrom(ctx); m != nil {
		m.truncated = t.Truncated
	}
	if t.Truncation != "" {
		tr.Root().SetStr("truncation", string(t.Truncation))
	}
	st := ToStreamTrailer(t)
	if explain {
		tr.Finish()
		st.Explain = tr.Root().JSON()
	}
	batch.trailerLine(st)
	send(false) // handler return flushes and ends the chunked body
}

// streamBatch is the size at which a stream's batch is written out between
// flush points, so one large fragment — or a run of them — is not held back.
const streamBatch = 64 << 10

// ToFragment converts one result fragment to the shape its wire record
// decodes into — what a Go client holds after json.Unmarshal, and what
// cmd/xksearch's -stream output marshals. The server itself writes records
// with encoder.record, which streams the XML through Fragment.WriteXML
// instead of building the string this renders.
func ToFragment(f xks.CorpusFragment, withSnippets bool) Fragment {
	out := Fragment{
		Document:  f.Document,
		Root:      f.Root,
		RootLabel: f.RootLabel,
		IsSLCA:    f.IsSLCA,
		Score:     f.Score,
		XML:       f.XML(),
		Nodes:     f.Len(),
	}
	if withSnippets {
		out.Snippet = f.Snippet()
	}
	return out
}

// ToStreamTrailer builds the NDJSON trailer record for a stream's envelope
// — the single source of the trailer format, shared with cmd/xksearch.
func ToStreamTrailer(t *xks.Results) StreamTrailer {
	return StreamTrailer{
		Trailer:    true,
		Cursor:     string(t.Cursor),
		Truncated:  t.Truncated,
		Truncation: string(t.Truncation),
		Keywords:   t.Stats.Keywords,
		NumLCAs:    t.Stats.NumLCAs,
		ElapsedMS:  float64(t.Stats.Elapsed.Microseconds()) / 1000.0,
	}
}

func writeJSON(w http.ResponseWriter, logger *slog.Logger, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil && logger != nil {
		logger.Warn("httpapi: encode failed", slog.String("error", err.Error()))
	}
}
