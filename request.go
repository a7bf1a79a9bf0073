package xks

import (
	"context"
	"fmt"
	"hash/fnv"
	"strings"
	"time"

	"xks/internal/concurrent"
	"xks/internal/query"
)

// Sentinel errors, matched with errors.Is. ErrEmptyQuery and
// ErrTooManyTerms are re-exported from internal/query so serving layers can
// map them to status codes (400) without string matching; ErrUnknownDocument
// is wrapped by document-filtered searches when the named document is not in
// the corpus (404).
var (
	// ErrEmptyQuery reports a query with no searchable terms (empty, all
	// stop words, or unsearchable predicates).
	ErrEmptyQuery = query.ErrEmptyQuery
	// ErrTooManyTerms reports a query exceeding the 64-term mask limit.
	ErrTooManyTerms = query.ErrTooManyTerms
	// ErrInternal reports a recovered panic somewhere in the pipeline —
	// re-exported from internal/concurrent so serving layers can map it to
	// 500 and count recoveries. Unwrap with errors.As to a *PanicError for
	// the captured stack.
	ErrInternal = concurrent.ErrInternal
)

// PanicError is the structured form of a recovered pipeline panic: the
// recovered value plus the stack captured at the recovery site. It wraps
// ErrInternal. Serving layers log the stack; clients see only the sentinel.
type PanicError = concurrent.PanicError

// Request describes one search: the query text, an optional document
// filter, the algorithm knobs, and the pagination window. It is the unit of
// serving — every search entrypoint (Engine and Corpus Search and Stream, the
// service and HTTP layers) takes a context.Context and a Request, so one
// value carries everything a request needs and cancellation or deadlines
// propagate end to end.
//
// The zero value of every field is the default: ValidRTF pruning, AllLCA
// semantics, document order, no limit, first page, no per-request timeout.
type Request struct {
	// Query is the keyword query; terms may carry XSearch-style label
	// predicates ("title:xml", "author:"). See internal/query.
	Query string
	// Document restricts a corpus search to one named document when
	// non-empty. Single-engine searches ignore it.
	Document string
	// Algorithm is the pruning mechanism (default ValidRTF).
	Algorithm Algorithm
	// Semantics picks the fragment roots (default AllLCA).
	Semantics Semantics
	// ExactContent replaces the (min,max) cID approximation of rule 2(b)
	// with exact tree-content-set comparison (ablation switch).
	ExactContent bool
	// Rank orders fragments by descending relevance score instead of
	// document order.
	Rank bool
	// Limit bounds the returned fragments when positive — the page size.
	Limit int
	// Offset skips that many fragments of the result order before Limit
	// applies: the window a Cursor resolves into (ResolveCursor), which is
	// what caching layers key on. To page, pass the previous result's
	// Cursor instead — it pins the page boundary to the snapshot it was
	// issued at, where a raw offset would shift when the index mutates
	// mid-scroll. A non-empty Cursor takes precedence over Offset.
	Offset int
	// Cursor resumes a previous page: pass the Cursor of an earlier
	// result to continue the scroll. The token is validated before the
	// pipeline runs — ErrStaleCursor when the data mutated since it was
	// issued, ErrCursorMismatch when the order-defining fields of this
	// request differ from the one it was issued for, ErrBadCursor when it
	// does not decode. Empty means the first page.
	Cursor Cursor
	// Budget selects deadline behavior (default Strict): BestEffort turns
	// a deadline that expires mid-materialization into a partial page with
	// Results.Truncated set, instead of an error.
	Budget Budget
	// Timeout, when positive, derives a deadline from the caller's context
	// for this request alone. It does not affect cache keys: a result is
	// the same however long it was allowed to take.
	Timeout time.Duration
}

// Budget selects how a request treats its deadline.
type Budget int

const (
	// Strict aborts the pipeline with ctx.Err() when the deadline expires
	// (the default): the caller gets an error, never a partial page.
	Strict Budget = iota
	// BestEffort converts a deadline that expires mid-pipeline into a
	// partial result: the fragments finished so far come back with
	// Truncated set (and a Cursor to retry from the same spot) instead of
	// a context.DeadlineExceeded error. Cancellation (context.Canceled —
	// the caller went away) still aborts with the error either way.
	BestEffort
)

func (b Budget) String() string {
	if b == BestEffort {
		return "BestEffort"
	}
	return "Strict"
}

// NewRequest builds a Request from a query and the legacy Options struct.
func NewRequest(queryText string, opts Options) Request {
	return Request{
		Query:        queryText,
		Algorithm:    opts.Algorithm,
		Semantics:    opts.Semantics,
		ExactContent: opts.ExactContent,
		Rank:         opts.Rank,
		Limit:        opts.Limit,
	}
}

// Canonical returns the request in canonical form: the query
// whitespace-normalized and case-folded (deeper normalization — stemming,
// stop words — happens inside the engine) and negative Limit/Offset clamped
// to zero. Two requests with equal canonical forms produce the same result,
// which is what caching layers key on; Timeout and Budget are deliberately
// not part of that equality and are cleared — a result is the same however
// long it was allowed to take, and a BestEffort request that completes
// equals its Strict twin (truncated partial pages are never cached).
// Cursor is left as-is: it resolves to an Offset only against a live data
// generation (ResolveCursor), which serving layers do before keying.
func (r Request) Canonical() Request {
	r.Query = strings.Join(strings.Fields(strings.ToLower(r.Query)), " ")
	if r.Limit < 0 {
		r.Limit = 0
	}
	if r.Offset < 0 {
		r.Offset = 0
	}
	r.Timeout = 0
	r.Budget = Strict
	return r
}

// fingerprint hashes the order-defining request fields — everything that
// determines the identity and ordering of the full result list, but not
// the window (Limit/Offset/Cursor), the deadline, or the budget. Cursors
// embed it so a token cannot be replayed against a different query.
func (r Request) fingerprint() uint64 {
	r = r.Canonical()
	h := fnv.New64a()
	fmt.Fprintf(h, "%d:%s%d:%s%d.%d.%t.%t",
		len(r.Query), r.Query, len(r.Document), r.Document,
		r.Algorithm, r.Semantics, r.ExactContent, r.Rank)
	return h.Sum64()
}

// ResolveCursor validates r.Cursor against the current data generation gen
// and folds it into the pagination window: on success the returned request
// has Offset set to the encoded resume position and Cursor cleared, so
// downstream stages (and cache keys) see one canonical window regardless
// of how the caller expressed it. A request without a cursor is returned
// unchanged. Errors wrap ErrBadCursor (undecodable), ErrCursorMismatch
// (issued for a different query shape), or ErrStaleCursor (issued at an
// older generation — the scroll must restart from the first page).
//
// Search entrypoints call this themselves with their own generation;
// serving layers that cache (internal/service) resolve earlier, against
// the same generation they tag cache entries with.
func (r Request) ResolveCursor(gen uint64) (Request, error) {
	if r.Cursor == "" {
		return r, nil
	}
	st, err := r.Cursor.decode()
	if err != nil {
		return r, err
	}
	if st.fp != r.fingerprint() {
		return r, fmt.Errorf("%w: the cursor's query shape does not match this request", ErrCursorMismatch)
	}
	if st.gen != gen {
		return r, fmt.Errorf("%w: issued at generation %d, data is now at %d; restart from the first page",
			ErrStaleCursor, st.gen, gen)
	}
	r.Offset = st.offset
	r.Cursor = ""
	return r, nil
}

// applyTimeout derives the request deadline from ctx when Timeout is set.
// The returned cancel func is always non-nil.
func (r Request) applyTimeout(ctx context.Context) (context.Context, context.CancelFunc) {
	if r.Timeout > 0 {
		return context.WithTimeout(ctx, r.Timeout)
	}
	return ctx, func() {}
}

// clampPaging zeroes negative Limit/Offset at the execution entrypoints,
// so windows and cursors match the canonical form caching layers key on — a
// raw negative offset must not execute differently from its canonicalized
// cache key.
func (r Request) clampPaging() Request {
	if r.Limit < 0 {
		r.Limit = 0
	}
	if r.Offset < 0 {
		r.Offset = 0
	}
	return r
}
