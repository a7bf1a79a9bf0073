package xks

import (
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"

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
// service and HTTP layers) takes a context.Context and a Request. The
// request says what to compute; its context says for how long: a deadline
// or cancellation on the context propagates end to end, and Budget says
// what an expired deadline yields.
//
// The zero value of every field is the default: ValidRTF pruning, AllLCA
// semantics, document order, no limit, first page, Strict budget.
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
	// Budget selects how the context's deadline is treated (default
	// Strict): BestEffort turns a deadline that expires mid-materialization
	// into a partial page with Results.Truncated set, instead of an error.
	Budget Budget
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

// Canonical returns the request in canonical form: the query
// whitespace-normalized and case-folded (deeper normalization — stemming,
// stop words — happens inside the engine) and negative Limit/Offset clamped
// to zero. Two requests with equal canonical forms produce the same result,
// which is what caching layers key on (Key); Budget is deliberately not part
// of that equality and is cleared — a BestEffort request that completes
// equals its Strict twin (truncated partial pages are never cached), and a
// result is the same however long its context allowed it to take.
// Cursor is left as-is: it resolves to an Offset only against a live data
// generation (ResolveCursor), which serving layers do before keying.
func (r Request) Canonical() Request {
	r = r.clampPaging()
	r.Query = canonicalQuery(r.Query)
	r.Budget = Strict
	return r
}

// canonicalQuery is strings.Join(strings.Fields(strings.ToLower(q)), " "):
// q itself, with no allocation, when q is lower-case ASCII words separated
// by single spaces already.
func canonicalQuery(q string) string {
	for i := 0; i < len(q); i++ {
		switch c := q[i]; {
		case c >= utf8.RuneSelf, 'A' <= c && c <= 'Z', '\t' <= c && c <= '\r':
			// Not ASCII, upper case, or a space Fields splits on other than ' '.
		case c == ' ' && (i == 0 || i == len(q)-1 || q[i+1] == ' '):
			// A space at either end, or doubled.
		default:
			continue
		}
		return strings.Join(strings.Fields(strings.ToLower(q)), " ")
	}
	return q
}

// appendIdentity appends the canonical request's identity — the
// order-defining fields, everything that determines the identity and
// ordering of the full result list, but not the window (Limit/Offset/Cursor)
// or the budget — as "len:query len:doc alg.sem.exact.rank". The query and
// the document are length-prefixed, so no two distinct requests write the
// same bytes: with plain separators, a separator embedded in the query
// could alias another request's document filter. Key and the cursor
// fingerprint are both this serialization, so a field added here reaches
// the cache key and the cursor alike.
func (r Request) appendIdentity(b []byte) []byte {
	b = strconv.AppendInt(b, int64(len(r.Query)), 10)
	b = append(append(b, ':'), r.Query...)
	b = strconv.AppendInt(b, int64(len(r.Document)), 10)
	b = append(append(b, ':'), r.Document...)
	b = strconv.AppendInt(b, int64(r.Algorithm), 10)
	b = strconv.AppendInt(append(b, '.'), int64(r.Semantics), 10)
	b = strconv.AppendBool(append(b, '.'), r.ExactContent)
	return strconv.AppendBool(append(b, '.'), r.Rank)
}

// Key is the request's cache and singleflight key: its canonical identity
// (the bytes the cursor fingerprint hashes) followed by the window,
// ".limit.offset". Two requests with equal keys produce the same page.
//
// The cursor is not keyed: a caching layer resolves it into Offset first
// (ResolveCursor), and a request pinned to an older snapshot is never
// cached. Nor is the plan: the planner orders the merge, which never
// changes the answer, and the statistics it reads only change with the
// data, which already retires the entry through its version token — so a
// request is planned once, by the pipeline, and a cache hit plans nothing.
func (r Request) Key() string {
	r = r.Canonical()
	var buf [128]byte
	b := r.appendIdentity(buf[:0])
	b = strconv.AppendInt(append(b, '.'), int64(r.Limit), 10)
	b = strconv.AppendInt(append(b, '.'), int64(r.Offset), 10)
	return string(b)
}

// fingerprint hashes (64-bit FNV-1a) the canonical identity
// (appendIdentity): what Key holds before the window. Cursors embed it so a
// token cannot be replayed against a different query.
func (r Request) fingerprint() uint64 {
	var buf [128]byte
	return fnv1a(fnvOffset, r.Canonical().appendIdentity(buf[:0]))
}

// fnvOffset is the 64-bit FNV-1a offset basis, the state fnv1a starts from.
const fnvOffset = 14695981039346656037

// fnv1a folds b's bytes into the 64-bit FNV-1a state h.
func fnv1a[T string | []byte](h uint64, b T) uint64 {
	for i := 0; i < len(b); i++ {
		h = (h ^ uint64(b[i])) * 1099511628211
	}
	return h
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
	out, issued, err := r.foldCursor()
	if err != nil {
		return r, err
	}
	if issued != gen {
		return r, fmt.Errorf("%w: issued at generation %d, data is now at %d; restart from the first page",
			ErrStaleCursor, issued, gen)
	}
	return out, nil
}

// foldCursor is the cursor resolution every entry point shares: it decodes
// r.Cursor, checks that it was issued for r's order-defining fields, and
// folds its resume position into Offset, clearing Cursor. It returns the
// version token the cursor was issued at, for the caller to check or re-pin.
// Errors wrap ErrBadCursor or ErrCursorMismatch.
func (r Request) foldCursor() (Request, uint64, error) {
	st, err := r.Cursor.decode()
	if err != nil {
		return r, 0, err
	}
	if st.fp != r.fingerprint() {
		return r, 0, fmt.Errorf("%w: the cursor's query shape does not match this request", ErrCursorMismatch)
	}
	r.Offset, r.Cursor = st.offset, ""
	return r, st.gen, nil
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
