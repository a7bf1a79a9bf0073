package xks

// Cancellation tests for the context-aware Request API: a done context
// aborts the staged pipeline promptly — upfront, inside the k-way merge
// loops of the candidate stage (bounded by the check interval), and between
// materialized fragments — and the corpus fan-out joins every worker
// goroutine before returning. These run under -race in CI.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"xks/internal/datagen"
	"xks/internal/workload"
)

// figure5Engine builds the DBLP preset the Figure 5 benchmarks measure
// (the same construction as allocEngine / the crosscheck engines).
func figure5Engine(t testing.TB) (*Engine, []string) {
	t.Helper()
	w := workload.DBLP()
	specs, err := w.Specs(0, 400.0/20000.0)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := w.ExpandAll()
	if err != nil {
		t.Fatal(err)
	}
	tree := datagen.DBLP(datagen.DBLPConfig{Seed: 1, NumRecords: 400, Keywords: specs})
	return FromTree(tree), queries
}

// richestQuery returns the workload query with the most fragments, so
// paging and mid-materialization tests have several fragments to work
// with.
func richestQuery(t testing.TB, e *Engine, queries []string) string {
	t.Helper()
	best, bestN := "", -1
	for _, q := range queries {
		res, err := e.Search(context.Background(), Request{Query: q})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Fragments) > bestN {
			best, bestN = q, len(res.Fragments)
		}
	}
	return best
}

// TestDeadlineAbortsFigure5ScaleSearch pins the acceptance contract of the
// Request API: a 1ms deadline aborts a Figure-5-scale search with
// context.DeadlineExceeded, while the old eager path — the deprecated
// wrapper running on context.Background() — completes the identical query.
// The test waits for the deadline to pass before dispatching so the result
// is deterministic on any machine; the mid-stage checks that bound
// cancellation latency on slower hardware are covered by
// TestCancelInsideCandidateMerge.
func TestDeadlineAbortsFigure5ScaleSearch(t *testing.T) {
	e, queries := figure5Engine(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	<-ctx.Done()

	for _, q := range queries {
		if _, err := e.Search(ctx, Request{Query: q}); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Search(%q) under expired deadline: err = %v, want context.DeadlineExceeded", q, err)
		}
	}
	// The old eager path (the pre-pipeline reference implementation the
	// crosscheck tests keep) has no deadline to exceed: it completes every
	// query the deadlined Request aborted.
	for _, q := range queries {
		res, err := eagerSearch(e, q, Request{})
		if err != nil {
			t.Fatalf("eagerSearch(%q): %v", q, err)
		}
		if res == nil {
			t.Fatalf("eagerSearch(%q) returned nil result", q)
		}
	}
	// A deadline set just before the call, which may or may not have
	// passed by the time the pipeline checks it, ends the search in one of
	// the two ways a deadline can: completed or DeadlineExceeded.
	tctx, tcancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer tcancel()
	if _, err := e.Search(tctx, Request{Query: queries[0]}); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("1ns deadline: err = %v, want nil or context.DeadlineExceeded", err)
	}
}

// tripCtx is a context whose Err starts reporting an error after a fixed
// number of Err calls, making "cancelled mid-candidate-stage" (or
// mid-materialization) deterministic: the first call (the upfront check in
// exec.Candidates) passes, the next check — inside the merge loop — trips.
// err selects what the trip reports (default context.Canceled; the
// best-effort tests use context.DeadlineExceeded).
type tripCtx struct {
	context.Context
	calls atomic.Int64
	after int64
	err   error
}

func (c *tripCtx) Err() error {
	if c.calls.Add(1) > c.after {
		if c.err != nil {
			return c.err
		}
		return context.Canceled
	}
	return nil
}

// TestCancelInsideCandidateMerge proves the candidate stage observes
// cancellation mid-stream, bounded by the check interval: on a document
// whose merged keyword stream far exceeds the interval, a context that
// trips after the upfront check aborts the search from inside the k-way
// merge with ctx.Err().
func TestCancelInsideCandidateMerge(t *testing.T) {
	// Two keywords at 4000 postings each: the merged stream (8000 events)
	// crosses the 4096-event check interval several times.
	tree := datagen.DBLP(datagen.DBLPConfig{
		Seed:       42,
		NumRecords: 2000,
		Keywords:   []datagen.KeywordSpec{{Word: "alpha", Count: 4000}, {Word: "beta", Count: 4000}},
	})
	e := FromTree(tree)
	const q = "alpha beta"

	// Sanity: the search succeeds without cancellation.
	res, err := e.Search(context.Background(), Request{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fragments) == 0 {
		t.Fatal("generated document yields no fragments; the cancellation check would be vacuous")
	}

	ctx := &tripCtx{Context: context.Background(), after: 1}
	if _, err := e.Search(ctx, Request{Query: q}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled from inside the candidate stage", err)
	}
	if n := ctx.calls.Load(); n < 2 {
		t.Fatalf("context checked %d times; the trip must come from a mid-stage check, not the upfront one", n)
	}

	// SLCA semantics runs a different merge loop; it must check too.
	ctx = &tripCtx{Context: context.Background(), after: 1}
	if _, err := e.Search(ctx, Request{Query: q, Semantics: SLCAOnly}); !errors.Is(err, context.Canceled) {
		t.Fatalf("SLCA: err = %v, want context.Canceled", err)
	}
}

// corpusForCancel builds a corpus big enough that its fan-out spawns real
// workers.
func corpusForCancel(t testing.TB) (*Corpus, string) {
	t.Helper()
	w := workload.DBLP()
	specs, err := w.Specs(0, 400.0/20000.0)
	if err != nil {
		t.Fatal(err)
	}
	q, err := w.Expand(w.Queries[0])
	if err != nil {
		t.Fatal(err)
	}
	c := NewCorpus()
	for i := int64(0); i < 8; i++ {
		tree := datagen.DBLP(datagen.DBLPConfig{Seed: 200 + i, NumRecords: 400, Keywords: specs})
		c.Add(fmt.Sprintf("doc%d.xml", i), FromTree(tree))
	}
	c.Workers = 4
	return c, q
}

// TestCorpusSearchCancelReturnsCtxErr covers the fan-out: a context
// cancelled before and during a corpus search surfaces ctx.Err(), not a
// partial result.
func TestCorpusSearchCancelReturnsCtxErr(t *testing.T) {
	c, q := corpusForCancel(t)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Search(ctx, Request{Query: q}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled corpus search: err = %v, want context.Canceled", err)
	}

	ctx, cancel = context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Microsecond)
		cancel()
	}()
	if _, err := c.Search(ctx, Request{Query: q}); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-flight cancel: err = %v, want nil (finished first) or context.Canceled", err)
	}
	cancel()
}

// TestCorpusSearchCancelLeaksNoGoroutines asserts the fan-out joins every
// worker before returning on cancellation: after many cancelled searches
// the goroutine count settles back to its baseline.
func TestCorpusSearchCancelLeaksNoGoroutines(t *testing.T) {
	c, q := corpusForCancel(t)
	// Warm up once so lazily-started runtime goroutines are in the
	// baseline.
	if _, err := c.Search(context.Background(), Request{Query: q}); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	for i := 0; i < 25; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		if i%2 == 0 {
			cancel() // cancelled before dispatch
		} else {
			go func() {
				time.Sleep(50 * time.Microsecond)
				cancel()
			}()
		}
		_, err := c.Search(ctx, Request{Query: q})
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("iteration %d: err = %v", i, err)
		}
		cancel()
	}

	// Let any stragglers finish; MapCtx joins its workers, so the count
	// must settle at (or below) the baseline.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines: %d before, %d after cancelled searches — fan-out leaked", before, after)
	}
}

// TestBestEffortBudgetTruncatesMidMaterialization pins the BestEffort
// acceptance contract: a deadline that expires mid-materialization comes
// back as a partial page with Truncated set and a resumable cursor, where
// the identical Strict request fails with context.DeadlineExceeded. The
// tripCtx makes the expiry land inside the materialization loop
// deterministically (same allowance as TestSearchCancelBetweenFragments).
func TestBestEffortBudgetTruncatesMidMaterialization(t *testing.T) {
	e, queries := figure5Engine(t)
	q := richestQuery(t, e, queries)
	full, err := e.Search(context.Background(), Request{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Fragments) < 3 {
		t.Skipf("query %q yields %d fragments; need a few to truncate between", q, len(full.Fragments))
	}
	allowance := int64(2 + len(full.Fragments)/2)

	// Strict (the default): the same mid-materialization deadline is an
	// error.
	ctx := &tripCtx{Context: context.Background(), after: allowance, err: context.DeadlineExceeded}
	if _, err := e.Search(ctx, Request{Query: q}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("strict budget: err = %v, want context.DeadlineExceeded", err)
	}

	// BestEffort: the fragments finished in time come back, marked.
	ctx = &tripCtx{Context: context.Background(), after: allowance, err: context.DeadlineExceeded}
	res, err := e.Search(ctx, Request{Query: q, Budget: BestEffort})
	if err != nil {
		t.Fatalf("best-effort budget: err = %v, want nil", err)
	}
	if !res.Truncated {
		t.Fatal("best-effort deadline did not set Truncated")
	}
	if len(res.Fragments) == 0 || len(res.Fragments) >= len(full.Fragments) {
		t.Fatalf("truncated page has %d fragments, want a non-empty strict subset of %d",
			len(res.Fragments), len(full.Fragments))
	}
	// The page is the exact prefix of the full result, and the cursor
	// resumes right after it.
	for i, f := range res.Fragments {
		if f.Root != full.Fragments[i].Root {
			t.Fatalf("fragment %d: %s, want prefix %s", i, f.Root, full.Fragments[i].Root)
		}
	}
	if next := nextOffset(t, res.Cursor); next != len(res.Fragments) {
		t.Fatalf("truncated page: Cursor=%q resumes at %d, want %d",
			res.Cursor, next, len(res.Fragments))
	}
	rest, err := e.Search(context.Background(), Request{Query: q, Cursor: res.Cursor})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Fragments) + len(rest.Fragments); got != len(full.Fragments) {
		t.Fatalf("truncated page + resume = %d fragments, want %d", got, len(full.Fragments))
	}

	// A deadline already expired before the pipeline starts: BestEffort
	// returns an empty truncated page instead of an error.
	expired, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	<-expired.Done()
	empty, err := e.Search(expired, Request{Query: q, Budget: BestEffort})
	if err != nil {
		t.Fatalf("expired best-effort: err = %v, want nil", err)
	}
	if !empty.Truncated || len(empty.Fragments) != 0 {
		t.Fatalf("expired best-effort: %d fragments truncated=%t, want 0/true", len(empty.Fragments), empty.Truncated)
	}
	// Cancellation is not softened: the caller is gone either way.
	gone, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := e.Search(gone, Request{Query: q, Budget: BestEffort}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled best-effort: err = %v, want context.Canceled", err)
	}
}

// TestCorpusBestEffortBudget covers the fan-out: an expired deadline under
// BestEffort yields a truncated (possibly empty) page with no error, both
// buffered and streamed, and the truncated stream's trailer stays
// resumable.
func TestCorpusBestEffortBudget(t *testing.T) {
	c, q := corpusForCancel(t)

	expired, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	<-expired.Done()
	res, err := c.Search(expired, Request{Query: q, Budget: BestEffort})
	if err != nil {
		t.Fatalf("expired best-effort corpus search: err = %v, want nil", err)
	}
	if !res.Truncated {
		t.Fatal("expired best-effort corpus search did not set Truncated")
	}
	if _, err := c.Search(expired, Request{Query: q}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("strict twin: err = %v, want context.DeadlineExceeded", err)
	}

	// Mid-materialization trip through the streaming path: the fragments
	// yielded before the deadline survive, the trailer marks truncation.
	full, err := c.Search(context.Background(), Request{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Fragments) < 3 {
		t.Skipf("query %q yields %d fragments; need a few to truncate between", q, len(full.Fragments))
	}
	ctx := &tripCtx{Context: context.Background(), after: int64(1 << 30), err: context.DeadlineExceeded}
	seq, trailer := c.Stream(ctx, Request{Query: q, Budget: BestEffort})
	streamed := 0
	for _, err := range seq {
		if err != nil {
			t.Fatalf("stream yielded %v", err)
		}
		if streamed++; streamed == 2 {
			// Arm the trip: the very next Err() call — the check before
			// fragment 3 — reports an expired deadline.
			ctx.after = -1
		}
	}
	res = trailer()
	if !res.Truncated || streamed != 2 {
		t.Fatalf("truncated stream: %d fragments yielded truncated=%t, want 2/true", streamed, res.Truncated)
	}
	if res.Cursor == "" {
		t.Fatal("truncated stream issued no cursor")
	}
	rest, err := c.Search(context.Background(), Request{Query: q, Cursor: res.Cursor})
	if err != nil {
		t.Fatal(err)
	}
	if got := 2 + len(rest.Fragments); got != len(full.Fragments) {
		t.Fatalf("truncated stream + resume = %d fragments, want %d", got, len(full.Fragments))
	}
}

// TestSearchCancelBetweenFragments covers the materialization loop: a
// context cancelled after the candidate stage still aborts the search
// before assembling the remaining fragments.
func TestSearchCancelBetweenFragments(t *testing.T) {
	e, queries := figure5Engine(t)
	// Trip well after the candidate stage's checks: the upfront check plus
	// one per materialized fragment means a large allowance lands the trip
	// inside the materialization loop for a query with many fragments.
	q := richestQuery(t, e, queries)
	res, err := e.Search(context.Background(), Request{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fragments) < 3 {
		t.Skipf("query %q yields %d fragments; need a few to cancel between", q, len(res.Fragments))
	}
	before := e.assembledFragments()
	ctx := &tripCtx{Context: context.Background(), after: int64(2 + len(res.Fragments)/2)}
	if _, err := e.Search(ctx, Request{Query: q}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if assembled := e.assembledFragments() - before; assembled >= uint64(len(res.Fragments)) {
		t.Fatalf("assembled %d of %d fragments despite cancellation", assembled, len(res.Fragments))
	}
}
