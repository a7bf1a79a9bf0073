package xks

// Chaos suite: deterministic fault injection (internal/fault) against the
// corpus pipeline, asserting graceful degradation — an injected worker
// panic fails one request with ErrInternal instead of crashing the
// process, an injected store read error surfaces wrapped with the document
// name, an injected slow stage is bounded by the request deadline, and a
// deadline storm under BestEffort salvages the completed documents into a
// truncated page instead of discarding them. Every test runs a
// goroutine-leak check: no fault class may leave workers behind. CI runs
// these under -race.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"xks/internal/fault"
	"xks/internal/reference"
)

// chaosCorpus builds a four-document corpus (copies of the paper's
// publications tree) so fan-out faults can hit one document while the
// others complete.
func chaosCorpus(tb testing.TB) *Corpus {
	tb.Helper()
	c := NewCorpus()
	for _, n := range []string{"a.xml", "b.xml", "c.xml", "d.xml"} {
		c.Add(n, FromTree(reference.Publications()))
	}
	return c
}

// leakCheck registers the goroutine-leak assertion for the test.
func leakCheck(t *testing.T) {
	t.Helper()
	check := fault.LeakCheck()
	t.Cleanup(func() {
		if msg := check(); msg != "" {
			t.Errorf("goroutine leak after fault injection:\n%s", msg)
		}
	})
}

// TestChaosWorkerPanicIsolated injects a panic into one document's
// candidate-stage worker: the search fails with a structured ErrInternal
// carrying the panic value and stack, the process survives, and the next
// fault-free search succeeds.
func TestChaosWorkerPanicIsolated(t *testing.T) {
	leakCheck(t)
	c := chaosCorpus(t)
	plan := fault.NewPlan(fault.Rule{
		Point:  fault.PointCandidates,
		Label:  "b.xml",
		Count:  1,
		Action: fault.Action{PanicMsg: "chaos: candidate worker"},
	})
	ctx := fault.NewContext(context.Background(), plan)

	_, err := c.Search(ctx, Request{Query: reference.Q1})
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("err = %v, want ErrInternal", err)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a wrapped *PanicError", err)
	}
	if !strings.Contains(fmt.Sprint(pe.Value), "chaos: candidate worker") {
		t.Errorf("panic value = %v, want the injected message", pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Error("panic error carries no stack")
	}

	// The same corpus still serves: the panic poisoned one request, not
	// the engine.
	res, err := c.Search(context.Background(), Request{Query: reference.Q1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fragments) == 0 {
		t.Fatal("fault-free search after the panic returned no fragments")
	}
}

// TestChaosMaterializePanicIsolated injects a panic into fragment
// assembly: the strict-budget search fails with ErrInternal, and the
// streaming path yields the same error instead of hanging or crashing.
func TestChaosMaterializePanicIsolated(t *testing.T) {
	leakCheck(t)
	c := chaosCorpus(t)
	req := Request{Query: reference.Q1, Rank: true, Limit: 4}

	plan := fault.NewPlan(fault.Rule{
		Point:  fault.PointMaterialize,
		Count:  1,
		Action: fault.Action{PanicMsg: "chaos: assembly"},
	})
	if _, err := c.Search(fault.NewContext(context.Background(), plan), req); !errors.Is(err, ErrInternal) {
		t.Fatalf("Search err = %v, want ErrInternal", err)
	}

	// Streaming: the second materialization panics; the first fragment is
	// yielded, then the error — the loop terminates either way.
	splan := fault.NewPlan(fault.Rule{
		Point:  fault.PointMaterialize,
		After:  1,
		Count:  1,
		Action: fault.Action{PanicMsg: "chaos: assembly mid-stream"},
	})
	seq, trailer := c.Stream(fault.NewContext(context.Background(), splan), req)
	var yielded int
	var streamErr error
	for f, err := range seq {
		if err != nil {
			streamErr = err
			break
		}
		if f.Fragment == nil {
			t.Fatal("stream yielded a nil fragment without an error")
		}
		yielded++
	}
	if !errors.Is(streamErr, ErrInternal) {
		t.Fatalf("stream err = %v, want ErrInternal", streamErr)
	}
	if yielded != 1 {
		t.Fatalf("stream yielded %d fragments before the injected panic, want 1", yielded)
	}
	if tr := trailer(); tr == nil {
		t.Fatal("trailer is nil after a mid-stream panic")
	}
}

// TestChaosStoreReadFault injects a read error into one document's store
// access: the search fails with the injected sentinel wrapped under the
// document's name, so an operator can tell which shard is sick.
func TestChaosStoreReadFault(t *testing.T) {
	leakCheck(t)
	c := chaosCorpus(t)
	plan := fault.NewPlan(fault.Rule{
		Point:  fault.PointStoreRead,
		Label:  "c.xml",
		Count:  1,
		Action: fault.Action{Err: fault.ErrInjected},
	})
	_, err := c.Search(fault.NewContext(context.Background(), plan), Request{Query: reference.Q1})
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("err = %v, want the injected sentinel", err)
	}
	if !strings.Contains(err.Error(), "c.xml") {
		t.Errorf("err = %q, want the failing document's name in the message", err)
	}
}

// TestChaosSlowStageBoundedByDeadline injects a long delay into every
// candidate worker: a strict request's deadline cuts the delay short and
// the search returns DeadlineExceeded promptly, not after the injected
// sleep.
func TestChaosSlowStageBoundedByDeadline(t *testing.T) {
	leakCheck(t)
	c := chaosCorpus(t)
	plan := fault.NewPlan(fault.Rule{
		Point:  fault.PointCandidates,
		Action: fault.Action{Delay: 30 * time.Second},
	})
	req := Request{Query: reference.Q1}
	ctx, cancel := context.WithTimeout(fault.NewContext(context.Background(), plan), 50*time.Millisecond)
	defer cancel()

	start := time.Now()
	_, err := c.Search(ctx, req)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("slow-stage search took %v; the deadline did not bound the injected delay", elapsed)
	}
}

// TestChaosDeadlineSalvagesCandidates pins the candidate-stage salvage
// satellite: one document's candidate stage burns the whole deadline, and
// a BestEffort search returns a truncated page salvaged from the three
// documents that completed — real fragments, real partial stats, and a
// cursor — where it previously returned an empty page.
func TestChaosDeadlineSalvagesCandidates(t *testing.T) {
	leakCheck(t)
	c := chaosCorpus(t)
	plan := fault.NewPlan(fault.Rule{
		Point:  fault.PointCandidates,
		Label:  "d.xml",
		Action: fault.Action{UntilDeadline: true},
	})
	// Q2 has two roots a document, whose ranked order is not document order,
	// so the six-fragment page interleaves the documents by score.
	req := Request{Query: reference.Q2, Rank: true, Limit: 6}
	req.Budget = BestEffort
	ctx, cancel := context.WithTimeout(fault.NewContext(context.Background(), plan), 150*time.Millisecond)
	defer cancel()

	res, err := c.Search(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated || res.Truncation != TruncCandidates {
		t.Fatalf("truncation = (%v, %q), want (true, %q)", res.Truncated, res.Truncation, TruncCandidates)
	}
	if len(res.Fragments) == 0 {
		t.Fatal("salvaged page is empty; completed documents were discarded")
	}
	for _, f := range res.Fragments {
		if f.Document == "d.xml" {
			t.Fatalf("salvaged page contains a fragment from the stalled document %q", f.Document)
		}
		if f.XML() == "" {
			t.Fatalf("salvaged fragment %s rendered empty", f.Root)
		}
	}
	if len(res.Stats.Keywords) == 0 {
		t.Error("salvaged result lost the query keywords (zero Stats struct)")
	}
	if res.Stats.NumLCAs == 0 {
		t.Error("salvaged result reports zero candidates despite completed documents")
	}
	if res.Cursor == "" {
		t.Error("salvaged page carries no cursor; the scroll would end silently")
	}
	// The salvaged ranked prefix must agree with the same search confined
	// to the surviving documents — salvage changes coverage, not order.
	survivors := NewCorpus()
	for _, n := range []string{"a.xml", "b.xml", "c.xml"} {
		survivors.Add(n, FromTree(reference.Publications()))
	}
	want, err := survivors.Search(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fragments) != len(want.Fragments) {
		t.Fatalf("salvaged page has %d fragments, the search over the survivors %d", len(res.Fragments), len(want.Fragments))
	}
	for i, f := range res.Fragments {
		if w := want.Fragments[i]; f.Document != w.Document || f.Root != w.Root || f.Score != w.Score {
			t.Errorf("salvaged fragment %d is (%s, %s, %v), the survivors' search has (%s, %s, %v)",
				i, f.Document, f.Root, f.Score, w.Document, w.Root, w.Score)
		}
	}
}

// TestChaosDeadlineStorm hammers the corpus with concurrent BestEffort
// searches whose candidate stages are all forced into deadline
// exhaustion: every request must come back (salvaged or empty, never an
// error, never a hang) and no worker goroutine may leak. Run with -race.
func TestChaosDeadlineStorm(t *testing.T) {
	leakCheck(t)
	c := chaosCorpus(t)
	plan := fault.NewPlan(fault.Rule{
		Point:  fault.PointCandidates,
		Label:  "a.xml",
		Action: fault.Action{UntilDeadline: true},
	})

	const storm = 16
	var wg sync.WaitGroup
	errs := make(chan error, storm)
	for i := 0; i < storm; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := Request{Query: reference.Q1, Rank: true, Limit: 4}
			req.Budget = BestEffort
			ctx, cancel := context.WithTimeout(fault.NewContext(context.Background(), plan), 80*time.Millisecond)
			defer cancel()
			res, err := c.Search(ctx, req)
			if err != nil {
				errs <- err
				return
			}
			if !res.Truncated {
				errs <- fmt.Errorf("storm request came back untruncated despite forced exhaustion")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
