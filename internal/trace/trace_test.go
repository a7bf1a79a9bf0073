package trace

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// Duration returns the span's duration: the stamped one after End, the
// time elapsed so far before it. Zero on nil.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.durationLocked()
}

// TestNilSafety drives every Span method through the untraced path: a
// context without a trace yields a nil span, and the whole instrumentation
// chain must no-op instead of panicking.
func TestNilSafety(t *testing.T) {
	sp := SpanFromContext(context.Background())
	if sp != nil {
		t.Fatalf("SpanFromContext on a plain context = %v, want nil", sp)
	}
	if sp2 := SpanFromContext(nil); sp2 != nil { //nolint:staticcheck // nil ctx is the documented no-trace case
		t.Fatalf("SpanFromContext(nil) = %v, want nil", sp2)
	}
	child := sp.Child("stage")
	if child != nil {
		t.Fatalf("nil.Child = %v, want nil", child)
	}
	child.SetInt("count", 1)
	child.SetStr("disposition", "miss")
	child.SetBool("truncated", true)
	child.End()
	if d := child.Duration(); d != 0 {
		t.Fatalf("nil.Duration = %v, want 0", d)
	}
	if j := child.JSON(); j != nil {
		t.Fatalf("nil.JSON = %v, want nil", j)
	}
	if s := child.Text(); s != "" {
		t.Fatalf("nil.Text = %q, want empty", s)
	}
	var tr *Trace
	if tr.Root() != nil {
		t.Fatal("nil trace Root should be nil")
	}
	tr.Finish()
	ctx := context.Background()
	if got := NewContext(ctx, tr); got != ctx {
		t.Fatal("NewContext with nil trace must return ctx unchanged")
	}
	if got := ContextWithSpan(ctx, nil); got != ctx {
		t.Fatal("ContextWithSpan with nil span must return ctx unchanged")
	}
}

// TestUntracedOpsAllocateNothing pins the off-path cost of the hook points:
// looking up the (absent) span and running the full no-op chain must not
// allocate — this is the contract that lets the pipeline stay instrumented
// on every request.
func TestUntracedOpsAllocateNothing(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		sp := SpanFromContext(ctx)
		c := sp.Child("stage")
		c.SetInt("count", 42)
		c.End()
		_ = ContextWithSpan(ctx, c)
	})
	if allocs != 0 {
		t.Fatalf("untraced hook chain allocates %.1f objects/op, want 0", allocs)
	}
}

func TestTreeStructureAndExport(t *testing.T) {
	tr := New("search")
	root := tr.Root()
	plan := root.Child("plan")
	plan.SetInt("keywordNodes", 12)
	plan.End()
	cand := root.Child("candidates")
	doc := cand.Child("doc:a.xml")
	doc.SetInt("candidates", 3)
	doc.End()
	cand.End()
	root.SetStr("cache", "miss")
	tr.Finish()

	j := root.JSON()
	if j.Name != "search" || len(j.Children) != 2 {
		t.Fatalf("unexpected export: %+v", j)
	}
	if j.Attrs["cache"] != "miss" {
		t.Fatalf("string attr lost: %v", j.Attrs)
	}
	if j.Children[0].Attrs["keywordNodes"] != int64(12) {
		t.Fatalf("counter attr lost: %v", j.Children[0].Attrs)
	}
	if len(j.Children[1].Children) != 1 || j.Children[1].Children[0].Name != "doc:a.xml" {
		t.Fatalf("nesting lost: %+v", j.Children[1])
	}
	if _, err := json.Marshal(j); err != nil {
		t.Fatalf("span JSON does not marshal: %v", err)
	}

	text := root.Text()
	for _, want := range []string{"search ", "  plan ", "  candidates ", "    doc:a.xml ", "keywordNodes=12", "cache=miss"} {
		if !strings.Contains(text, want) {
			t.Errorf("Text() missing %q:\n%s", want, text)
		}
	}
}

// TestEndIdempotent: the first End wins, so a deferred End cannot
// overwrite the duration an explicit one stamped.
func TestEndIdempotent(t *testing.T) {
	tr := New("x")
	sp := tr.Root()
	sp.End()
	d1 := sp.Duration()
	time.Sleep(2 * time.Millisecond)
	sp.End()
	if d2 := sp.Duration(); d2 != d1 {
		t.Fatalf("second End changed duration: %v -> %v", d1, d2)
	}
}

// TestAttrOverwrite: last write per key wins, no duplicate keys.
func TestAttrOverwrite(t *testing.T) {
	tr := New("x")
	sp := tr.Root()
	sp.SetInt("n", 1)
	sp.SetInt("n", 2)
	j := sp.JSON()
	if len(j.Attrs) != 1 || j.Attrs["n"] != int64(2) {
		t.Fatalf("attr overwrite broken: %v", j.Attrs)
	}
}

// TestConcurrentChildren mirrors the corpus fan-out: many workers attach
// children and attributes to one parent concurrently (run under -race).
func TestConcurrentChildren(t *testing.T) {
	tr := New("search")
	cand := tr.Root().Child("candidates")
	var wg sync.WaitGroup
	const workers = 16
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sp := cand.Child("doc")
			sp.SetInt("candidates", int64(i))
			sp.End()
		}(i)
	}
	wg.Wait()
	cand.End()
	tr.Finish()
	if got := len(cand.JSON().Children); got != workers {
		t.Fatalf("lost children under concurrency: got %d, want %d", got, workers)
	}
}
