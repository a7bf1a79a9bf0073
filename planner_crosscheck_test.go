package xks

// The cost-based query planner orders the k-way merge and turns dispatch
// galloping on; it never picks what runs. That it never changes answers is
// pinned below the engine: internal/exec's one-pass tests run every
// producer under a random merge order and galloping flag against the
// order-free references, and internal/rtf's scored-build tests require the
// same score bits under any order. What the engine adds is the explain
// stamp, pinned here.

import (
	"context"
	"testing"

	"xks/internal/planner"
	"xks/internal/trace"
	"xks/internal/workload"
)

// TestExecutedStrategyOnPlanSpan pins what a request executes as, read off
// the one plan span a traced search records: ELCA semantics runs the stack
// merge (ScanMerge) and SLCA semantics the galloping indexed kernel
// (IndexedEager).
func TestExecutedStrategyOnPlanSpan(t *testing.T) {
	e := crosscheckDBLPEngine(t, 10)
	// Workload queries match the generated document, so planning succeeds
	// and the planner must commit to a concrete strategy.
	w := workload.DBLP()
	var queries []string
	for _, abbrev := range w.Queries[:2] {
		q, err := w.Expand(abbrev)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, q)
	}
	executed := func(req Request) string {
		t.Helper()
		tr := trace.New("search")
		if _, err := e.Search(trace.NewContext(context.Background(), tr), req); err != nil {
			t.Fatal(err)
		}
		var algorithm string
		plans := 0
		for _, sp := range tr.Root().JSON().Children {
			if sp.Name == "plan" {
				plans++
				algorithm, _ = sp.Attrs["algorithm"].(string)
			}
		}
		if plans != 1 {
			t.Fatalf("%+v: %d plan spans, want 1", req, plans)
		}
		return algorithm
	}
	for _, q := range queries {
		for _, sem := range []Semantics{AllLCA, SLCAOnly} {
			want := planner.ScanMerge
			if sem == SLCAOnly {
				want = planner.IndexedEager
			}
			if got := executed(Request{Query: q, Semantics: sem}); got != want.String() {
				t.Fatalf("%q %v: executed as %s, want %s", q, sem, got, want)
			}
		}
	}
}
