package xks

// Crosscheck of the cost-based query planner: Strategy is an
// output-identical knob, so a search under Auto must return byte-identical
// fragments to the same search under every fixed strategy — across all
// pruning algorithms, both semantics, and the paging shapes that flip the
// score-without-events candidate stage on. These tests are what lets the
// planner change its mind (new statistics, recalibrated cost model)
// without a correctness review.

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"xks/internal/paperdata"
	"xks/internal/trace"
	"xks/internal/workload"
)

// strategyLabel keeps failure messages readable.
func strategyLabel(s Strategy) string { return s.String() }

// TestAutoMatchesFixedStrategiesEngine runs every crosscheck-grid request
// under Auto and under each fixed strategy on a single engine and requires
// identical output — fragments, scores, stats.
func TestAutoMatchesFixedStrategiesEngine(t *testing.T) {
	engines := map[string]*Engine{
		"publications": FromTree(paperdata.Publications()),
		"dblp":         crosscheckDBLPEngine(t, 7),
	}
	queries := []string{paperdata.Q1, paperdata.Q2, paperdata.Q3, paperdata.QLiuKeyword}
	for name, e := range engines {
		for _, q := range queries {
			for _, opts := range crosscheckOptions() {
				auto := NewRequest(q, opts)
				want, err := e.Search(context.Background(), auto)
				if err != nil {
					t.Fatalf("%s %q auto: %v", name, q, err)
				}
				for _, strat := range []Strategy{IndexedEager, ScanMerge} {
					req := auto
					req.Strategy = strat
					label := fmt.Sprintf("%s %q %s/%s rank=%v limit=%d strategy=%s",
						name, q, opts.Algorithm, opts.Semantics, opts.Rank, opts.Limit, strategyLabel(strat))
					got, err := e.Search(context.Background(), req)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if !reflect.DeepEqual(want.Stats.Keywords, got.Stats.Keywords) ||
						want.Stats.KeywordNodes != got.Stats.KeywordNodes ||
						want.Stats.NumLCAs != got.Stats.NumLCAs {
						t.Fatalf("%s: stats diverge: auto (%v,%d,%d) vs fixed (%v,%d,%d)", label,
							want.Stats.Keywords, want.Stats.KeywordNodes, want.Stats.NumLCAs,
							got.Stats.Keywords, got.Stats.KeywordNodes, got.Stats.NumLCAs)
					}
					requireSameFragments(t, label, want.Fragments, got.Fragments)
				}
			}
		}
	}
}

// TestAutoMatchesFixedStrategiesCorpus repeats the strategy crosscheck
// through the corpus fan-out — the bounded top-K merge plus the deferred
// score-without-events candidate stage that ranked corpus searches use.
func TestAutoMatchesFixedStrategiesCorpus(t *testing.T) {
	c := NewCorpus()
	c.Add("pubs.xml", FromTree(paperdata.Publications()))
	c.Add("dblp-a.xml", crosscheckDBLPEngine(t, 8))
	c.Add("dblp-b.xml", crosscheckDBLPEngine(t, 9))
	c.Workers = 3

	w := workload.DBLP()
	expanded, err := w.Expand(w.Queries[0])
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{paperdata.Q1, paperdata.QLiuKeyword, expanded}
	shapes := []Options{
		{},
		{Rank: true},
		{Rank: true, Limit: 5},
		{Rank: true, Limit: 1},
		{Limit: 5},
	}
	for _, q := range queries {
		for _, base := range shapes {
			for _, algo := range []Algorithm{ValidRTF, MaxMatch, RawRTF} {
				for _, sem := range []Semantics{AllLCA, SLCAOnly} {
					opts := base
					opts.Algorithm = algo
					opts.Semantics = sem
					auto := NewRequest(q, opts)
					want, err := c.Search(context.Background(), auto)
					if err != nil {
						t.Fatalf("corpus %q auto: %v", q, err)
					}
					for _, strat := range []Strategy{IndexedEager, ScanMerge} {
						req := auto
						req.Strategy = strat
						label := fmt.Sprintf("corpus %q %s/%s rank=%v limit=%d strategy=%s",
							q, algo, sem, opts.Rank, opts.Limit, strategyLabel(strat))
						got, err := c.Search(context.Background(), req)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if !reflect.DeepEqual(want.PerDocument, got.PerDocument) {
							t.Fatalf("%s: PerDocument %v vs %v", label, want.PerDocument, got.PerDocument)
						}
						if len(want.Fragments) != len(got.Fragments) {
							t.Fatalf("%s: %d vs %d fragments", label, len(want.Fragments), len(got.Fragments))
						}
						wf := make([]*Fragment, len(want.Fragments))
						gf := make([]*Fragment, len(got.Fragments))
						for i := range want.Fragments {
							if want.Fragments[i].Document != got.Fragments[i].Document {
								t.Fatalf("%s fragment %d: document %s vs %s", label, i,
									want.Fragments[i].Document, got.Fragments[i].Document)
							}
							wf[i] = want.Fragments[i].Fragment
							gf[i] = got.Fragments[i].Fragment
						}
						requireSameFragments(t, label, wf, gf)
					}
				}
			}
		}
	}
}

// TestExecutedStrategyOnPlanSpan pins what a request executes as, read off
// the one plan span a traced search records: whatever strategy is requested,
// ELCA semantics runs the stack merge (ScanMerge) and SLCA semantics the
// galloping indexed kernel (IndexedEager).
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
			want := ScanMerge
			if sem == SLCAOnly {
				want = IndexedEager
			}
			for _, strat := range []Strategy{Auto, IndexedEager, ScanMerge} {
				if got := executed(Request{Query: q, Semantics: sem, Strategy: strat}); got != want.String() {
					t.Fatalf("%q %v strategy %v: executed as %s, want %s", q, sem, strat, got, want)
				}
			}
		}
	}
}

// TestStrategyOutsideCursorFingerprint pins that Strategy is not part of
// the pagination contract: a cursor minted under one strategy must resume
// under another, because the planner may flip between pages as statistics
// refresh and the result set is identical either way.
func TestStrategyOutsideCursorFingerprint(t *testing.T) {
	e := crosscheckDBLPEngine(t, 11)
	// Pick the workload query with the largest SLCA result set, so the
	// first page actually truncates and a second page exists.
	w := workload.DBLP()
	var q string
	var all *Result
	for _, abbrev := range w.Queries {
		expanded, err := w.Expand(abbrev)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Search(context.Background(), Request{Query: expanded, Semantics: SLCAOnly, Rank: true})
		if err != nil {
			t.Fatal(err)
		}
		if all == nil || len(res.Fragments) > len(all.Fragments) {
			q, all = expanded, res
		}
	}
	if len(all.Fragments) < 3 {
		t.Fatalf("need >= 3 fragments to page, best workload query has %d", len(all.Fragments))
	}
	first, err := e.Search(context.Background(), Request{
		Query: q, Semantics: SLCAOnly, Rank: true, Limit: 2, Strategy: IndexedEager,
	})
	if err != nil {
		t.Fatal(err)
	}
	if first.Cursor == "" {
		t.Fatal("no cursor on a truncated page")
	}
	second, err := e.Search(context.Background(), Request{
		Query: q, Semantics: SLCAOnly, Rank: true, Limit: 2,
		Strategy: ScanMerge, Cursor: first.Cursor,
	})
	if err != nil {
		t.Fatalf("cursor minted under IndexedEager rejected under ScanMerge: %v", err)
	}
	requireSameFragments(t, "cursor resume across strategies",
		all.Fragments[2:min(4, len(all.Fragments))], second.Fragments)
}
