//go:build !race

// Allocation-regression tests pinning the node-ID hot path: the candidate
// stage (plan → getLCA → getRTF → score) runs on dense IDs end to end and
// must stay within a small allocation budget per query, so the PR 3 win
// (order-of-magnitude allocs/op reduction on the Figure 5 benchmarks)
// cannot silently erode. Ceilings are ~2x the measured values to absorb
// runtime/compiler noise while still catching a reintroduced per-posting or
// per-event allocation, which would blow past them by orders of magnitude.
//
// The file is excluded from -race builds: the race detector changes
// allocation behaviour, so CI runs these in the race-free benchmark job.

package xks

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"iter"
	"math/bits"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"xks/internal/analysis"
	"xks/internal/datagen"
	"xks/internal/exec"
	"xks/internal/nid"
	"xks/internal/reference"
	"xks/internal/store"
	"xks/internal/trace"
	"xks/internal/workload"
	"xks/internal/xmltree"
)

// allocEngine builds the DBLP preset used by the Figure 5 benchmarks.
func allocEngine(t *testing.T) (*Engine, []string) {
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

// stageCandidates runs the candidate stage uncancellably and hands its borrowed
// events straight back, as a request does once its materialize loop ends:
// the candidates' keyword events must not be read afterwards.
func stageCandidates(p exec.Plan, params exec.Params) []*exec.Candidate {
	cands, _, release, err := exec.Candidates(context.Background(), p, params, 0)
	if err != nil {
		panic(err)
	}
	release()
	return cands
}

// TestPlanStageAllocs pins the planning stage: query parse + ID posting
// lookup, plus the constant-size snapshot pin every query now resolves
// (snapshot + view + scorer headers — a fixed handful of objects, not a
// per-posting cost). The posting lists themselves are shared slices, so
// the total stays a handful of small header allocations regardless of
// posting sizes.
func TestPlanStageAllocs(t *testing.T) {
	e, queries := allocEngine(t)
	const perQueryCeiling = 40.0
	for _, q := range queries {
		q := q
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := e.plan(q); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > perQueryCeiling {
			t.Errorf("plan(%q) allocates %.0f objects per run, ceiling %d", q, allocs, int(perQueryCeiling))
		}
	}
}

// TestCandidateStageAllocs pins the candidate stage over every workload
// query: getLCA and getRTF (one mask merge + ID stack, runs borrowed
// from one pooled buffer) and scoring must allocate only their results — no
// per-posting, per-event or per-path-node garbage.
func TestCandidateStageAllocs(t *testing.T) {
	e, queries := allocEngine(t)
	params := e.params(Request{Rank: true})
	for _, q := range queries {
		p, err := e.plan(q)
		if err != nil {
			t.Fatalf("plan(%q): %v", q, err)
		}
		n := len(stageCandidates(p, params))
		// Budget: a fixed overhead (the candidate window and the query's
		// incremental scorer: 4 objects; the merge, its stacks and the root
		// and run columns are pooled) plus a small per-candidate share
		// (IDRTF headers and the scored Candidate structs).
		ceiling := 4 + 4*float64(n)
		allocs := testing.AllocsPerRun(20, func() { stageCandidates(p, params) })
		t.Logf("MEASURE %q n=%d allocs=%.0f", q, n, allocs)
		if allocs > ceiling {
			t.Errorf("Candidates(%q) allocates %.0f objects per run for %d candidates, ceiling %.0f",
				q, allocs, n, ceiling)
		}
	}
}

// TestTracingOffAllocs pins the observability layer's off switch: with no
// trace attached to the context, the pipeline's instrumentation hooks
// (SpanFromContext + nil-span method calls at every stage) must add zero
// allocations — the candidate stage allocates exactly what it did before
// the hooks existed. Measured per-query against the same run under a
// background context; any drift means a hook allocates on the untraced
// path.
func TestTracingOffAllocs(t *testing.T) {
	// The nil-span operations themselves must be allocation-free.
	ctx := context.Background()
	if allocs := testing.AllocsPerRun(100, func() {
		sp := trace.SpanFromContext(ctx)
		child := sp.Child("stage")
		child.SetInt("n", 1)
		child.SetStr("s", "v")
		child.End()
		trace.ContextWithSpan(ctx, child)
	}); allocs != 0 {
		t.Fatalf("untraced span ops allocate %.0f objects per run, want 0", allocs)
	}

	// And the full candidate stage must allocate identically with and
	// without the instrumented context shape (both untraced).
	e, queries := allocEngine(t)
	params := e.params(Request{Rank: true})
	for _, q := range queries {
		p, err := e.plan(q)
		if err != nil {
			t.Fatalf("plan(%q): %v", q, err)
		}
		base := testing.AllocsPerRun(20, func() { stageCandidates(p, params) })
		again := testing.AllocsPerRun(20, func() { stageCandidates(p, params) })
		if base != again {
			t.Errorf("Candidates(%q) allocations unstable untraced: %.0f vs %.0f", q, base, again)
		}
	}
}

// allocBytesPerRun reports the average heap bytes one call of f allocates,
// measured over runs calls on a quiesced heap.
func allocBytesPerRun(runs int, f func()) int64 {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc-before.TotalAlloc) / int64(runs)
}

// steadyAllocBytes reports the heap bytes one call of f allocates once its
// pools are warm: the least of a few calls, so a call that finds a pool
// emptied — by a collection, or by the P it pooled on going out of reach —
// does not count.
func steadyAllocBytes(f func()) uint64 {
	best := ^uint64(0)
	var before, after runtime.MemStats
	for range 5 {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

// TestSearchAllocsPerFragment pins the full pipeline loosely: a complete
// unranked search (which materializes every fragment) must stay under a
// per-fragment allocation budget — materialization legitimately allocates
// the public FragmentNode data, but nothing proportional to postings that
// were never selected.
func TestSearchAllocsPerFragment(t *testing.T) {
	e, queries := allocEngine(t)
	for _, q := range queries {
		res, err := e.Search(context.Background(), Request{Query: q})
		if err != nil {
			t.Fatal(err)
		}
		nodes := 0
		for _, f := range res.Fragments {
			nodes += f.Len()
		}
		if nodes == 0 {
			continue
		}
		// Budget: fixed search overhead plus a per-fragment share (the
		// candidate, the Fragment with its node slice, one Dewey buffer,
		// the pruning Result). Nothing is
		// allocated per kept node, per fragment-tree node or per posting:
		// fragment trees live in pooled memory (internal/prune), a
		// fragment's Dewey strings share one buffer. Measured values sit
		// at roughly half these coefficients (≈ 70 fixed, ≈ 12 per
		// fragment).
		ceiling := 160 + 24*float64(res.Stats.NumLCAs)
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := e.Search(context.Background(), Request{Query: q}); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > ceiling {
			t.Errorf("Search(%q) allocates %.0f objects per run for %d kept nodes / %d LCAs / %d postings, ceiling %.0f",
				q, allocs, nodes, res.Stats.NumLCAs, res.Stats.KeywordNodes, ceiling)
		}
	}
}

// TestSearchAllocsPerBlock pins page-scoped materialization: a collected
// page is assembled a block of up to 64 candidates at a time, into one
// allocation each for the block's fragments, nodes, kept IDs and Dewey bytes,
// so a Search with n fragments allocates at most a fixed overhead plus four
// objects per ⌈n/64⌉ — at 2 000 and at 20 000 papers, unlimited under both
// semantics and both pruning mechanisms, and ranked. Nothing is allocated per
// fragment, per node or per event. The ceiling allows a fifth per block.
func TestSearchAllocsPerBlock(t *testing.T) {
	const fixed, perBlock = 64, 5
	for _, n := range []int{2000, 20000} {
		e := FromTree(paperTree(n))
		blocks := (n + blockSize - 1) / blockSize
		for _, req := range []Request{
			{Query: blockQuery},
			{Query: blockQuery, Algorithm: MaxMatch},
			{Query: blockQuery, Semantics: SLCAOnly},
			{Query: blockQuery, Rank: true},
		} {
			res, err := e.Search(context.Background(), req)
			if err != nil || len(res.Fragments) != n {
				t.Fatalf("%d fragments, err %v; want %d", len(res.Fragments), err, n)
			}
			allocs := testing.AllocsPerRun(2, func() {
				if _, err := e.Search(context.Background(), req); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%d fragments (%d blocks), %s/%s rank=%v: %.0f objects", n, blocks, req.Semantics, req.Algorithm, req.Rank, allocs)
			if ceiling := float64(fixed + perBlock*blocks); allocs > ceiling {
				t.Errorf("Search(%s/%s rank=%v) over %d fragments allocates %.0f objects, ceiling %.0f: something is allocated per fragment",
					req.Semantics, req.Algorithm, req.Rank, n, allocs, ceiling)
			}
		}
	}
}

// TestStreamAllocsAmortized pins window slabs: a stream prunes and assembles
// one candidate at a time, but carves its fragments, nodes, kept IDs and
// Dewey bytes from slabs sized for windows of 1, 2, 4, … fragments (up to a
// block), so draining n fragments allocates at most c·⌈log₂ n⌉ + k objects
// more than stopping after the first — c = 4 slabs per window, k measured —
// not several per fragment. Measured over these requests: 14–21 at n = 50
// (ceiling 40), 41–47 at n = 500 (ceiling 52), for Engine.Stream and
// Corpus.Stream alike; windows stop growing at a block of 64, so a longer
// stream costs four objects per 64 fragments.
func TestStreamAllocsAmortized(t *testing.T) {
	const c, k = 4, 16
	for _, n := range []int{50, 500} {
		e := FromTree(paperTree(n))
		corpus := NewCorpus()
		corpus.Add("papers", FromTree(paperTree(n)))
		ceiling := float64(c*bits.Len(uint(n-1)) + k)
		for _, req := range []Request{
			{Query: blockQuery},
			{Query: blockQuery, Algorithm: MaxMatch},
			{Query: blockQuery, Semantics: SLCAOnly, Rank: true},
			{Query: blockQuery, Rank: true, Limit: n},
		} {
			what := fmt.Sprintf("%d fragments, %s/%s rank=%v limit=%d", n, req.Semantics, req.Algorithm, req.Rank, req.Limit)
			engine := func() iter.Seq2[*Fragment, error] {
				seq, _ := e.Stream(context.Background(), req)
				return seq
			}
			fan := func() iter.Seq2[CorpusFragment, error] {
				seq, _ := corpus.Stream(context.Background(), req)
				return seq
			}
			for name, extra := range map[string]float64{
				"Engine.Stream": streamAllocs(t, engine, n) - streamAllocs(t, engine, 1),
				"Corpus.Stream": streamAllocs(t, fan, n) - streamAllocs(t, fan, 1),
			} {
				t.Logf("%s %s: %.0f objects past the first fragment", name, what, extra)
				if extra > ceiling {
					t.Errorf("%s over %s: draining allocates %.0f objects more than the first fragment, ceiling %.0f: something is allocated per fragment",
						name, what, extra, ceiling)
				}
			}
		}
	}
}

// streamAllocs is the objects one run of stream allocates when its consumer
// takes the first take fragments, which must be there.
func streamAllocs[F any](t *testing.T, stream func() iter.Seq2[F, error], take int) float64 {
	t.Helper()
	return testing.AllocsPerRun(10, func() {
		n := 0
		for _, err := range stream() {
			if err != nil {
				t.Fatal(err)
			}
			if n++; n == take {
				break
			}
		}
		if n != take {
			t.Fatalf("the stream yielded %d fragments, want %d", n, take)
		}
	})
}

// TestRankedPageHydratesIntoScratch pins deferred-event hydration: a ranked
// page with a limit scores its candidates without keyword events and
// hydrates the selected few into the block's pooled event buffer, so a page
// of 64 fragments allocates what a page of 10 does — not one event slice per
// fragment.
func TestRankedPageHydratesIntoScratch(t *testing.T) {
	e := FromTree(paperTree(500))
	for _, sem := range []Semantics{AllLCA, SLCAOnly} {
		allocs := func(limit int) float64 {
			req := Request{Query: blockQuery, Semantics: sem, Rank: true, Limit: limit}
			return testing.AllocsPerRun(50, func() {
				if res, err := e.Search(context.Background(), req); err != nil || len(res.Fragments) != limit {
					t.Fatalf("limit=%d: %v", limit, err)
				}
			})
		}
		if ten, full := allocs(10), allocs(blockSize); ten != full {
			t.Errorf("%s: a ranked page allocates %.0f objects at limit=10 and %.0f at limit=%d; want the same", sem, ten, full, blockSize)
		}
	}
}

// TestSingleDocumentSearchAllocs pins whole single-document searches to an
// exact object count. Engine.Search runs the request loop itself, not through
// Stream's iterator, and hands it a one-entry document vector that stays on
// its stack (only the corpus fan-out copies its vector for the workers); the
// pipeline parameters carry no per-search closure: the scorer travels as a
// pointer, labels as the pinned label column and content as the lookup the
// pinned source state built once (the two method values the parameters held
// before were the 25th and 26th objects), and an untraced plan is never
// rendered for explain — nor decided: the planner's decision, which only
// explain reads, was the page's 23rd and 24th objects. A query that
// matches nothing stops after planning; an SLCA limit=10 page runs every
// stage, with its roots in the candidate stage's pooled columns and handles
// for its window of ten alone, hydrates its deferred events into the block's
// pooled buffer and assembles its page as one block; its kept nodes hold
// keyword masks, not matched-keyword slices, which saved the page's 27th
// object (the request's array of them). AllocsPerRun's average rounds down,
// which absorbs a collection emptying a pool mid-measurement.
func TestSingleDocumentSearchAllocs(t *testing.T) {
	e, queries := allocEngine(t)
	for _, c := range []struct {
		req  Request
		want float64
	}{
		{Request{Query: "zzzunmatched"}, 14},
		{Request{Query: queries[0], Semantics: SLCAOnly, Limit: 10}, 22},
	} {
		got := testing.AllocsPerRun(100, func() {
			if _, err := e.Search(context.Background(), c.req); err != nil {
				t.Fatal(err)
			}
		})
		if got != c.want {
			t.Errorf("Search(%q, slca=%v, limit=%d) allocates %.0f objects per run, want exactly %.0f",
				c.req.Query, c.req.Semantics == SLCAOnly, c.req.Limit, got, c.want)
		}
	}
}

// TestMaterializeAllocs pins pruneRTF's per-fragment object count: the
// fragment handle lives in the pooled scratch with the node array, neither
// building nor filtering allocates, and the kept IDs are appended to the
// caller's staging buffer, so materializing a candidate into a buffer with
// room allocates nothing, under ValidRTF (which reads content sets for rule
// 2(b)) and MaxMatch alike. AllocsPerRun's average rounds down, which absorbs
// a collection emptying the pool mid-measurement.
func TestMaterializeAllocs(t *testing.T) {
	e, queries := allocEngine(t)
	fragments := 0
	var buf []nid.ID
	for _, algo := range []Algorithm{ValidRTF, MaxMatch} {
		params := e.params(Request{Algorithm: algo})
		for _, q := range queries {
			p, err := e.plan(q)
			if err != nil {
				t.Fatalf("plan(%q): %v", q, err)
			}
			cands, _, release, err := exec.Candidates(context.Background(), p, params, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range cands {
				fragments++
				if allocs := testing.AllocsPerRun(10, func() { buf, _ = exec.Materialize(buf[:0], c.RTF, params) }); allocs != 0 {
					t.Fatalf("%s: materializing a %q fragment allocates %.0f objects, want 0", algo, q, allocs)
				}
			}
			release()
		}
	}
	if fragments == 0 {
		t.Fatal("the workload materialized no fragment")
	}
}

// TestWideGroupAllocsDoNotScale is the scaling guard of the pruneRTF
// kernel: building and pruning a fragment whose root has 8192 same-label
// children allocates what one with 1024 does — the kept-ID slice, which
// grows in size, not in number. Nothing is allocated per child: nodes,
// grouping and the used-cID table are pooled.
func TestWideGroupAllocsDoNotScale(t *testing.T) {
	measure := func(n int) float64 {
		kids := []xmltree.E{{Label: "tag", Text: "beta"}}
		for i := range n {
			kids = append(kids, xmltree.E{Label: "item", Text: fmt.Sprintf("alpha w%05d", i)})
		}
		e := FromTree(xmltree.Build(xmltree.E{Label: "root", Kids: kids}))
		p, err := e.plan("alpha beta")
		if err != nil {
			t.Fatal(err)
		}
		params := e.params(Request{})
		cands, _, release, err := exec.Candidates(context.Background(), p, params, 0)
		if err != nil || len(cands) != 1 {
			t.Fatalf("%d candidates, err %v; want the document root alone", len(cands), err)
		}
		defer release()
		if kept, _ := exec.Materialize(nil, cands[0].RTF, params); len(kept) != n+2 {
			t.Fatalf("kept %d of %d nodes: the items differ in content and must all stay", len(kept), n+2)
		}
		return testing.AllocsPerRun(20, func() { exec.Materialize(nil, cands[0].RTF, params) })
	}
	small, large := measure(1024), measure(8192)
	t.Logf("build+prune allocations: %.0f at 1024 children, %.0f at 8192", small, large)
	if large > small+2 { // slack for a collection emptying the pool mid-measurement
		t.Errorf("build+prune allocates %.0f objects at 8192 children against %.0f at 1024: something is allocated per child", large, small)
	}
}

// TestUnrankedPageAllocsDoNotScale pins the deferred-events page: an
// unranked SLCA limit=10 page builds its candidates from the roots alone and
// hydrates events for its ten fragments only, so it allocates the same
// number of objects whether the query has 40 roots or 400 — nothing per
// root that the page does not return.
func TestUnrankedPageAllocsDoNotScale(t *testing.T) {
	measure := func(records int) float64 {
		kids := make([]xmltree.E, records)
		for i := range kids {
			kids[i] = xmltree.E{Label: "paper", Kids: []xmltree.E{
				{Label: "title", Text: fmt.Sprintf("alpha beta w%05d", i)},
				{Label: "year", Text: "y2009"},
			}}
		}
		e := FromTree(xmltree.Build(xmltree.E{Label: "dblp", Kids: kids}))
		req := Request{Query: "alpha beta", Semantics: SLCAOnly, Limit: 10}
		res, err := e.Search(context.Background(), req)
		if err != nil || res.Stats.NumLCAs != records || len(res.Fragments) != 10 {
			t.Fatalf("%d roots, %d fragments, err %v; want %d roots and a page of 10", res.Stats.NumLCAs, len(res.Fragments), err, records)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := e.Search(context.Background(), req); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := measure(40), measure(400)
	t.Logf("unranked SLCA limit=10 page allocations: %.0f at 40 roots, %.0f at 400", small, large)
	if large > small+2 { // slack for a collection emptying a pool mid-measurement
		t.Errorf("an unranked limit=10 page allocates %.0f objects over 400 roots against %.0f over 40: something is allocated per root", large, small)
	}
}

// TestRankedPageAllocBytesDoNotScale pins the window of a ranked page: the
// candidate stage keeps its roots, scores and scoring accumulators in pooled
// columns and builds handles for the page's ten roots alone, so a ranked
// SLCA limit=10 page allocates the same bytes whether the query has about 80
// roots or about 3 200 — here over one generated document, with the roots
// grown by the keywords' planted counts and the page's fragments alike in
// size. Before the window the stage allocated about 175 bytes per root.
func TestRankedPageAllocBytesDoNotScale(t *testing.T) {
	const slack = 512 // allocator rounding of the page's own output
	measure := func(count int) (roots, nodes int, bytes uint64) {
		e := FromTree(datagen.DBLP(datagen.DBLPConfig{Seed: 5, NumRecords: 10000, Keywords: []datagen.KeywordSpec{
			{Word: "alpha", Count: count}, {Word: "beta", Count: count},
		}}))
		req := Request{Query: "alpha beta", Semantics: SLCAOnly, Rank: true, Limit: 10}
		res, err := e.Search(context.Background(), req)
		if err != nil || len(res.Fragments) != 10 {
			t.Fatalf("count %d: %v", count, err)
		}
		for _, f := range res.Fragments {
			nodes += len(f.Nodes)
		}
		return res.Stats.NumLCAs, nodes, steadyAllocBytes(func() {
			if _, err := e.Search(context.Background(), req); err != nil {
				t.Fatal(err)
			}
		})
	}
	fewRoots, fewNodes, few := measure(1000)
	manyRoots, manyNodes, many := measure(8000)
	t.Logf("ranked SLCA limit=10 page: %d bytes over %d roots, %d over %d", few, fewRoots, many, manyRoots)
	if fewRoots > 150 || manyRoots < 2500 || fewNodes != manyNodes {
		t.Fatalf("pages over %d and %d roots with %d and %d nodes: want about 100 and thousands of roots, pages alike", fewRoots, manyRoots, fewNodes, manyNodes)
	}
	if many > few+slack {
		t.Errorf("a ranked limit=10 page allocates %d bytes over %d roots against %d over %d: something is allocated per root", many, manyRoots, few, fewRoots)
	}
}

// TestELCACandidateAllocs pins the one-pass ELCA candidate stage: the stack
// merge hands each root its run in a pooled buffer, and the candidates borrow
// the runs where they lie, so an unlimited ELCA search's candidate stage
// allocates as many objects on a 20 000-record document as on a 2 000-record
// one — nothing per event, per root or per posting. In bytes, gathering every
// root's events costs what taking the roots alone does (an unranked page's
// stage, which gathers none): the events are never copied.
func TestELCACandidateAllocs(t *testing.T) {
	w := workload.DBLP()
	queries, err := w.ExpandAll()
	if err != nil {
		t.Fatal(err)
	}
	// gatherSlack covers the release func and allocator rounding; a copy of
	// the events would cost 16 bytes each, thousands of them per query.
	const gatherSlack = 256
	measure := func(records int) (allocs []float64, roots, events int) {
		specs, err := w.Specs(0, float64(records)/20000)
		if err != nil {
			t.Fatal(err)
		}
		e := FromTree(datagen.DBLP(datagen.DBLPConfig{Seed: 1, NumRecords: records, Keywords: specs}))
		params := e.params(Request{})
		rootsOnly := params
		rootsOnly.DeferEvents = true
		for _, q := range queries {
			p, err := e.plan(q)
			if err != nil {
				t.Fatalf("plan(%q): %v", q, err)
			}
			cands, _, release, err := exec.Candidates(context.Background(), p, params, 0)
			if err != nil {
				t.Fatal(err)
			}
			roots += len(cands)
			for _, c := range cands {
				events += len(c.RTF.KeywordNodes)
			}
			release()
			gather := steadyAllocBytes(func() { stageCandidates(p, params) })
			bare := steadyAllocBytes(func() { stageCandidates(p, rootsOnly) })
			if gather > bare+gatherSlack {
				t.Errorf("at %d records, Candidates(%q) gathering its events allocates %d bytes against %d for the roots alone: the events are copied",
					records, q, gather, bare)
			}
			allocs = append(allocs, testing.AllocsPerRun(10, func() { stageCandidates(p, params) }))
		}
		return allocs, roots, events
	}
	small, smallRoots, smallEvents := measure(2000)
	large, largeRoots, largeEvents := measure(20000)
	t.Logf("candidate stage over %d queries: %d roots / %d events at 2 000 records, %d / %d at 20 000",
		len(queries), smallRoots, smallEvents, largeRoots, largeEvents)
	if largeRoots < 5*smallRoots {
		t.Fatalf("%d roots at 20 000 records against %d at 2 000: the documents do not scale the stage", largeRoots, smallRoots)
	}
	for i, q := range queries {
		if large[i] > small[i]+2 { // slack for a collection emptying the pool mid-measurement
			t.Errorf("Candidates(%q) allocates %.0f objects at 20 000 records against %.0f at 2 000: something is allocated per event, root or posting",
				q, large[i], small[i])
		}
	}
}

// TestStoreWriteXMLAllocsDoNotScale: a store-backed WriteXML appends into a
// pooled buffer, resolving labels and words by row index — no keep map, no
// per-node key, string or fmt argument — so a fragment of thousands of
// nodes allocates what one of a few does: nothing.
func TestStoreWriteXMLAllocsDoNotScale(t *testing.T) {
	tree := datagen.DBLP(datagen.DBLPConfig{
		Seed:       3,
		NumRecords: 1500,
		Keywords:   []datagen.KeywordSpec{{Word: "alpha", Count: 900}, {Word: "beta", Count: 900}},
	})
	res, err := FromStore(store.Shred(tree, analysis.New())).Search(context.Background(), Request{Query: "alpha beta"})
	if err != nil {
		t.Fatal(err)
	}
	small, large := res.Fragments[0], res.Fragments[0]
	for _, f := range res.Fragments {
		if f.Len() < small.Len() {
			small = f
		}
		if f.Len() > large.Len() {
			large = f
		}
	}
	if small.Len() > 10 || large.Len() < 1000 {
		t.Fatalf("fragments have %d and %d nodes; want a handful and thousands", small.Len(), large.Len())
	}
	for _, f := range []*Fragment{small, large} {
		allocs := testing.AllocsPerRun(20, func() {
			if err := f.WriteXML(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 1 { // slack for a collection emptying the pool mid-measurement
			t.Errorf("WriteXML of a %d-node store-backed fragment allocates %.0f objects per run, want none", f.Len(), allocs)
		}
	}
}

// TestTreeWriteXMLAllocsDoNotScale: WriteXML walks the kept nodes by ID
// and appends into a pooled buffer — no keep map, no Dewey key per child
// of a kept node — so a three-node fragment allocates the same (nothing)
// under a root with 100 children and under one with 10 000.
func TestTreeWriteXMLAllocsDoNotScale(t *testing.T) {
	measure := func(n int) float64 {
		kids := []xmltree.E{{Label: "item", Text: "alpha"}, {Label: "item", Text: "beta"}}
		for i := range n {
			kids = append(kids, xmltree.E{Label: "item", Text: fmt.Sprintf("w%05d", i)})
		}
		res, err := FromTree(xmltree.Build(xmltree.E{Label: "root", Kids: kids})).Search(context.Background(), Request{Query: "alpha beta"})
		if err != nil || len(res.Fragments) != 1 || res.Fragments[0].Len() != 3 {
			t.Fatalf("%d fragments, err %v; want the root with its two matching items", len(res.Fragments), err)
		}
		f := res.Fragments[0]
		return testing.AllocsPerRun(20, func() {
			if err := f.WriteXML(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := measure(100), measure(10000)
	if small > 1 || large > 1 { // slack for a collection emptying the pool mid-measurement
		t.Errorf("WriteXML of a 3-node fragment allocates %.0f objects under a 100-child root and %.0f under a 10 000-child root, want none", small, large)
	}
}

// TestEncodedPageAllocsNoMemo: the serving layer encodes a collected page
// through WriteXML, which renders from the fragment's view into pooled
// buffers, so a page searched and then written fragment by fragment
// allocates what the search alone does, in every backing.
func TestEncodedPageAllocsNoMemo(t *testing.T) {
	for _, backing := range blockBackings {
		e := backing.build(t, 200)
		search := func() []*Fragment {
			res, err := e.Search(context.Background(), Request{Query: blockQuery})
			if err != nil || len(res.Fragments) != 200 {
				t.Fatalf("%s: %d fragments, err %v", backing.name, len(res.Fragments), err)
			}
			return res.Fragments
		}
		searched := testing.AllocsPerRun(20, func() { search() })
		written := testing.AllocsPerRun(20, func() {
			for _, f := range search() {
				if err := f.WriteXML(io.Discard); err != nil {
					t.Fatal(err)
				}
			}
		})
		if written != searched {
			t.Errorf("%s: a 200-fragment page allocates %.0f objects searched and written, %.0f searched alone; want the same",
				backing.name, written, searched)
		}
	}
}

// TestAppendAllocBytesDoNotScale pins "a write costs what it appends": the
// same 256 tail appends allocate as many bytes on a 64 k-node document as on
// a 2 k-node one. Node table, source tables, segment list and merged posting
// lists all grow on shared backing arrays; copying any of them per append
// (the source tables were, 32 B a node) shows up as a ratio in the tens. One
// append before the window lets the exactly-sized arrays a fresh build leaves
// grow once — a one-off that is proportional to the document.
func TestAppendAllocBytesDoNotScale(t *testing.T) {
	const record = "<inproceedings><author>new writer</author><title>alpha appended</title><year>2009</year></inproceedings>"
	measure := func(records int) (nodes int, perAppend int64) {
		tree := datagen.DBLP(datagen.DBLPConfig{Seed: 5, NumRecords: records, Keywords: []datagen.KeywordSpec{{Word: "alpha", Count: records / 4}}})
		e := FromTree(tree)
		nodes = tree.Size()
		if err := e.AppendXML("0", record); err != nil {
			t.Fatal(err)
		}
		return nodes, allocBytesPerRun(256, func() {
			if err := e.AppendXML("0", record); err != nil {
				t.Fatal(err)
			}
		})
	}
	smallNodes, small := measure(270)
	largeNodes, large := measure(8600)
	t.Logf("bytes per append: %d on %d nodes, %d on %d nodes", small, smallNodes, large, largeNodes)
	if smallNodes > 2500 || largeNodes < 60000 {
		t.Fatalf("documents have %d and %d nodes; want about 2 k and 64 k", smallNodes, largeNodes)
	}
	if float64(large) > 1.5*float64(small) {
		t.Errorf("an append allocates %d bytes on %d nodes against %d on %d: something is copied per append in proportion to the document",
			large, largeNodes, small, smallNodes)
	}
}

// TestFragmentAllocSizeClass: fragments are carved by value from their
// block's or window's slab, so the struct's size is paid once per fragment
// every request assembles. The per-document context sits behind one pointer
// and nothing is memoized, which keeps it at 112 bytes; a field that grows
// it costs every fragment the bytes.
func TestFragmentAllocSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Fragment{}); size > 112 {
		t.Errorf("Fragment is %d bytes, want at most 112", size)
	}
}

// TestFragmentNodeAllocSizeClass: kept nodes are carved by value from their
// block's or window's slab, one per kept node of every answer, so the
// record's size is most of a materialized answer's bytes. It is the Dewey
// string and the keyword mask; label, level, text and matched keywords are
// Fragment accessors over the kept IDs: 24 bytes.
func TestFragmentNodeAllocSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(FragmentNode{}); size > 24 {
		t.Errorf("FragmentNode is %d bytes, want at most 24", size)
	}
}

// TestNodeMatchedAllocs: NodeMatched of a node that matched one keyword, or
// keywords adjacent in the query, is a view of the plan's keywords and
// allocates nothing.
func TestNodeMatchedAllocs(t *testing.T) {
	e := FromTree(xmltree.Build(xmltree.E{Label: "r", Kids: []xmltree.E{
		{Label: "a", Text: "alpha"}, {Label: "b", Text: "beta gamma"}, {Label: "c", Text: "alpha gamma"},
	}}))
	res, err := e.Search(context.Background(), Request{Query: "alpha beta gamma"})
	if err != nil || len(res.Fragments) != 1 {
		t.Fatalf("%v fragments, err %v", res, err)
	}
	f := res.Fragments[0]
	for i, want := range map[int][]string{1: {"alpha"}, 2: {"beta", "gamma"}, 3: {"alpha", "gamma"}} {
		if got := f.NodeMatched(i); !slices.Equal(got, want) {
			t.Fatalf("node %s matched %q, want %q", f.Nodes[i].Dewey, got, want)
		}
	}
	for _, i := range []int{1, 2} {
		if allocs := testing.AllocsPerRun(100, func() { f.NodeMatched(i) }); allocs != 0 {
			t.Errorf("NodeMatched of %s (%q) allocates %.0f objects, want 0", f.Nodes[i].Dewey, f.NodeMatched(i), allocs)
		}
	}
}

// TestCorpusVersionForAllocs: a serving layer asks for the version token on
// every request, and the token is an FNV-1a fold over the pins, so neither
// a document-filtered nor a corpus-wide token allocates.
func TestCorpusVersionForAllocs(t *testing.T) {
	c := NewCorpus()
	c.Add("publications", FromTree(reference.Publications()))
	c.Add("team", FromTree(reference.Team()))
	for _, req := range []Request{{Query: "x"}, {Query: "x", Document: "team"}} {
		if got := testing.AllocsPerRun(100, func() { c.VersionFor(req) }); got != 0 {
			t.Errorf("VersionFor(document %q) allocates %.0f objects, want 0", req.Document, got)
		}
	}
}

// TestLoadAllocs pins what Load allocates per element. The scanner writes
// the columns straight from the bytes — no tree, every column sized up
// front — and the build's vocabulary copies its words into shared chunks,
// so a DBLP document of 2 000 records (15 178 elements) allocates about
// 0.15 objects an element, most of them the lower-case forms of
// capitalised words. Parsing a tree and walking it allocated 1.6.
func TestLoadAllocs(t *testing.T) {
	tr := datagen.DBLP(datagen.DBLPConfig{Seed: 1, NumRecords: 2000})
	var b bytes.Buffer
	if err := xmltree.WriteXML(&b, tr.Root); err != nil {
		t.Fatal(err)
	}
	doc := b.Bytes()
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Load(bytes.NewReader(doc)); err != nil {
			t.Fatal(err)
		}
	})
	if per := allocs / float64(tr.Size()); per > 0.2 {
		t.Errorf("loading %d elements allocates %.0f objects, %.2f an element; want at most 0.2", tr.Size(), allocs, per)
	}
}

// TestMappedFromStoreAllocsDoNotScale: an engine over a mapped store views
// the store's columns where they lie — the content column too, term IDs over
// the vocabulary, with no string header a posting — so opening one costs the
// vocabulary (the index's list table) and not the postings. Two documents
// whose postings differ eightfold over a saturated vocabulary open for the
// same object count, and the bytes the larger costs beyond the smaller stay
// below one a posting (a materialised string column cost sixteen).
func TestMappedFromStoreAllocsDoNotScale(t *testing.T) {
	type cost struct{ bytes, objects, postings uint64 }
	open := func(records int) cost {
		path := filepath.Join(t.TempDir(), "dblp.xks")
		doc := datagen.DBLP(datagen.DBLPConfig{Seed: 5, NumRecords: records})
		if err := store.Shred(doc, analysis.New()).SaveFile(path); err != nil {
			t.Fatal(err)
		}
		st, err := store.OpenFile(path, store.OpenOptions{Mode: store.OpenMmap})
		if err != nil {
			t.Skipf("mmap unavailable on this platform: %v", err)
		}
		defer st.Close()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		e := FromStore(st)
		runtime.ReadMemStats(&after)
		_, want, _, _ := st.Columns()
		if got := e.src.Load().content.IDs; unsafe.SliceData(got) != unsafe.SliceData(want.IDs) {
			t.Fatalf("%d records: the engine's content column is a copy, not the store's section", records)
		}
		return cost{after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs, uint64(st.NumValues())}
	}
	small, large := open(1000), open(8000)
	if large.postings < 7*small.postings {
		t.Fatalf("postings %d and %d; want about eightfold", small.postings, large.postings)
	}
	if large.objects > small.objects+2 {
		t.Errorf("FromStore allocates %d objects over %d postings and %d over %d", small.objects, small.postings, large.objects, large.postings)
	}
	if extra := large.bytes - min(large.bytes, small.bytes); extra >= large.postings-small.postings {
		t.Errorf("FromStore allocates %d bytes over %d postings and %d over %d: %d more for %d more postings, want under one a posting",
			small.bytes, small.postings, large.bytes, large.postings, extra, large.postings-small.postings)
	}
}

// TestHeldAllocsAfterAppendAndCompact: an engine holds the columns and
// lists it reads, not the tables it copied away from. Its first append
// copies the store's label, content, text and attribute columns and node
// table rather than write into them, and Compact drops the base index
// over the old table; after both, the engine holds little more than Load
// did. An engine that kept its store would keep both generations (2.06×
// on 12 000 records, against 1.25×).
func TestHeldAllocsAfterAppendAndCompact(t *testing.T) {
	var doc bytes.Buffer
	if err := xmltree.WriteXML(&doc, datagen.DBLP(datagen.DBLPConfig{Seed: 1, NumRecords: 12000}).Root); err != nil {
		t.Fatal(err)
	}
	held := func(base uint64) uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc - min(m.HeapAlloc, base)
	}
	base := held(0)
	e, err := Load(bytes.NewReader(doc.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	loaded := held(base)
	if err := e.AppendXML("0", `<article><title>held heap after an append</title></article>`); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	compacted := held(base)
	runtime.KeepAlive(e)
	runtime.KeepAlive(doc.Bytes()) // in base, so live throughout
	t.Logf("held after Load %.2f MB, after an append and Compact %.2f MB (%.2f×)", float64(loaded)/1e6, float64(compacted)/1e6, float64(compacted)/float64(loaded))
	if float64(compacted) > 1.35*float64(loaded) {
		t.Errorf("after an append and Compact the engine holds %d bytes, %.2f× the %d it held after Load; want at most 1.35×", compacted, float64(compacted)/float64(loaded), loaded)
	}
}

// TestNodeTableAllocs: the node table a Load engine holds is three columns
// — parent (4 bytes), depth (2) and ordinal (4) — so it costs at most 10
// bytes a node. The Dewey arena it replaced cost 4 bytes a level a node
// more, and a 4-byte offset into it (22 a node on this input).
func TestNodeTableAllocs(t *testing.T) {
	var doc bytes.Buffer
	if err := xmltree.WriteXML(&doc, datagen.DBLP(datagen.DBLPConfig{Seed: 1, NumRecords: 12000}).Root); err != nil {
		t.Fatal(err)
	}
	e, err := Load(bytes.NewReader(doc.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	tab := e.head.Load().Tab
	parent, depth, ordinal := tab.Columns()
	held := cap(parent)*int(unsafe.Sizeof(parent[0])) + cap(depth)*int(unsafe.Sizeof(depth[0])) + cap(ordinal)*int(unsafe.Sizeof(ordinal[0]))
	t.Logf("node table: %d bytes over %d nodes (%.2f a node)", held, tab.Len(), float64(held)/float64(tab.Len()))
	if held > 10*tab.Len() {
		t.Errorf("the node table holds %d bytes over %d nodes; want at most 10 a node", held, tab.Len())
	}
}
