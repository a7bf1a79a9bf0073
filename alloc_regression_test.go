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
	"context"
	"fmt"
	"io"
	"runtime"
	"testing"
	"unsafe"

	"xks/internal/analysis"
	"xks/internal/datagen"
	"xks/internal/exec"
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
// query: getLCA and getRTF (one streamed merge + ID stack, runs copied into
// one exact-size arena) and scoring must allocate only their results — no
// per-posting, per-event or per-path-node garbage.
func TestCandidateStageAllocs(t *testing.T) {
	e, queries := allocEngine(t)
	params := e.params(Request{Rank: true})
	for _, q := range queries {
		p, err := e.plan(q)
		if err != nil {
			t.Fatalf("plan(%q): %v", q, err)
		}
		cands, _ := exec.Candidates(context.Background(), p, params, 0)
		// Budget: a fixed overhead (merger, stacks, root/count/arena
		// slices) plus a small per-candidate share (IDRTF headers and the
		// scored Candidate structs).
		ceiling := 48 + 4*float64(len(cands))
		allocs := testing.AllocsPerRun(20, func() {
			exec.Candidates(context.Background(), p, params, 0) //nolint:errcheck
		})
		if allocs > ceiling {
			t.Errorf("Candidates(%q) allocates %.0f objects per run for %d candidates, ceiling %.0f",
				q, allocs, len(cands), ceiling)
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
		base := testing.AllocsPerRun(20, func() {
			exec.Candidates(ctx, p, params, 0) //nolint:errcheck
		})
		again := testing.AllocsPerRun(20, func() {
			exec.Candidates(ctx, p, params, 0) //nolint:errcheck
		})
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

// TestDeferredEventsAllocBytes pins the score-without-events win: a ranked
// candidate stage that defers event materialization (what ranked+limited
// engine searches and every ranked corpus fan-out run) must allocate
// meaningfully fewer heap bytes than the eager stage, because candidates
// that will never be materialized never get their per-candidate
// keyword-event lists built — scores come from the shared accumulator
// arena. The byte dimension matters here: the eager path's cost is a few
// large event slices, not many small objects, so an object count alone
// would miss a regression.
func TestDeferredEventsAllocBytes(t *testing.T) {
	e, queries := allocEngine(t)
	eager := e.params(Request{Rank: true})
	deferred := eager
	deferred.DeferEvents = true
	var eagerBytes, deferredBytes int64
	for _, q := range queries {
		p, err := e.plan(q)
		if err != nil {
			t.Fatalf("plan(%q): %v", q, err)
		}
		eagerBytes += allocBytesPerRun(20, func() {
			exec.Candidates(context.Background(), p, eager, 0) //nolint:errcheck
		})
		deferredBytes += allocBytesPerRun(20, func() {
			exec.Candidates(context.Background(), p, deferred, 0) //nolint:errcheck
		})
	}
	if deferredBytes >= eagerBytes {
		t.Fatalf("deferred candidate stage allocates %d bytes per query mix, eager %d — no win",
			deferredBytes, eagerBytes)
	}
	// The measured win on the DBLP mix is well past half; require a fifth
	// so noise cannot mask a real regression without tripping on jitter.
	if float64(deferredBytes) > 0.8*float64(eagerBytes) {
		t.Errorf("deferred candidate stage allocates %d bytes vs eager %d (%.0f%%), want at least a 20%% reduction",
			deferredBytes, eagerBytes, 100*float64(deferredBytes)/float64(eagerBytes))
	}
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
		// candidate, the Fragment with its node slice, one Dewey buffer
		// and the Matched slices, the pruning Result). Nothing is
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

// TestSingleDocumentSearchAllocs pins whole single-document searches to an
// exact object count. Engine.Stream hands the request loop a one-entry
// document vector that stays on its stack (only the corpus fan-out copies
// its vector for the workers), and the pipeline parameters carry no
// per-search closure besides the scorer's Incremental and the source's
// contentOfID: labels travel as the pinned label column. A query that matches
// nothing stops after planning; an SLCA limit=10 page runs every stage.
// AllocsPerRun's average rounds down, which absorbs a collection emptying a
// pool mid-measurement.
func TestSingleDocumentSearchAllocs(t *testing.T) {
	e, queries := allocEngine(t)
	for _, c := range []struct {
		req  Request
		want float64
	}{
		{Request{Query: "zzzunmatched"}, 20},
		{Request{Query: queries[0], Semantics: SLCAOnly, Limit: 10}, 40},
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
// fragment handle lives in the pooled scratch with the node array, and
// neither building nor filtering allocates, so materializing a candidate
// allocates its kept-ID slice and nothing else, under ValidRTF (which reads
// content sets for rule 2(b)) and MaxMatch alike. AllocsPerRun's average
// rounds down, which absorbs a collection emptying the pool mid-measurement.
func TestMaterializeAllocs(t *testing.T) {
	e, queries := allocEngine(t)
	fragments := 0
	for _, algo := range []Algorithm{ValidRTF, MaxMatch} {
		params := e.params(Request{Algorithm: algo})
		for _, q := range queries {
			p, err := e.plan(q)
			if err != nil {
				t.Fatalf("plan(%q): %v", q, err)
			}
			cands, err := exec.Candidates(context.Background(), p, params, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range cands {
				fragments++
				if allocs := testing.AllocsPerRun(10, func() { exec.Materialize(c, params) }); allocs > 1 {
					t.Fatalf("%s: materializing a %q fragment allocates %.0f objects, want 1 (the kept IDs)", algo, q, allocs)
				}
			}
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
		cands, err := exec.Candidates(context.Background(), p, params, 0)
		if err != nil || len(cands) != 1 {
			t.Fatalf("%d candidates, err %v; want the document root alone", len(cands), err)
		}
		if kept, _ := exec.Materialize(cands[0], params); len(kept) != n+2 {
			t.Fatalf("kept %d of %d nodes: the items differ in content and must all stay", len(kept), n+2)
		}
		return testing.AllocsPerRun(20, func() { exec.Materialize(cands[0], params) })
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

// TestELCACandidateAllocs pins the one-pass ELCA candidate stage: the stack
// merge hands each root its run in a pooled buffer, and the runs land in one
// exactly-sized arena, so an unlimited ELCA search's candidate stage
// allocates as many objects on a 20 000-record document as on a 2 000-record
// one — nothing per event, per root or per posting.
func TestELCACandidateAllocs(t *testing.T) {
	w := workload.DBLP()
	queries, err := w.ExpandAll()
	if err != nil {
		t.Fatal(err)
	}
	measure := func(records int) (allocs []float64, roots int) {
		specs, err := w.Specs(0, float64(records)/20000)
		if err != nil {
			t.Fatal(err)
		}
		e := FromTree(datagen.DBLP(datagen.DBLPConfig{Seed: 1, NumRecords: records, Keywords: specs}))
		params := e.params(Request{})
		for _, q := range queries {
			p, err := e.plan(q)
			if err != nil {
				t.Fatalf("plan(%q): %v", q, err)
			}
			cands, err := exec.Candidates(context.Background(), p, params, 0)
			if err != nil {
				t.Fatal(err)
			}
			roots += len(cands)
			allocs = append(allocs, testing.AllocsPerRun(10, func() {
				exec.Candidates(context.Background(), p, params, 0) //nolint:errcheck
			}))
		}
		return allocs, roots
	}
	small, smallRoots := measure(2000)
	large, largeRoots := measure(20000)
	t.Logf("candidate stage over %d queries: %d roots at 2 000 records, %d at 20 000", len(queries), smallRoots, largeRoots)
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

// TestTreeWriteXMLAllocsDoNotScale: a tree-backed WriteXML walks the kept
// nodes by ID and appends into a pooled buffer — no keep map, no Dewey key
// per child of a kept node — so a three-node fragment allocates the same
// (nothing) under a root with 100 children and under one with 10 000.
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
		t.Errorf("WriteXML of a 3-node tree-backed fragment allocates %.0f objects under a 100-child root and %.0f under a 10 000-child root, want none", small, large)
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

// TestFragmentAllocSizeClass: an unlimited search allocates one Fragment per
// answer (hundreds on the Figure 5 mix), so a field that tips the struct into
// the next allocator size class costs every one of them 32 bytes.
func TestFragmentAllocSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Fragment{}); size > 288 {
		t.Errorf("Fragment is %d bytes, past the 288-byte size class", size)
	}
}
