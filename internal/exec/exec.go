// Package exec is the staged query-execution pipeline behind Engine.Search
// and Corpus.Search — the plan/execute split of the database world applied
// to the paper's four-stage algorithm:
//
//	plan        — the parsed query resolved to posting sets D1..Dk
//	              (Engine.planAt; carried here as a Plan value)
//	candidates  — getLCA → getRTF on node IDs (internal/nid), producing
//	              one lightweight scored Candidate per fragment root:
//	              root ID, keyword events, score — no node
//	              materialization, no strings. No request merges its
//	              posting lists twice: ELCA's stack merge dispatches
//	              getRTF's keyword nodes as its roots pop, and SLCA
//	              roots take their subtree windows. A bounded page
//	              defers the events (Params.DeferEvents): ranked, they
//	              are folded into scores and dropped; unranked, the
//	              roots alone are the candidates and getRTF does not run
//	select      — top-K under (score desc, doc asc, seq asc) when ranking
//	              with a limit (a bounded heap, streamable across
//	              concurrent per-document producers), full ordering when
//	              ranking without one, document order otherwise
//	materialize — the expensive per-fragment work (pruneRTF:
//	              BuildFragment + AppendKeptIDs, then node/string
//	              assembly in the xks package), run only for the
//	              selected candidates
//
// The late-materialization contract: a Candidate is cheap — selection
// consults only the fragment root and its keyword events (scoring needs
// nothing else), so pruning and assembly costs scale with the number of
// *returned* fragments, not the number of matching fragments. Ranked
// corpus search over N documents with Limit=10 prunes and assembles
// exactly 10 fragments, and any limited search gathers keyword events for
// those 10 only (rtf.EventsFor at materialization). Every ELCA/SLCA root
// covers the query, so the candidate count — the envelope's total — is the
// root count whether or not the events were gathered. Unranked and
// unlimited searches select every candidate in document order, so their
// materialized output is identical to the pre-pipeline eager path
// (crosschecked in the xks tests).
//
// One request loop in the xks package drives these stages, behind Search
// and Stream of both Engine and Corpus (the NDJSON HTTP path hands a Stream
// on): one document runs the candidate stage inline, several fan out
// concurrently, and the materialize stage runs lazily, a block of selected
// candidates at a time — one per iterator step for a Stream, so an early
// break (client disconnect, page boundary, best-effort deadline) pays
// pruning and assembly for exactly the fragments yielded, and up to 64 for a
// page Search collects whole. Candidate Doc/Seq double as the cursor resume
// key the xks package embeds in its opaque pagination tokens, the only way a
// page is resumed.
package exec

import (
	"cmp"
	"context"
	"slices"
	"sort"
	"sync"

	"xks/internal/lca"
	"xks/internal/nid"
	"xks/internal/planner"
	"xks/internal/prune"
	"xks/internal/rank"
	"xks/internal/rtf"
	"xks/internal/trace"
)

// scoreCheckInterval is the number of candidates scored between context
// checks in the candidate stage (the per-event checks inside the merge
// loops live in internal/lca and internal/rtf).
const scoreCheckInterval = 256

// Plan is the resolved form of one query: the display keywords, the words
// used for IDF scoring, and the posting sets D1..Dk as node-ID lists over
// the owning document's node table, all in mask-bit order. An empty Sets
// means the query cannot match (some keyword had no postings).
type Plan struct {
	Keywords []string
	IDFWords []string
	Sets     [][]nid.ID
	// Decision is the planner's resolved plan for this query: evaluation
	// strategy, merge order, dispatch galloping. The zero value preserves
	// the pre-planner behavior (indexed SLCA, query order, no galloping),
	// so callers that never plan — tests, benchmarks — are unaffected.
	Decision planner.Decision
}

// KeywordNodes returns the total number of postings the plan consulted.
func (p Plan) KeywordNodes() int {
	n := 0
	for _, s := range p.Sets {
		n += len(s)
	}
	return n
}

// Params configures candidate generation, selection and materialization for
// one search. Tab, Incremental, Labels and ContentOf come from the owning
// engine's node table, scorer and document source.
type Params struct {
	// Tab is the document's node table; every ID in the plan's posting
	// sets, the candidates and the pruning results refers into it.
	Tab *nid.Table
	// SLCAOnly restricts fragment roots to smallest LCAs.
	SLCAOnly bool
	// Mode is the pruning mechanism applied at materialization.
	Mode prune.Mode
	// Prune tunes pruning (exact content comparison).
	Prune prune.Options
	// Rank enables scoring and score-ordered selection.
	Rank bool
	// Limit bounds the selected candidates when positive.
	Limit int
	// Offset skips that many candidates of the selection order before the
	// limit applies — the pagination window is [Offset, Offset+Limit).
	Offset int
	// Incremental returns a per-query incremental scorer (required when Rank
	// is set): the candidate stage folds every root's keyword events into it,
	// whether it keeps the events or, under DeferEvents, drops them.
	Incremental func(words []string) *rank.IncrementalScorer
	// DeferEvents says a limit bounds the page: candidates carry no
	// keyword-event lists, and materialization hydrates events for the few
	// selected ones via rtf.EventsFor. A ranked stage still dispatches every
	// event once, folding it into its root's score; an unranked one takes
	// the LCA roots as its candidates and runs no dispatch at all.
	DeferEvents bool
	// Labels is the document's label column, pinned with the request's
	// snapshot, and ContentOf resolves content word sets: what the pruning
	// step groups children by and reads cIDs from.
	Labels    prune.Labels
	ContentOf prune.IDContentFunc
}

// Candidate is one fragment root surviving the candidate stage: everything
// selection needs, nothing materialization produces. Doc and Seq make the
// ranking order a strict total order, so selection is deterministic no
// matter how concurrent producers interleave.
type Candidate struct {
	// Doc is the document's insertion index within a corpus search (0 for
	// single-document searches).
	Doc int
	// Seq is the candidate's document-order position within its document.
	Seq int
	// RTF holds the fragment root and its keyword events, in ID form.
	// Under Params.DeferEvents its KeywordNodes is nil; Roots then carries
	// what lazy hydration needs.
	RTF *rtf.IDRTF
	// Roots is the full interesting-LCA list of the candidate's query
	// (shared across the document's candidates), kept only when events
	// were deferred: rtf.EventsFor needs every root — covering or not —
	// to replay the dispatch inside the candidate's subtree.
	Roots []nid.ID
	// IsSLCA reports whether the root is a smallest LCA.
	IsSLCA bool
	// Score is the ranking score (zero unless Params.Rank).
	Score float64
}

// better reports whether c precedes o in ranked order: score descending,
// ties broken by document insertion order then document order — exactly the
// order of the pre-pipeline stable sort over eagerly merged fragments.
func (c *Candidate) better(o *Candidate) bool {
	if c.Score != o.Score {
		return c.Score > o.Score
	}
	if c.Doc != o.Doc {
		return c.Doc < o.Doc
	}
	return c.Seq < o.Seq
}

// Candidates runs the candidate stage — getLCA, getRTF and, when ranking,
// scoring — merging the plan's posting sets at most once. doc tags the
// candidates for corpus merges.
//
//   - A page that gathers no events takes the roots of the galloping SLCA
//     kernel or the ELCA stack merge as its candidates; a ranked SLCA one
//     scores them in one dispatch pass that folds each event into its root's
//     score (rtf.BuildScoredIDsCtx). The selected few hydrate their events at
//     materialization (rtf.EventsFor via Roots).
//   - Otherwise every root's keyword events land in pooled scratch in the
//     same pass: the ELCA stack merge hands each root its run as it pops
//     (lca.ELCAStackDispatch), SLCA roots take their subtree windows
//     (rtf.DispatchWindows). A ranked stage folds each run into its root's
//     score with the query's one IncrementalScorer; a ranked ELCA page then
//     keeps no run, and every other candidate borrows its run where the
//     producers left it: RTF.KeywordNodes is a capacity-clipped slice of the
//     pooled buffer, copied nowhere.
//
// Borrowed runs are valid until release is called, which hands the buffer
// back to the pool for the next request to overwrite: the caller calls it
// exactly once, after its last read of any candidate's KeywordNodes, and must
// not let a run escape into anything that outlives the call. release is never
// nil; it is a no-op when nothing was borrowed (and on error, which releases
// everything itself).
//
// ctx is checked upfront, periodically inside the merge loops of the LCA and
// RTF stages (every few thousand events), and periodically between scored
// candidates, so a cancelled or deadlined context abandons the stage
// mid-stream with ctx.Err() instead of draining the posting lists. ctx must
// not be nil; use context.Background() to run uncancellable.
func Candidates(ctx context.Context, p Plan, params Params, doc int) (cands []*Candidate, release func(), err error) {
	release = noRelease
	if len(p.Sets) == 0 {
		return nil, release, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, release, err
	}
	t, d := params.Tab, p.Decision
	// deferred: the candidates carry no events. gather: every root's events
	// are collected (all but an unranked page and a ranked SLCA one).
	deferred := params.DeferEvents
	gather := !deferred || params.Rank && !params.SLCAOnly
	var (
		buf  []lca.IDEvent
		runs []rootRun
		sink func(root nid.ID, events []lca.IDEvent)
	)
	if gather {
		sc := runScratchPool.Get().(*runScratch)
		if n := p.KeywordNodes(); len(sc.buf) < n {
			sc.buf = make([]lca.IDEvent, n)
		}
		buf, runs = sc.buf, sc.runs[:0]
		defer func() {
			sc.runs = runs
			// Only an unlimited stage's candidates keep their runs.
			if !deferred && err == nil {
				release = func() { runScratchPool.Put(sc) }
			} else {
				runScratchPool.Put(sc)
			}
		}()
		sink = func(root nid.ID, events []lca.IDEvent) {
			runs = append(runs, rootRun{root, events})
		}
	}
	// Traced requests get one child span per sub-stage (getLCA, getRTF),
	// each annotated by the stage itself with its event counters; untraced
	// requests pay one nil context lookup and no allocations.
	sp := trace.SpanFromContext(ctx)
	lcaSp := sp.Child("lca")
	var (
		roots  []nid.ID
		scored []rtf.ScoredID
	)
	if params.SLCAOnly {
		roots, err = lca.SLCAIDsCtx(trace.ContextWithSpan(ctx, lcaSp), t, p.Sets)
	} else {
		roots, err = lca.ELCAStackDispatch(trace.ContextWithSpan(ctx, lcaSp), t, p.Sets, d.Order, buf, sink)
		// The runs arrive in post-order.
		slices.SortFunc(runs, func(a, b rootRun) int { return cmp.Compare(a.root, b.root) })
	}
	lcaSp.End()
	if err == nil && params.SLCAOnly && (gather || params.Rank) {
		rtfSp := sp.Child("rtf")
		rctx := trace.ContextWithSpan(ctx, rtfSp)
		if gather {
			err = rtf.DispatchWindows(rctx, t, roots, p.Sets, buf, sink)
		} else {
			scored, err = rtf.BuildScoredIDsCtx(rctx, t, roots, p.Sets, params.Incremental(p.IDFWords), d.Order, d.Skip)
		}
		rtfSp.End()
	}
	if err != nil {
		return nil, release, err
	}
	var shared []nid.ID
	if deferred {
		shared = roots
	}
	out := newCandidates(t, roots, shared, doc)
	for i, s := range scored {
		out[i].Score = s.Score
	}
	// runs[i] is now roots[i]'s run. A ranked stage folds it into the root's
	// score; all but a page borrow it.
	var (
		inc *rank.IncrementalScorer
		acc []float64
	)
	if params.Rank && gather {
		inc = params.Incremental(p.IDFWords)
		acc = make([]float64, 2*inc.K())
	}
	for i, r := range runs {
		if i%scoreCheckInterval == scoreCheckInterval-1 {
			if err := ctx.Err(); err != nil {
				return nil, release, err
			}
		}
		c := out[i]
		if inc != nil {
			c.Score = foldScore(inc, acc, t, r.root, r.events)
		}
		if !deferred {
			c.RTF.KeywordNodes = r.events[:len(r.events):len(r.events)]
		}
	}
	sp.SetInt("candidates", int64(len(out)))
	return out, release, nil
}

// noRelease is the release of a candidate stage that borrowed nothing.
func noRelease() {}

// runScratch is the pooled working memory of a candidate stage that gathers
// events: the buffer the producers write every root's run into (Σ|Dᵢ|
// events), and the (root, run) pairs they hand back. The runs stay in buf,
// each written once and never moved, so an unlimited stage's candidates
// borrow them until the caller's release.
type runScratch struct {
	buf  []lca.IDEvent
	runs []rootRun
}

type rootRun struct {
	root   nid.ID
	events []lca.IDEvent
}

var runScratchPool = sync.Pool{New: func() any { return new(runScratch) }}

// foldScore feeds one root's events to the incremental scorer in document
// order, as rtf.BuildScoredIDsCtx's dispatch does, so the score is
// bit-identical to its and to the Dewey-code reference's. acc (2·K floats)
// is scratch.
func foldScore(inc *rank.IncrementalScorer, acc []float64, t *nid.Table, root nid.ID, events []lca.IDEvent) float64 {
	clear(acc)
	best, extra := acc[:inc.K()], acc[inc.K():]
	for _, ev := range events {
		inc.Update(best, extra, int(t.Depth(ev.ID)-t.Depth(root)), ev.Mask)
	}
	return inc.Finish(best, extra)
}

// newCandidates builds one candidate per root, in document order: every
// ELCA/SLCA root covers the query (TestEveryRootCovers), so the roots are the
// candidates. Each shares shared as its Roots (nil when the events are not
// deferred).
func newCandidates(t *nid.Table, roots, shared []nid.ID, doc int) []*Candidate {
	hulls := make([]rtf.IDRTF, len(roots))
	slab := make([]Candidate, len(roots))
	out := make([]*Candidate, len(roots))
	for i, r := range roots {
		hulls[i].Root = r
		// The roots are sorted and distinct, so r is an SLCA exactly when
		// the next root is not its descendant.
		slab[i] = Candidate{Doc: doc, Seq: i, RTF: &hulls[i], Roots: shared,
			IsSLCA: !(i+1 < len(roots) && t.IsAncestorOf(r, roots[i+1]))}
		out[i] = &slab[i]
	}
	return out
}

// Select applies the selection stage to one document's candidates: ranked
// searches order by descending score (via a bounded heap when a limit
// applies), unranked searches keep document order; a positive limit
// truncates either way, and a positive offset skips the first Offset
// candidates of the selection order before the limit applies — the
// pagination window [Offset, Offset+Limit) of the full ordering.
func Select(cands []*Candidate, params Params) []*Candidate {
	if !params.Rank {
		return Page(cands, params.Offset, params.Limit)
	}
	// window > 0 guards Offset+Limit overflowing int: an unreachable
	// window pages to empty through the full-sort path below.
	if window := params.Offset + params.Limit; params.Limit > 0 && window > 0 && window < len(cands) {
		t := NewTopK(window)
		t.Offer(cands...)
		return Page(t.Ranked(), params.Offset, params.Limit)
	}
	out := make([]*Candidate, len(cands))
	copy(out, cands)
	SortRanked(out)
	return Page(out, params.Offset, params.Limit)
}

// Page slices the pagination window [offset, offset+limit) out of an
// ordered candidate list; limit <= 0 means unbounded, an offset past the
// end yields an empty page.
func Page(ordered []*Candidate, offset, limit int) []*Candidate {
	if offset > 0 {
		if offset >= len(ordered) {
			return nil
		}
		ordered = ordered[offset:]
	}
	if limit > 0 && len(ordered) > limit {
		ordered = ordered[:limit]
	}
	return ordered
}

// SortRanked orders candidates best-first under the ranked total order.
func SortRanked(cands []*Candidate) {
	sort.Slice(cands, func(i, j int) bool { return cands[i].better(cands[j]) })
}

// Materialize runs the expensive half of the pipeline for one selected
// candidate's RTF r — the pruneRTF stage: constructing the annotated
// fragment tree and filtering it under params.Mode. It appends the kept node
// IDs, in pre-order and root first, to dst and returns the extended slice
// with the node count of the unpruned tree, so a caller pruning a block of
// candidates stages every keep-set in one buffer; the caller (the xks
// package) turns them into rendered Fragments. The fragment tree lives in
// pooled memory handed back here.
func Materialize(dst []nid.ID, r *rtf.IDRTF, params Params) (kept []nid.ID, visited int) {
	f := prune.BuildFragment(params.Tab, r, params.Labels, params.ContentOf, params.Prune)
	kept, visited = f.AppendKeptIDs(dst, params.Mode, params.Prune)
	f.Release()
	return kept, visited
}

// TopK is a bounded, concurrency-safe accumulator of the K best candidates
// under the ranked total order. Per-document workers Offer their candidates
// as they produce them; because the order is strict (Doc, Seq break every
// tie), the surviving set is independent of arrival order, so concurrent
// corpus searches stay deterministic.
type TopK struct {
	mu sync.Mutex
	k  int
	h  []*Candidate // min-heap: worst surviving candidate at the root
}

// NewTopK returns an accumulator keeping the k best candidates (k must be
// positive). The backing array grows with the candidates actually offered,
// so a huge k — e.g. a request paging far past any real result set — costs
// nothing up front.
func NewTopK(k int) *TopK {
	return &TopK{k: k, h: make([]*Candidate, 0, min(k, 1024))}
}

// Offer considers candidates for the top K.
func (t *TopK) Offer(cands ...*Candidate) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, c := range cands {
		if len(t.h) < t.k {
			t.h = append(t.h, c)
			t.up(len(t.h) - 1)
			continue
		}
		if !c.better(t.h[0]) {
			continue
		}
		t.h[0] = c
		t.down(0)
	}
}

// Ranked returns the surviving candidates best-first. The accumulator is
// drained; further Offer calls start from empty.
func (t *TopK) Ranked() []*Candidate {
	t.mu.Lock()
	out := t.h
	t.h = make([]*Candidate, 0, min(t.k, 1024))
	t.mu.Unlock()
	SortRanked(out)
	return out
}

// worse is the heap order: the root holds the candidate every other
// survivor beats.
func (t *TopK) worse(i, j int) bool { return t.h[j].better(t.h[i]) }

func (t *TopK) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !t.worse(i, p) {
			break
		}
		t.h[i], t.h[p] = t.h[p], t.h[i]
		i = p
	}
}

func (t *TopK) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(t.h) && t.worse(l, m) {
			m = l
		}
		if r < len(t.h) && t.worse(r, m) {
			m = r
		}
		if m == i {
			return
		}
		t.h[i], t.h[m] = t.h[m], t.h[i]
		i = m
	}
}
