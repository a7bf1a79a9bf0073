// Package exec is the staged query-execution pipeline behind Engine.Search
// and Corpus.Search — the plan/execute split of the database world applied
// to the paper's four-stage algorithm:
//
//	plan        — the parsed query resolved to posting sets D1..Dk
//	              (Engine.planAt; carried here as a Plan value)
//	candidates  — getLCA → getRTF on node IDs (internal/nid), producing
//	              one lightweight scored Candidate per fragment root the
//	              page could return: root ID, keyword events, score — no node
//	              materialization, no strings. No request merges its
//	              posting lists twice: ELCA's stack merge dispatches
//	              getRTF's keyword nodes as its roots pop, and SLCA
//	              roots take their subtree windows. A bounded page
//	              defers the events (Params.DeferEvents): ranked, they
//	              are folded into scores and dropped; unranked, the
//	              roots alone are the candidates and getRTF does not run
//	select      — the ranked order (score desc, doc asc, seq asc) when
//	              ranking, document order otherwise, then the page's
//	              window, over the per-document windows Candidates
//	              returns: one sort, whatever the limit
//	materialize — the expensive per-fragment work (pruneRTF:
//	              BuildFragment + AppendKeptIDs, then node/string
//	              assembly in the xks package), run only for the
//	              selected candidates
//
// The late-materialization contract: a page builds handles for its window
// only. The candidate stage keeps every root, and its score when ranking, in
// pooled columns, and builds a *Candidate for each of the first
// Offset+Limit roots of the selection order alone, so selection, pruning and
// assembly costs scale with the number of *returned* fragments, not the
// number of matching fragments. Ranked corpus search over N documents with
// Limit=10 selects over at most 10 handles per document, prunes and assembles
// exactly 10 fragments, and any limited search gathers keyword events for
// those 10 only (rtf.AppendEventsFor at materialization). Every ELCA/SLCA
// root covers the query, so the candidate count — the envelope's total — is
// the root count Candidates reports, whether or not the events were gathered
// or the handles built. Unranked and unlimited searches select every
// candidate in document order, so their materialized output is identical to
// the pre-pipeline eager path (crosschecked in the xks tests).
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
// means the query cannot match (some keyword had no postings). It holds only
// what the stages read: the planner's decision labels explain output alone.
type Plan struct {
	Keywords []string
	IDFWords []string
	Sets     [][]nid.ID
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
// one search. Tab, Scorer, Labels and ContentOf come from the owning
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
	// Scorer scores the request's roots (required when Rank is set): the
	// candidate stage folds every root's keyword events into the query's
	// incremental scorer, whether it keeps the events or, under
	// DeferEvents, drops them.
	Scorer *rank.Scorer
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
	// Roots is the full interesting-LCA list of the candidate's query,
	// borrowed from the candidate stage's pooled scratch (shared across the
	// document's candidates, valid until the stage's release) and set only
	// when events were deferred: rtf.AppendEventsFor needs every root —
	// covering or not — to replay the dispatch inside the candidate's
	// subtree.
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
// scoring — merging the plan's posting sets at most once, and returns n, the
// document's root count (the total a page reports), with handles for the
// roots a page could return: the window of the first Offset+Limit roots in
// selection order (score descending, then Seq, when ranking; document order
// otherwise), or every root when Limit is not positive or the window would
// overflow. The handles come in document order, Seq being each root's
// position among all n, and doc tags them for corpus merges. The per-root
// working data — roots, scores, runs, the window — lives in pooled scratch.
//
//   - A page that gathers no events takes the roots of the galloping SLCA
//     kernel or the ELCA stack merge as its candidates; a ranked SLCA one
//     scores them in one dispatch pass that folds each event into its root's
//     score (rtf.AppendScores). The selected few hydrate their events at
//     materialization (rtf.AppendEventsFor via Roots).
//   - Otherwise every root's keyword events land in pooled scratch in the
//     same pass: the ELCA stack merge hands each root its run as it pops
//     (lca.ELCAStackDispatch), SLCA roots take their subtree windows
//     (rtf.DispatchWindows). A ranked stage folds each run into its root's
//     score with the query's one IncrementalScorer; a ranked ELCA page then
//     keeps no run, and every other candidate borrows its run where the
//     producers left it: RTF.KeywordNodes is a capacity-clipped slice of the
//     pooled buffer, copied nowhere.
//
// Borrowed runs and Roots (a deferred candidate's view of the root column)
// are valid until release is called, which hands the scratch back to the
// pool for the next request to overwrite: the caller calls it exactly once,
// after its last read of any candidate's KeywordNodes or Roots, and must not
// let either escape into anything that outlives the call. release is never
// nil; on error it is a no-op (the stage released everything itself).
//
// ctx is checked upfront, periodically inside the merge loops of the LCA and
// RTF stages (every few thousand events), and periodically between scored
// candidates, so a cancelled or deadlined context abandons the stage
// mid-stream with ctx.Err() instead of draining the posting lists. ctx must
// not be nil; use context.Background() to run uncancellable.
func Candidates(ctx context.Context, p Plan, params Params, doc int) (cands []*Candidate, n int, release func(), err error) {
	release = noRelease
	if len(p.Sets) == 0 {
		return nil, 0, release, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, release, err
	}
	t := params.Tab
	// deferred: the candidates carry no events. gather: every root's events
	// are collected (all but an unranked page and a ranked SLCA one).
	deferred := params.DeferEvents
	gather := !deferred || params.Rank && !params.SLCAOnly
	sc := runScratchPool.Get().(*runScratch)
	defer func() {
		if err == nil {
			release = sc.put
		} else {
			sc.put()
		}
	}()
	sc.runs = sc.runs[:0]
	var sink func(root nid.ID, events []lca.IDEvent)
	if gather {
		if n := p.KeywordNodes(); len(sc.buf) < n {
			sc.buf = make([]lca.IDEvent, n)
		}
		sink = func(root nid.ID, events []lca.IDEvent) {
			sc.runs = append(sc.runs, rootRun{root, events})
		}
	}
	// Traced requests get one child span per sub-stage (getLCA, getRTF),
	// each annotated by the stage itself with its event counters; untraced
	// requests pay one nil context lookup and no allocations.
	sp := trace.SpanFromContext(ctx)
	lcaSp := sp.Child("lca")
	lctx := trace.ContextWithSpan(ctx, lcaSp)
	if params.SLCAOnly {
		sc.roots, err = lca.AppendSLCAIDs(lctx, sc.roots[:0], t, p.Sets)
	} else {
		sc.roots, err = lca.ELCAStackDispatch(lctx, sc.roots[:0], t, p.Sets, sc.buf, sink)
		// The runs arrive in post-order.
		slices.SortFunc(sc.runs, func(a, b rootRun) int { return cmp.Compare(a.root, b.root) })
	}
	lcaSp.End()
	roots := sc.roots
	if err == nil && params.SLCAOnly && (gather || params.Rank) {
		rtfSp := sp.Child("rtf")
		rctx := trace.ContextWithSpan(ctx, rtfSp)
		if gather {
			err = rtf.DispatchWindows(rctx, t, roots, p.Sets, sc.buf, sink)
		} else {
			sc.scores, err = rtf.AppendScores(rctx, sc.scores[:0], &sc.scoring, t, roots, p.Sets, params.Scorer.Incremental(p.IDFWords))
		}
		rtfSp.End()
	}
	if err != nil {
		return nil, 0, release, err
	}
	// runs[i] is now roots[i]'s run. A ranked stage folds it into the root's
	// score; all but a page borrow it.
	if params.Rank && gather {
		inc := params.Scorer.Incremental(p.IDFWords)
		sc.acc = slices.Grow(sc.acc[:0], 2*inc.K())[:2*inc.K()]
		sc.scores = sc.scores[:0]
		for i, r := range sc.runs {
			if i%scoreCheckInterval == scoreCheckInterval-1 {
				if err := ctx.Err(); err != nil {
					return nil, 0, release, err
				}
			}
			sc.scores = append(sc.scores, foldScore(inc, sc.acc, t, r.root, r.events))
		}
	}
	sp.SetInt("candidates", int64(len(roots)))
	return sc.window(params, doc), len(roots), release, nil
}

// noRelease is the release of a candidate stage that borrowed nothing.
func noRelease() {}

// runScratch is the pooled working memory of a candidate stage, in columns
// aligned with the roots: the roots themselves, their scores when ranking
// (and the scoring pass's accumulators), and, when the stage gathers events,
// the buffer the producers write every root's run into (Σ|Dᵢ| events) and
// the (root, run) pairs they hand back. The runs stay in buf, each written
// once and never moved, so the candidates borrow them, and deferred ones the
// roots, until the caller's release.
type runScratch struct {
	roots   []nid.ID
	scores  []float64
	scoring rtf.ScoreScratch // a ranked page's scoring pass
	acc     []float64        // foldScore's accumulators
	picks   []pick           // a ranked window
	buf     []lca.IDEvent
	runs    []rootRun
	// put hands the scratch back to the pool: a stage's release, made once
	// per scratch so that handing it out allocates nothing.
	put func()
}

type rootRun struct {
	root   nid.ID
	events []lca.IDEvent
}

var runScratchPool sync.Pool

func init() {
	runScratchPool.New = func() any {
		sc := new(runScratch)
		sc.put = func() { runScratchPool.Put(sc) }
		return sc
	}
}

// foldScore feeds one root's events to the incremental scorer in document
// order, as rtf.AppendScores' dispatch does, so the score is bit-identical to
// its and to the Dewey-code reference's. acc (2·K floats) is scratch.
func foldScore(inc *rank.IncrementalScorer, acc []float64, t *nid.Table, root nid.ID, events []lca.IDEvent) float64 {
	clear(acc)
	best, extra := acc[:inc.K()], acc[inc.K():]
	for _, ev := range events {
		inc.Update(best, extra, int(t.Depth(ev.ID)-t.Depth(root)), ev.Mask)
	}
	return inc.Finish(best, extra)
}

// pick is a root a ranked window weighs: its score and document-order index,
// under the ranked order within one document.
type pick struct {
	score float64
	seq   int32
}

func (a pick) better(b pick) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	return a.seq < b.seq
}

// handle is a candidate and the RTF it points to, allocated together.
type handle struct {
	c Candidate
	r rtf.IDRTF
}

// window builds the handles Candidates returns, in document order: every
// root, or only the first w = Offset+Limit of the selection order when the
// page bounds it below the root count — the first w roots unranked, the best
// w by score (a bounded heap of picks) ranked. Every ELCA/SLCA root covers
// the query (TestEveryRootCovers), so the roots are the candidates.
func (sc *runScratch) window(params Params, doc int) []*Candidate {
	t, roots, scores := params.Tab, sc.roots, sc.scores
	m := len(roots)
	var picks []pick // nil: the first m roots
	if w := params.Offset + params.Limit; params.Limit > 0 && w > 0 && w < m {
		m = w
		if params.Rank {
			h := boundedHeap[pick]{k: w, h: sc.picks[:0]}
			for i, s := range scores {
				h.offer(pick{s, int32(i)})
			}
			slices.SortFunc(h.h, func(a, b pick) int { return cmp.Compare(a.seq, b.seq) })
			sc.picks, picks = h.h, h.h
		}
	}
	hs := make([]handle, m)
	out := make([]*Candidate, m)
	for j := range hs {
		i := j
		if picks != nil {
			i = int(picks[j].seq)
		}
		h, r := &hs[j], roots[i]
		// The roots are sorted and distinct, so r is an SLCA exactly when
		// the next root is not its descendant.
		h.c = Candidate{Doc: doc, Seq: i, RTF: &h.r, IsSLCA: !(i+1 < len(roots) && t.IsAncestorOf(r, roots[i+1]))}
		h.r.Root = r
		if params.Rank {
			h.c.Score = scores[i]
		}
		if params.DeferEvents {
			h.c.Roots = roots
		} else {
			h.r.KeywordNodes = sc.runs[i].events // capacity-clipped by the producer
		}
		out[j] = &h.c
	}
	return out
}

// Select applies the selection stage to one document's candidates: ranked
// searches order by descending score, unranked searches keep document
// order; a positive offset skips the first Offset candidates of the
// selection order and a positive limit truncates — the pagination window
// [Offset, Offset+Limit) of the full ordering. Candidates' window holds the
// first Offset+Limit of that ordering, so selecting over it pages exactly
// as selecting over every root would.
func Select(cands []*Candidate, params Params) []*Candidate {
	if !params.Rank {
		return Page(cands, params.Offset, params.Limit)
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
// under the ranked total order; because the order is strict (Doc, Seq break
// every tie), the surviving set is independent of arrival order. No request
// runs it: a page is selected by sorting the documents' windows, each
// already cut to Offset+Limit, and only the benchmark's layer timing calls
// it.
type TopK struct {
	mu sync.Mutex
	h  boundedHeap[*Candidate]
}

// NewTopK returns an accumulator keeping the k best candidates (k must be
// positive). The backing array grows with the candidates actually offered,
// so a huge k — e.g. a request paging far past any real result set — costs
// nothing up front.
func NewTopK(k int) *TopK {
	return &TopK{h: boundedHeap[*Candidate]{k: k, h: make([]*Candidate, 0, min(k, 1024))}}
}

// Offer considers candidates for the top K.
func (t *TopK) Offer(cands ...*Candidate) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, c := range cands {
		t.h.offer(c)
	}
}

// boundedHeap keeps the k best of the elements offered, under their better
// order: a heap whose root is the worst survivor, which a better newcomer
// replaces.
type boundedHeap[T interface{ better(T) bool }] struct {
	k int
	h []T
}

func (b *boundedHeap[T]) offer(x T) {
	if len(b.h) < b.k {
		b.h = append(b.h, x)
		b.up(len(b.h) - 1)
	} else if x.better(b.h[0]) {
		b.h[0] = x
		b.down(0)
	}
}

// worse is the heap order: the root holds the element every other survivor
// beats.
func (b *boundedHeap[T]) worse(i, j int) bool { return b.h[j].better(b.h[i]) }

func (b *boundedHeap[T]) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !b.worse(i, p) {
			break
		}
		b.h[i], b.h[p] = b.h[p], b.h[i]
		i = p
	}
}

func (b *boundedHeap[T]) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(b.h) && b.worse(l, m) {
			m = l
		}
		if r < len(b.h) && b.worse(r, m) {
			m = r
		}
		if m == i {
			return
		}
		b.h[i], b.h[m] = b.h[m], b.h[i]
		i = m
	}
}
