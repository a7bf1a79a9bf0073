package xks

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"time"

	"xks/internal/exec"
	"xks/internal/fault"
	"xks/internal/trace"
)

// StageStats breaks one search's wall-clock time down by pipeline stage
// (plan → candidates → select → materialize; see internal/exec). The
// timings are recorded on every search — no tracing required, and the
// struct is a value, so the breakdown is allocation-free. For a search over
// several documents Plan is folded into Candidates: per-document planning
// runs inside the concurrent candidate fan-out, so the two are not separable
// at the corpus level (the per-document split is still visible in the trace
// span tree when the request is traced). Materialize accumulates the time
// spent assembling fragments, which for streaming consumers excludes the
// time the consumer held the iterator between fragments.
type StageStats struct {
	Plan        time.Duration
	Candidates  time.Duration
	Select      time.Duration
	Materialize time.Duration
}

// TruncationReason says why a BestEffort page was cut short — the
// machine-readable counterpart of the Truncated flag, so clients and
// dashboards can distinguish a deadline that expired during the candidate
// fan-out (empty page, unknown total) from one that expired between
// materializations (partial page).
type TruncationReason string

const (
	// TruncNone: the page was not truncated.
	TruncNone TruncationReason = ""
	// TruncCandidates: the BestEffort deadline expired during the plan or
	// candidate stage, before selection finished. The total is unknown and
	// the cursor resumes from the page's own start. A one-document page is
	// empty; a search over several documents salvages those whose candidate
	// stage finished in time, so the page holds a best-effort selection over
	// that partial corpus (re-running the cursor recomputes the true page).
	TruncCandidates TruncationReason = "deadline-candidates"
	// TruncMaterialize: the BestEffort deadline expired during the
	// materialize stage. The page holds every fragment that finished in
	// time and the cursor resumes after the last one.
	TruncMaterialize TruncationReason = "deadline-materialize"
)

// Stats summarizes one search execution.
type Stats struct {
	// Keywords are the normalized query keywords in mask-bit order.
	Keywords []string
	// KeywordNodes is the total number of keyword-node postings consulted.
	KeywordNodes int
	// NumLCAs is the number of fragment roots (|A| in §5.1).
	NumLCAs int
	// Selected is the number of candidates selected into the pagination
	// window — the fragments the search materializes when fully drained.
	Selected int
	// Elapsed is the wall-clock time of the LCA + RTF + prune pipeline
	// (excluding index construction, matching the paper's measurement).
	Elapsed time.Duration
	// Stages is the per-stage breakdown of Elapsed.
	Stages StageStats
}

// Result is the outcome of one single-document search: the same envelope
// shape as the corpus-level Results (fragments, cursor, truncation marker,
// stats), minus the per-document bookkeeping.
type Result struct {
	Query string
	// Request echoes the executed request with the cursor resolved: Offset
	// holds the effective window start even when the caller paged by
	// Cursor.
	Request   Request
	Fragments []*Fragment
	Stats     Stats
	// Cursor is the opaque resume token of the next page when the result
	// set extends past this one, and empty when it is exhausted.
	Cursor Cursor
	// Truncated reports that a BestEffort deadline expired mid-pipeline:
	// Fragments holds everything finished in time, and Cursor resumes
	// from the first fragment that was not.
	Truncated bool
	// Truncation says which stage the deadline expired in when Truncated
	// is set (TruncNone otherwise).
	Truncation TruncationReason
}

// Search runs the staged pipeline (plan → candidates → select →
// materialize; see internal/exec) and returns the meaningful fragments: the
// request loop behind Stream, collected into a page. Query terms may carry
// XSearch-style label predicates ("title:xml", "author:"); see internal/query.
// A term that matches nothing yields an empty result (no fragment can cover
// the query), not an error; queries with no searchable term at all fail with
// ErrEmptyQuery.
//
// Search drains the page anyway, so it materializes the selected candidates
// in blocks of up to 64 rather than one at a time as Stream does: a block is
// pruned candidate by candidate, then assembled at once, so its fragments
// share a few exact-size backing arrays (see Fragment). The fragments are the
// ones Stream yields, byte for byte.
//
// ctx cancellation or deadline aborts the pipeline mid-stream with
// ctx.Err(): the candidate stage checks the context every few thousand
// merge events, materialization checks it before pruning each candidate.
// With Rank and Limit set, selection runs before materialization: only the
// candidates of the requested page are pruned and assembled into fragments;
// Cursor resumes the following page. req.Document is ignored — a single
// engine holds one document (see Corpus for the filterable collection).
func (e *Engine) Search(ctx context.Context, req Request) (*Result, error) {
	res := &Result{Query: req.Query}
	var page Results
	err := e.run(ctx, req, blockSize, res, &page, func(_ string, f *Fragment) bool {
		if res.Fragments == nil {
			res.Fragments = make([]*Fragment, 0, page.Stats.Selected)
		}
		res.Fragments = append(res.Fragments, f)
		return true
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Stream is the one way a request executes on an engine: the fragment
// iterator plus a trailer. Plan, candidates and selection run eagerly when
// the loop starts; fragments then materialize one by one (a block of one) as
// the iterator is consumed, in result order, so breaking out early leaves the
// remaining candidates unassembled — a caller that stops after the first few
// fragments pays pruneRTF and assembly for exactly those. Only the backing
// arrays are shared ahead of time: the fragments are carved from slabs sized
// for windows of 1, 2, 4, … up to 64 fragments, so a drained stream costs a
// few allocations per window rather than per fragment, and a retained
// fragment keeps its window's slabs alive. A non-nil error is
// yielded once (with a nil fragment) and ends the sequence; ctx is checked
// before every fragment. Once the loop ends (drained, broken, errored, or
// truncated), the trailer func returns the Result envelope for the fragments
// actually yielded: stats, the Truncated marker, and the Cursor resuming
// after the last yielded fragment — so an abandoned stream is still
// resumable. The yielded fragments themselves are not retained in the
// trailer, so consuming an unbounded result set stays O(1) server-side. The
// trailer's value is unspecified while the iterator is still running.
func (e *Engine) Stream(ctx context.Context, req Request) (iter.Seq2[*Fragment, error], func() *Result) {
	res := &Result{Query: req.Query}
	seq := func(yield func(*Fragment, error) bool) {
		var page Results
		err := e.run(ctx, req, 1, res, &page, func(_ string, f *Fragment) bool { return yield(f, nil) })
		if err != nil {
			yield(nil, err)
		}
	}
	return seq, func() *Result { return res }
}

// run is the engine's front end to runRequest, behind Search and Stream: it
// resolves req's cursor and snapshot, runs the loop materializing block
// candidates at a time, and fills res's envelope from page, which runRequest
// fills as it goes (Search reads the selection size off it).
func (e *Engine) run(ctx context.Context, req Request, block int, res *Result, page *Results, yield func(string, *Fragment) bool) error {
	req, v, err := e.resolveRequest(req)
	if err != nil {
		return err
	}
	res.Request = req
	// The snapshot's version stamps the next page's cursor, which re-pins
	// exactly this state whatever is appended meanwhile.
	err = runRequest(ctx, req, v.snap.Version(), []docRead{{eng: e, v: v}}, 0, block, page, yield)
	res.Stats, res.Cursor, res.Truncated, res.Truncation = page.Stats, page.Cursor, page.Truncated, page.Truncation
	return err
}

// docRead is one document a request reads: its engine, the snapshot pinned
// for it, and the name that labels its fault-injection points, its errors and
// its fragments ("" for a bare engine). runRequest fills in the rest.
type docRead struct {
	name string
	eng  *Engine
	v    *view
	docStage
	// counted marks a document whose stage output enters the envelope — one
	// whose stage finished, or a lone document, whose plan is reported even
	// when its candidates are not.
	counted bool
	// leak is set by a scripted snapshot-pin fault: the pin is never
	// released, the refcount leak the chaos suite proves the pinned gauge
	// detects.
	leak bool
}

// releaseAll hands back every document's candidate-stage scratch (the
// events and roots its candidates borrow) and unpins its snapshot once a
// request is done with its candidates: the materialize loop has ended,
// drained, broken, errored or truncated. No fragment references an event or
// a root, and pins are pure accounting, so what was materialized stays
// valid.
func releaseAll(docs []docRead) {
	for _, d := range docs {
		if d.releaseEvents != nil {
			d.releaseEvents()
		}
		if !d.leak {
			d.v.release()
		}
	}
}

// runRequest is the one request loop, behind Search and Stream of Engine and
// Corpus alike: the candidate stage over docs, selection, then the lazy
// materialize loop under the BestEffort rules, and the page cursor. req
// is resolved (cursor folded into Offset, paging clamped), gen is the version
// token the next page's cursor is stamped with, and docs are the documents to
// read, each pinned; every pin is released before runRequest returns. The
// envelope goes to res (PerDocument only when non-nil), and the fragments to
// yield, in result order, until it returns false: breaking out early leaves
// the remaining candidates unassembled, and the cursor resumes after the last
// fragment yielded. The selected candidates materialize block candidates at
// a time (blockScratch.fill): 1 for a stream, blockSize for a page that is
// collected whole. The error is the request's failure, for the caller to
// yield; a nil ctx runs the request uncancellable.
//
// A lone document runs its candidate stage inline; several fan out across up
// to workers goroutines (candidates). A BestEffort deadline that expires in
// the candidate stage salvages a page from the documents that finished — a
// lone document has none, so its page is empty — stamped with a cursor that
// resumes from the page's own start: the total is unknown, and an empty
// cursor would read as "exhausted" and silently end the scroll. One that
// expires mid-materialization truncates the page after the last fragment
// finished.
func runRequest(ctx context.Context, req Request, gen uint64, docs []docRead, workers, block int, res *Results, yield func(doc string, f *Fragment) bool) error {
	if ctx == nil {
		ctx = context.Background()
	}
	for i := range docs {
		docs[i].leak = fault.Inject(ctx, fault.PointSnapshotPin, docs[i].name) != nil
	}
	defer releaseAll(docs)
	// One child span per stage when the request is traced; a nil span (the
	// untraced common case) makes every call below a free no-op.
	sp := trace.SpanFromContext(ctx)

	start, err := candidates(ctx, req, docs, workers, res)
	if !start.IsZero() { // the candidate stage ran
		defer func() { res.Stats.Elapsed = time.Since(start) }()
	}
	salvage := err != nil && req.Budget == BestEffort && errors.Is(err, context.DeadlineExceeded)
	if err != nil && !salvage {
		return err
	}
	if salvage {
		res.Truncated, res.Truncation = true, TruncCandidates
		res.Cursor = truncationCursor(req, gen)
	}
	if len(docs) == 1 && (salvage || len(docs[0].plan.Sets) == 0) {
		return nil // nothing to select: no fragment can cover the query
	}

	// Candidates are cheap handles; nothing has been pruned or assembled yet.
	var selSp *trace.Span
	if !salvage {
		selSp = sp.Child("select")
	}
	selStart := time.Now()
	selected := selectAcross(docs, req)
	res.Stats.Stages.Select = time.Since(selStart)
	res.Stats.Selected = len(selected)
	selSp.SetInt("candidates", int64(res.Stats.NumLCAs))
	selSp.SetInt("selected", int64(len(selected)))
	selSp.End()

	matSp := sp.Child("materialize")
	b := blockPool.Get().(*blockScratch)
	defer b.release()
	yielded := 0
	var prunedNodes int64
	defer func() {
		matSp.SetInt("fragments", int64(yielded))
		matSp.SetInt("prunedNodes", prunedNodes)
		matSp.End()
		if !salvage {
			res.Cursor = pageCursor(req, gen, yielded, res.Stats.NumLCAs, res.Truncated)
		}
	}()
	for len(selected) > 0 {
		blk := selected[:min(block, len(selected))]
		selected = selected[len(blk):]
		matStart := time.Now()
		frags, err := b.fill(ctx, blk, docs, salvage, len(selected))
		res.Stats.Stages.Materialize += time.Since(matStart)
		for i := range frags {
			f, c := &frags[i], blk[i]
			prunedNodes += int64(f.Pruned)
			yielded++
			if !yield(docs[c.Doc].name, f) {
				return nil
			}
		}
		if err != nil {
			switch {
			case salvage: // the page is what was salvaged before the failure
			case req.Budget == BestEffort && errors.Is(err, context.DeadlineExceeded):
				res.Truncated, res.Truncation = true, TruncMaterialize
			default:
				return docErr(ctx, docs[blk[len(frags)].Doc].name, err)
			}
			return nil
		}
	}
	return nil
}

// selectAcross is the selection stage: the ranked order when ranking, then
// the pagination window, over the document-order concatenation of the
// documents' windows. Each window holds the first Offset+Limit roots of its
// document's selection order, so the concatenation holds every root the page
// takes. A lone document's window is its stage's slice, which exec.Select
// copies to sort; several are concatenated into one presized slice, sorted in
// place.
func selectAcross(docs []docRead, req Request) []*exec.Candidate {
	if len(docs) == 1 {
		return exec.Select(docs[0].cands, exec.Params{Rank: req.Rank, Limit: req.Limit, Offset: req.Offset})
	}
	n := 0
	for _, d := range docs {
		n += len(d.cands)
	}
	all := make([]*exec.Candidate, 0, n)
	for _, d := range docs {
		all = append(all, d.cands...)
	}
	if req.Rank {
		exec.SortRanked(all)
	}
	return exec.Page(all, req.Offset, req.Limit)
}

// docErr names the document a request failed in, unless the request reads
// a bare engine or the shared context failed, which no document is to blame
// for.
func docErr(ctx context.Context, name string, err error) error {
	if err == nil || name == "" || ctx.Err() != nil {
		return err
	}
	return fmt.Errorf("xks: document %s: %w", name, err)
}
