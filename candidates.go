package xks

import (
	"context"
	"errors"
	"slices"
	"time"

	"xks/internal/concurrent"
	"xks/internal/delta"
	"xks/internal/exec"
	"xks/internal/fault"
	"xks/internal/index"
	"xks/internal/nid"
	"xks/internal/planner"
	"xks/internal/prune"
	"xks/internal/query"
	"xks/internal/trace"
)

// candidates runs the candidate stage over docs and folds its output into
// res: keywords, keyword nodes, candidate totals and the stage timings, from
// every counted document. A lone document runs it inline, under its own
// candidates span, with the plan timed apart. Several fan out concurrently,
// each under a doc:<name> span beneath candidates with the plan timed inside
// the stage. Either way req's Limit and Offset describe the merged page, and
// each document keeps only the handles of its window, the first Offset+Limit
// roots of its selection order (a limited stage also skips per-candidate
// event lists; the few selected hydrate lazily): all selectAcross can take
// from it. start is when the stage began, zero when a lone document's never
// did. On error the envelope still covers the documents that finished, so a
// BestEffort truncation reports the work actually done.
func candidates(ctx context.Context, req Request, docs []docRead, workers int, res *Results) (time.Time, error) {
	if len(docs) == 1 {
		d := &docs[0]
		var err error
		d.docStage, err = d.eng.candidateStage(ctx, d.v, req, d.name, 0, true)
		d.counted = true
		res.Stats.Stages.Plan = d.planTime
		if !d.start.IsZero() {
			res.Stats.Stages.Candidates = time.Since(d.start)
		}
		countDocs(docs, res)
		return d.start, docErr(ctx, d.name, err)
	}
	// The workers fill a copy of docs: a slice they captured would escape
	// to the heap whoever passed it, and a lone document's one-entry vector,
	// which never fans out, stays on its caller's stack.
	fan := slices.Clone(docs)
	candSp := trace.SpanFromContext(ctx).Child("candidates")
	start := time.Now()
	err := concurrent.Each(ctx, len(docs), workers, func(i int) error {
		d := &fan[i]
		// Each document gets its own child span (concurrent-safe); the
		// engine's plan and the lca/rtf sub-stages hang under it.
		docSp := candSp.Child("doc:" + d.name)
		defer docSp.End()
		st, err := d.eng.candidateStage(trace.ContextWithSpan(ctx, docSp), d.v, req, d.name, i, false)
		if err != nil {
			return docErr(ctx, d.name, err)
		}
		d.docStage, d.counted = st, true
		return nil
	})
	copy(docs, fan) // every worker has been joined
	// Plan is folded into Candidates here (see StageStats).
	res.Stats.Stages.Candidates = time.Since(start)
	countDocs(docs, res)
	candSp.SetInt("documents", int64(len(docs)))
	candSp.SetInt("candidates", int64(res.Stats.NumLCAs))
	candSp.End()
	return start, err
}

// countDocs aggregates the counted documents' stage output into res, in
// document order whichever worker finished first.
func countDocs(docs []docRead, res *Results) {
	for i := range docs {
		d := &docs[i]
		if !d.counted {
			continue
		}
		if res.Stats.Keywords == nil {
			res.Stats.Keywords = d.plan.Keywords
		}
		res.Stats.KeywordNodes += d.plan.KeywordNodes()
		res.Stats.NumLCAs += d.n
		if res.PerDocument != nil {
			res.PerDocument[d.name] = d.n
		}
	}
}

// docStage is one document's plan → candidates output: what selection and
// materialization need (the Params are the ones the candidates were
// generated under; materialization must reuse them), plus the stage
// timings. start is when the candidate stage began, and stays zero when it
// never did — the plan failed, or a keyword matches nothing in the document
// (plan then carries the display keywords and no Sets, and cands is empty).
type docStage struct {
	plan   exec.Plan
	params exec.Params
	// cands are the handles of the roots a page could return, n the
	// document's root count, the total the envelope reports.
	cands []*exec.Candidate
	n     int
	// releaseEvents hands back the pooled scratch the candidates' keyword
	// events and roots are borrowed from (exec.Candidates); releaseAll calls
	// it.
	releaseEvents func()
	planTime      time.Duration
	start         time.Time
}

// candidateStage plans req over the pinned view v and runs its candidate
// stage — the one place either happens. label names the document for the
// fault-injection points and doc is its index in the request's documents.
// Inline, the document is the whole request and the candidate stage gets its
// own span; otherwise it is one document of a fan-out, and the caller's
// per-document span holds plan, lca and rtf side by side. It runs under
// panic isolation and the chaos harness's store-read and candidates
// injection points: a panicking merge, like an injected fault, surfaces as
// the stage's error — a *PanicError wrapping ErrInternal — instead of
// unwinding through an iterator or a worker goroutine. An unmatchable
// keyword is not an error. The caller keeps v pinned until it is done
// materializing: the Params close over snapshot state.
func (e *Engine) candidateStage(ctx context.Context, v *view, req Request, label string, doc int, inline bool) (st docStage, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = concurrent.Recovered(r)
		}
	}()
	// Chaos injection point: a scripted store-read fault fails the search
	// here, before planning touches the document source.
	if err := fault.Inject(ctx, fault.PointStoreRead, label); err != nil {
		return st, err
	}
	sp := trace.SpanFromContext(ctx)
	planSp := sp.Child("plan")
	planStart := time.Now()
	st.plan, err = e.planAt(v, req.Query)
	var d planner.Decision // explain's alone: no stage reads it
	if err == nil {
		d = e.decideAt(v, req, st.plan)
		v.words, v.keywords = st.plan.IDFWords, st.plan.Keywords
	}
	st.planTime = time.Since(planStart)
	planSp.SetInt("keywordNodes", int64(st.plan.KeywordNodes()))
	planSp.SetInt("terms", int64(len(st.plan.Keywords)))
	if err == nil {
		stampPlan(planSp, d, len(st.plan.Sets))
	}
	stampSnapshot(planSp, v, &e.counters)
	planSp.End()
	if err != nil {
		var nm *index.ErrNoMatch
		if errors.As(err, &nm) {
			err = nil
		}
		return st, err
	}
	st.start = time.Now()
	st.params = e.paramsAt(v, req)
	if inline {
		candSp := sp.Child("candidates")
		defer candSp.End()
		ctx = trace.ContextWithSpan(ctx, candSp)
	}
	if err := fault.Inject(ctx, fault.PointCandidates, label); err != nil {
		return st, err
	}
	st.cands, st.n, st.releaseEvents, err = exec.Candidates(ctx, st.plan, st.params, doc)
	return st, err
}

// planAt runs the planning stage over one resolved snapshot: the query
// parsed and resolved to per-term ID posting lists over the snapshot's node
// table, the sets D1..Dk, beside the display strings and the words used for
// IDF scoring. Plain keywords read straight off the merged base+delta lists
// (shared slices where no delta touches the term); a label predicate is
// matched once per dictionary label and keeps the postings whose label ID
// matched. On *index.ErrNoMatch the returned plan carries the display
// keywords alone.
func (e *Engine) planAt(v *view, queryText string) (p exec.Plan, err error) {
	terms, err := query.Parse(queryText, e.an)
	if err != nil {
		return p, err
	}
	p.Keywords = make([]string, len(terms))
	for i, t := range terms {
		p.Keywords[i] = t.String()
	}
	idfWords := make([]string, len(terms))
	sets := make([][]nid.ID, len(terms))
	for i, t := range terms {
		word := t.Keyword
		if word == "" {
			word = e.an.Normalize(t.Label)
			if word == "" {
				// Label normalizes to nothing (stop word / punctuation):
				// nothing can match.
				return p, &index.ErrNoMatch{Word: t.Raw}
			}
		}
		idfWords[i] = word
		postings := v.snap.LookupIDs(word)
		if t.Label != "" {
			labels := v.src.labels
			match := make([]bool, len(labels.Names))
			for l, name := range labels.Names {
				match[l] = t.MatchesLabel(name)
			}
			var filtered []nid.ID
			for _, id := range postings {
				if match[labels.IDs[id]] {
					filtered = append(filtered, id)
				}
			}
			postings = filtered
		}
		if len(postings) == 0 {
			return p, &index.ErrNoMatch{Word: t.Raw}
		}
		sets[i] = postings
	}
	p.IDFWords, p.Sets = idfWords, sets
	return p, nil
}

// decideAt resolves the planner decision for one planned query from the
// snapshot's statistics and the calibrated cost model: the term order and
// the cost estimates explain shows. The strategy is
// then stamped with what runs, keeping explain output honest: ELCA semantics
// always evaluates via the stack merge (ScanMerge), SLCA via the galloping
// indexed kernel (IndexedEager).
func (e *Engine) decideAt(v *view, req Request, p exec.Plan) planner.Decision {
	sizes := make([]int, len(p.Sets))
	for i, s := range p.Sets {
		sizes[i] = len(s)
	}
	d := planner.Decide(sizes, v.snap.Stats(), planner.Default)
	d.Strategy = planner.ScanMerge
	if req.Semantics == SLCAOnly {
		d.Strategy = planner.IndexedEager
	}
	return d
}

// stampPlan annotates a plan span with the planner's decision for a query of
// k terms — the chosen algorithm, the merge order, and the model's cost
// estimates, next to the actual event counters the downstream stages report.
func stampPlan(sp *trace.Span, d planner.Decision, k int) {
	if sp == nil {
		return // untraced: OrderString would allocate for nobody
	}
	sp.SetStr("algorithm", d.Strategy.String())
	sp.SetStr("termOrder", d.OrderString(k))
	sp.SetInt("estScan", int64(d.EstScan))
	sp.SetInt("estIndexed", int64(d.EstIndexed))
}

// stampSnapshot annotates a plan span with the resolved snapshot's shape —
// which state the query is reading (version, visible nodes), how much
// write-side delta it merges, and the engine's compaction count — next to
// the planner decision.
func stampSnapshot(sp *trace.Span, v *view, c *delta.Counters) {
	sp.SetInt("snapshotVersion", int64(v.snap.Version()))
	sp.SetInt("snapshotNodes", int64(v.snap.NumNodes()))
	sp.SetInt("deltaSegments", int64(v.snap.Segments()))
	sp.SetInt("deltaPostings", int64(v.snap.DeltaPostings()))
	sp.SetInt("compactions", c.Compactions())
}

// paramsAt maps the public request onto pipeline parameters, closing over
// the resolved snapshot's node table and scorer, and the label column and
// content sets pinned with it.
func (e *Engine) paramsAt(v *view, req Request) exec.Params {
	return exec.Params{
		Tab:      v.snap.Table(),
		SLCAOnly: req.Semantics == SLCAOnly,
		Mode:     req.Algorithm.mode(),
		Prune:    prune.Options{ExactContent: req.ExactContent},
		Rank:     req.Rank,
		Limit:    req.Limit,
		Offset:   req.Offset,
		Scorer:   v.scorer,
		// A limited search materializes only one page: skip per-candidate
		// event lists and hydrate the selected few lazily.
		DeferEvents: req.Limit > 0,
		Labels:      v.src.labels,
		ContentOf:   v.src.content,
	}
}
