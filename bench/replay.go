package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"xks"
	"xks/internal/admission"
	"xks/internal/analysis"
	"xks/internal/delta"
	"xks/internal/dewey"
	"xks/internal/exec"
	"xks/internal/httpapi"
	"xks/internal/index"
	"xks/internal/lca"
	"xks/internal/nid"
	"xks/internal/planner"
	"xks/internal/prune"
	"xks/internal/query"
	"xks/internal/rank"
	"xks/internal/rtf"
	"xks/internal/service"
	"xks/internal/store"
	"xks/internal/trace"
	"xks/internal/xmltree"
)

// backing is the in-process twin of the data a workload searches: the real
// engine (for reference answers and for the fragments to render) and, beside
// it, the pieces the layers' exported functions need so the replay can call
// them one by one.
type backing struct {
	an     *analysis.Analyzer
	engine *xks.Engine
	head   *delta.Head
	// lookupLayer is the layer a posting lookup is charged to: "delta" when
	// the head carries live segments (Snapshot.LookupIDs concatenates),
	// "index" otherwise (it is a pass-through to Index.LookupIDs).
	lookupLayer string
	// compressed is the store-backed index, whose lists decode on first
	// touch; the replay makes that decode its own span. touched tracks it.
	compressed *index.Index
	touched    map[string]bool
	labelOf    prune.IDLabelFunc
	contentOf  prune.IDContentFunc
}

// treeBackingOf twins a tree-backed engine. When appends are given, each
// lands as one delta segment — on the engine through AppendXML and,
// mirrored, on a head of the replay's own (the engine's head is private, and
// two heads must not extend one node table).
func treeBackingOf(e *xks.Engine, appends []appendDoc) (*backing, error) {
	tree := e.Tree()
	an := analysis.New()
	b := &backing{an: an, engine: e, lookupLayer: "index"}
	var err error
	if len(appends) == 0 {
		ix := b.engine.Index()
		b.head = &delta.Head{Tab: ix.Table(), Base: ix}
	} else {
		ix := index.Build(tree, an)
		tab := ix.Table()
		var segs []*delta.Segment
		for _, d := range appends {
			if err := b.engine.AppendXML("0", d.XML); err != nil {
				return nil, err
			}
			sub := tree.Root.Children[len(tree.Root.Children)-1]
			start := nid.ID(tab.Len())
			id := start
			var codes []dewey.Code
			postings := map[string][]nid.ID{}
			var walk func(n *xmltree.Node)
			walk = func(n *xmltree.Node) {
				codes = append(codes, n.Code)
				for _, w := range an.ContentSet(n.ContentPieces()...) {
					postings[w] = append(postings[w], id)
				}
				id++
				for _, c := range n.Children {
					walk(c)
				}
			}
			walk(sub)
			if tab, _, err = tab.Extend(codes); err != nil {
				return nil, err
			}
			seg, err := delta.NewSegment(start, nid.ID(tab.Len()), postings)
			if err != nil {
				return nil, err
			}
			segs = append(segs, seg)
		}
		b.head = &delta.Head{Tab: tab, Base: ix, Segs: segs}
		b.lookupLayer = "delta"
	}
	nodes := tree.Nodes()
	words := make([][]string, len(nodes))
	for i, n := range nodes {
		words[i] = an.ContentSet(n.ContentPieces()...)
	}
	b.labelOf = func(id nid.ID) string { return nodes[id].Label }
	b.contentOf = func(id nid.ID) []string { return words[id] }
	return b, nil
}

// storeBacking maps the v3 store the way xkserver -store -mmap on does.
func storeBacking(path string) (*backing, error) {
	st, err := store.OpenFile(path, store.OpenOptions{Mode: store.OpenMmap})
	if err != nil {
		return nil, err
	}
	e := xks.FromStore(st)
	ix := e.Index()
	return &backing{
		an: analysis.New(), engine: e, lookupLayer: "index",
		head:       &delta.Head{Tab: ix.Table(), Base: ix},
		compressed: ix, touched: map[string]bool{},
		labelOf:   func(id nid.ID) string { return st.LabelAt(int(id)) },
		contentOf: func(id nid.ID) []string { return st.ContentAt(int(id)) },
	}, nil
}

func (b *backing) close() { b.engine.Close() }

// spanAttr reads a counter the stage itself stamped on the repo's own trace
// span (internal/trace) — exact counts from where the work happens.
func spanAttr(sp *trace.Span, key string) int64 {
	if sp == nil {
		return 0
	}
	n, _ := sp.JSON().Attrs[key].(int64)
	return n
}

// pipeline replays one search through the layers' exported functions in
// pipeline order — query.Parse → Snapshot.LookupIDs (+ List.Decode on first
// touch) → planner.Decide → lca.*Ctx → rtf.BuildIDsPlanned /
// BuildScoredIDsCtx → exec.Select → prune.BuildFragmentIDs + Prune — one
// span per call (per stage for the per-fragment calls). It mirrors
// Engine.stream and exec.Candidates; the caller checks its answer against
// Engine.Search, so a drift between the two fails the run.
func (b *backing) pipeline(rec *recorder, r searchReq) (answer, error) {
	ctx := context.Background()
	req := r.xks()
	var ans answer
	snap, err := b.head.At(b.head.Tab.Len(), nil)
	if err != nil {
		return ans, err
	}
	defer snap.Release()

	id := rec.begin("query", "Parse")
	terms, err := query.Parse(req.Query, b.an)
	rec.end(id, "terms", int64(len(terms)))
	if err != nil {
		return ans, err
	}
	sets := make([][]nid.ID, len(terms))
	words := make([]string, len(terms))
	sizes := make([]int, len(terms))
	for i, t := range terms {
		w := t.Keyword
		words[i] = w
		if b.compressed != nil && !b.touched[w] {
			b.touched[w] = true
			if l, ok := b.compressed.LookupList(w); ok {
				id := rec.begin("postings", "List.Decode")
				ids, err := l.Decode()
				rec.end(id, "ids", int64(len(ids)), "bytes", int64(l.EncodedLen()))
				if err != nil {
					return ans, err
				}
			}
		}
		id := rec.begin(b.lookupLayer, "LookupIDs")
		sets[i] = snap.LookupIDs(w)
		rec.end(id, "ids", int64(len(sets[i])))
		if len(sets[i]) == 0 {
			return ans, nil // an unmatched keyword: no fragment can cover the query
		}
		sizes[i] = len(sets[i])
	}

	// Engine.decideAt reads the snapshot's statistics first; with live
	// segments that is an overlay computed per query, the delta layer's work.
	id = rec.begin(b.lookupLayer, "Stats")
	stats := snap.Stats()
	rec.end(id)
	id = rec.begin("planner", "Decide")
	d := planner.Decide(sizes, stats, planner.Default)
	if !r.SLCA {
		d.Strategy = planner.ScanMerge // ELCA has no indexed variant (Engine.decideAt)
	}
	scan := int64(0)
	if d.Strategy == planner.ScanMerge {
		scan = 1
	}
	rec.end(id, "scan", scan)

	tab := snap.Table()
	var lsp, rsp *trace.Span
	lctx, rctx := ctx, ctx
	if rec != nil {
		t := trace.New("replay")
		lsp, rsp = t.Root().Child("lca"), t.Root().Child("rtf")
		lctx, rctx = trace.ContextWithSpan(ctx, lsp), trace.ContextWithSpan(ctx, rsp)
	}
	var roots []nid.ID
	switch {
	case r.SLCA && d.Strategy == planner.ScanMerge:
		id = rec.begin("lca", "SLCAScanMergeIDsCtx")
		roots, err = lca.SLCAScanMergeIDsCtx(lctx, tab, sets, d.Order)
	case r.SLCA:
		id = rec.begin("lca", "SLCAIDsCtx")
		roots, err = lca.SLCAIDsCtx(lctx, tab, sets)
	default:
		id = rec.begin("lca", "ELCAStackMergeIDsOrderedCtx")
		roots, err = lca.ELCAStackMergeIDsOrderedCtx(lctx, tab, sets, d.Order)
	}
	rec.end(id, "events", spanAttr(lsp, "mergeEvents"), "roots", int64(len(roots)))
	if err != nil {
		return ans, err
	}

	scorer := rank.NewScorerFrom(snap)
	deferEvents := req.Rank && req.Limit > 0
	var cands []*exec.Candidate
	if deferEvents {
		id = rec.begin("rtf", "BuildScoredIDsCtx")
		scored, err := rtf.BuildScoredIDsCtx(rctx, tab, roots, sets, scorer.Incremental(words), d.Order, d.Skip)
		rec.end(id, "events", spanAttr(rsp, "dispatchedEvents"), "covering", int64(len(scored)))
		if err != nil {
			return ans, err
		}
		id = rec.begin("exec", "candidates")
		hulls := make([]rtf.IDRTF, len(scored))
		cands = make([]*exec.Candidate, len(scored))
		for i, s := range scored {
			hulls[i].Root = s.Root
			cands[i] = &exec.Candidate{Seq: i, RTF: &hulls[i], Roots: roots, Score: s.Score,
				IsSLCA: !(i+1 < len(scored) && tab.IsAncestorOf(s.Root, scored[i+1].Root))}
		}
		rec.end(id)
	} else {
		id = rec.begin("rtf", "BuildIDsPlanned")
		rtfs, err := rtf.BuildIDsPlanned(rctx, tab, roots, sets, d.Order, d.Skip)
		rec.end(id, "events", spanAttr(rsp, "dispatchedEvents"), "covering", int64(len(rtfs)))
		if err != nil {
			return ans, err
		}
		id = rec.begin("exec", "candidates")
		cands = make([]*exec.Candidate, len(rtfs))
		for i, rt := range rtfs {
			c := &exec.Candidate{Seq: i, RTF: rt,
				IsSLCA: !(i+1 < len(rtfs) && tab.IsAncestorOf(rt.Root, rtfs[i+1].Root))}
			if req.Rank {
				c.Score = scorer.ScoreIDs(tab, rt.Root, rt.KeywordNodes, words)
			}
			cands[i] = c
		}
		rec.end(id)
	}
	ans.NumLCAs = len(cands)

	mode := prune.ValidContributor
	if req.Algorithm == xks.MaxMatch {
		mode = prune.Contributor
	}
	params := exec.Params{Tab: tab, SLCAOnly: r.SLCA, Mode: mode, Rank: req.Rank, Limit: req.Limit}
	id = rec.begin("exec", "Select")
	selected := exec.Select(cands, params)
	rec.end(id, "offers", int64(len(cands)), "selected", int64(len(selected)))

	if deferEvents {
		// Selected candidates of a score-without-events stage hydrate their
		// keyword events lazily (Engine.materialize).
		id = rec.begin("rtf", "EventsFor")
		for i, c := range selected {
			h := *c
			h.RTF = &rtf.IDRTF{Root: c.RTF.Root, KeywordNodes: rtf.EventsFor(tab, c.RTF.Root, c.Roots, sets)}
			selected[i] = &h
		}
		rec.end(id, "fragments", int64(len(selected)))
	}
	// One fragment at a time, as Engine.materialize does it (build, prune,
	// let go): building them all first would keep every fragment tree alive
	// at once and charge pruning for the collector's extra work.
	results := make([]*prune.Result, len(selected))
	visited, kept := 0, 0
	all := rec.begin("prune", "materialize")
	for i, c := range selected {
		id := rec.begin("prune", "BuildFragmentIDs")
		f := prune.BuildFragmentIDs(tab, c.RTF, b.labelOf, b.contentOf, prune.Options{})
		rec.end(id)
		id = rec.begin("prune", "Prune/"+mode.String())
		results[i] = f.Prune(mode, prune.Options{})
		rec.end(id)
		visited += results[i].Visited
		kept += len(results[i].Kept)
	}
	rec.end(all, "fragments", int64(len(selected)), "visited", int64(visited), "kept", int64(kept))
	for i, res := range results {
		ans.Frags = append(ans.Frags, fmt.Sprintf("%s:%d", tab.Code(selected[i].RTF.Root), len(res.Kept)))
	}
	return ans, nil
}

// servingTwin is the in-process twin of xkserver's front half: the same
// service and admission controller the binary builds, over the backing's
// engine.
type servingTwin struct {
	svc *service.Service
	adm *admission.Controller
}

func newServingTwin(e *xks.Engine, cacheSize int) *servingTwin {
	return &servingTwin{
		svc: service.New(service.SingleDoc{Name: "dblp.xks", Engine: e}, service.Config{CacheSize: cacheSize}),
		adm: admission.New(admission.Config{MaxInFlight: 256, MaxQueue: 1024}),
	}
}

type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) { w.n += int64(len(p)); return len(p), nil }

// encode is what the handler does with a result: wire fragments (XML
// rendered or memoized) and one JSON encode.
func encode(req xks.Request, res *xks.Results, cached bool) int64 {
	resp := httpapi.Response{
		Query: req.Query, Keywords: res.Stats.Keywords, NumLCAs: res.Stats.NumLCAs,
		ElapsedMS: float64(res.Stats.Elapsed.Microseconds()) / 1000, Cached: cached,
		Cursor: string(res.Cursor), PerDocument: res.PerDocument,
	}
	for _, f := range res.Fragments {
		resp.Fragments = append(resp.Fragments, httpapi.ToFragment(f, false))
	}
	var cw countWriter
	json.NewEncoder(&cw).Encode(resp)
	return cw.n
}

// replayOp replays one operation of a workload under one root span.
//
//   - in-process workload (twin == nil): the pipeline, then the reference
//     Engine.Search it must agree with.
//   - served, miss (hot == false): admission, the pipeline, the reference
//     search, then what the handler does with the result — render each
//     fragment's XML, convert and JSON-encode.
//   - served, hit: admission, Service.Search on a warmed cache, encode.
//
// The reference search is a span of layer "ref", outside the attributed
// time, which is returned measured by the wall clock whether or not a
// recorder is attached (so the two can be compared), with Engine.Search's
// own per-stage times for the xks.* metrics.
func (b *backing) replayOp(rec *recorder, r searchReq, twin *servingTwin, hot bool) (xks.StageStats, time.Duration, error) {
	ctx := context.Background()
	req := r.xks()
	start := time.Now()
	op := rec.beginOp(r.path(""))
	defer rec.end(op)
	if twin != nil {
		id := rec.begin("admission", "Acquire")
		release, _, err := twin.adm.Acquire(ctx)
		if err == nil {
			release()
		}
		rec.end(id)
		if err != nil {
			return xks.StageStats{}, 0, err
		}
	}
	if hot {
		id := rec.begin("service", "Search/hit")
		res, cached, err := twin.svc.Search(ctx, req)
		rec.end(id)
		if err != nil {
			return xks.StageStats{}, 0, err
		}
		if !cached {
			return xks.StageStats{}, 0, fmt.Errorf("replay %s: expected a cache hit", r.path(""))
		}
		id = rec.begin("httpapi", "ToFragment+Encode")
		n := encode(req, res, true)
		rec.end(id, "bytes", n, "fragments", int64(len(res.Fragments)))
		return xks.StageStats{}, time.Since(start), nil
	}

	got, err := b.pipeline(rec, r)
	if err != nil {
		return xks.StageStats{}, 0, err
	}
	refStart := time.Now()
	id := rec.begin("ref", "Engine.Search")
	res, err := b.engine.Search(ctx, req)
	if err == nil {
		if want := answerOf(res); got.String() != want.String() {
			err = fmt.Errorf("replay %s: layers gave %s, Engine.Search %s", r.path(""), clip(got.String()), clip(want.String()))
		}
	}
	rec.end(id)
	ref := time.Since(refStart)
	if err != nil {
		return xks.StageStats{}, 0, err
	}
	if twin != nil {
		id = rec.begin("xks", "Fragment.XML")
		var n int64
		for _, f := range res.Fragments {
			n += int64(len(f.XML()))
		}
		rec.end(id, "bytes", n, "fragments", int64(len(res.Fragments)))
		id = rec.begin("httpapi", "ToFragment+Encode")
		n = encode(req, res.AsCorpus("dblp.xks"), false)
		rec.end(id, "bytes", n, "fragments", int64(len(res.Fragments)))
	}
	return res.Stats.Stages, time.Since(start) - ref, nil
}
