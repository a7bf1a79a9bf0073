package xks

// Crosscheck of the staged pipeline (internal/exec: plan → candidates →
// select → materialize) against the pre-refactor eager path, which
// materialized every fragment before ranking or limiting. eagerSearch and
// eagerCorpusSearch below are line-for-line ports of the pre-pipeline
// Engine.Search and Corpus.Search; the tests assert byte-identical output
// across all three algorithms × both semantics, with and without ranking
// and limits.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"xks/internal/concurrent"
	"xks/internal/datagen"
	"xks/internal/dewey"
	"xks/internal/index"
	"xks/internal/lca"
	"xks/internal/nid"
	"xks/internal/prune"
	"xks/internal/reference"
	"xks/internal/rtf"
	"xks/internal/workload"
)

// codeSource is the Dewey-code view of an engine's node table and document
// source the eager reference path runs on: a code resolves to its table ID
// (nid.Table.Find) and the ID accessors answer.
type codeSource struct {
	e   *Engine
	tab *nid.Table
}

func codeSourceOf(e *Engine) codeSource { return codeSource{e: e, tab: e.head.Load().Tab} }

func (s codeSource) id(c dewey.Code) nid.ID {
	id, ok := s.tab.Find(c)
	if !ok {
		panic("eager path looked up a node outside the table: " + c.String())
	}
	return id
}

func (s codeSource) labelOf(c dewey.Code) string { return s.e.src.Load().labels.Of(s.id(c)) }

// idRTF carries a Dewey-code RTF over to the table, for the one pruneRTF
// builder.
func (s codeSource) idRTF(r *reference.RTF) *rtf.IDRTF {
	out := &rtf.IDRTF{Root: s.id(r.Root), KeywordNodes: make([]lca.IDEvent, len(r.KeywordNodes))}
	for i, ev := range r.KeywordNodes {
		out.KeywordNodes[i] = lca.IDEvent{ID: s.id(ev.Code), Mask: ev.Mask}
	}
	return out
}

// resolveSets is the Dewey-code view of planAt over the newest state.
func (s codeSource) resolveSets(queryText string) (display, idfWords []string, sets [][]dewey.Code, err error) {
	v := s.e.currentView()
	defer v.release()
	p, err := s.e.planAt(v, queryText)
	if err != nil {
		return p.Keywords, p.IDFWords, nil, err
	}
	sets = make([][]dewey.Code, len(p.Sets))
	for i, ids := range p.Sets {
		sets[i] = make([]dewey.Code, len(ids))
		for j, id := range ids {
			sets[i][j] = s.tab.Code(id)
		}
	}
	return p.Keywords, p.IDFWords, sets, nil
}

// eagerSearch is the pre-refactor Engine.Search: assemble every fragment,
// then rank, then truncate.
func eagerSearch(e *Engine, queryText string, opts Request) (*Result, error) {
	res := &Result{Query: queryText}
	src := codeSourceOf(e)
	words, idfWords, sets, err := src.resolveSets(queryText)
	if err != nil {
		var nm *index.ErrNoMatch
		if errors.As(err, &nm) {
			res.Stats.Keywords = words
			return res, nil
		}
		return nil, err
	}
	res.Stats.Keywords = words
	for _, s := range sets {
		res.Stats.KeywordNodes += len(s)
	}

	var roots []dewey.Code
	if opts.Semantics == SLCAOnly {
		roots = reference.SLCA(sets)
	} else {
		roots = reference.ELCAStackMerge(sets)
	}
	rtfs := reference.Build(roots, sets)
	res.Stats.NumLCAs = len(rtfs)

	pruneOpts := prune.Options{ExactContent: opts.ExactContent}
	allRoots := make([]dewey.Code, len(rtfs))
	for i, r := range rtfs {
		allRoots[i] = r.Root
	}
	for _, r := range rtfs {
		f := prune.BuildFragmentIDs(src.tab, src.idRTF(r), e.src.Load().labels.Of, e.src.Load().content, pruneOpts)
		kept := f.Prune(opts.Algorithm.mode(), pruneOpts)
		res.Fragments = append(res.Fragments, eagerAssemble(src, r, kept, allRoots, words, idfWords))
	}

	if opts.Rank {
		// The pre-refactor Fragment carried its keyword events; they are
		// rtfs[i].KeywordNodes, still in document order at this point.
		scores := make([]float64, len(res.Fragments))
		for i := range res.Fragments {
			sc := e.currentScorer()
			scores[i] = reference.Score(sc.Decay, sc.IDF, rtfs[i].Root, rtfs[i].KeywordNodes, idfWords)
			res.Fragments[i].Score = scores[i]
		}
		ordered := reference.Order(scores)
		ranked := make([]*Fragment, len(ordered))
		for i, r := range ordered {
			ranked[i] = res.Fragments[r.Index]
		}
		res.Fragments = ranked
	}
	if opts.Limit > 0 && len(res.Fragments) > opts.Limit {
		res.Fragments = res.Fragments[:opts.Limit]
	}
	return res, nil
}

// eagerAssemble is the pre-refactor Engine.assemble.
func eagerAssemble(src codeSource, r *reference.RTF, kept *prune.Result, allRoots []dewey.Code, words, idfWords []string) *Fragment {
	e := src.e
	v := e.currentView()
	v.release()
	v.words, v.keywords = idfWords, words
	f := &Fragment{
		Root:      r.Root.String(),
		RootLabel: src.labelOf(r.Root),
		IsSLCA:    r.IsSLCA(allRoots),
		v:         v,
		keptIDs:   kept.KeptIDs,
	}
	matched := map[string]uint64{}
	for _, ev := range r.KeywordNodes {
		matched[reference.Key(ev.Code)] = ev.Mask
	}
	for _, c := range kept.Kept {
		f.Nodes = append(f.Nodes, FragmentNode{Dewey: c.String(), mask: matched[reference.Key(c)]})
	}
	return f
}

// eagerCorpusSearch is the pre-refactor Corpus.Search: full per-document
// eager searches fanned out across workers, merged in document order,
// stable-sorted by score when ranking, then truncated.
func eagerCorpusSearch(c *Corpus, query string, opts Request) (*Results, error) {
	mergedLimit := opts.Limit
	docOpts := opts
	docOpts.Limit = 0

	names := c.Names()
	outs := make([]*Result, len(names))
	err := concurrent.Each(nil, len(names), c.Workers, func(i int) error {
		res, err := eagerSearch(c.engines[names[i]], query, docOpts)
		if err != nil {
			return fmt.Errorf("xks: document %s: %w", names[i], err)
		}
		outs[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	merged := &Results{Query: query, PerDocument: map[string]int{}}
	for i, res := range outs {
		name := names[i]
		if i == 0 {
			merged.Stats.Keywords = res.Stats.Keywords
		}
		merged.Stats.KeywordNodes += res.Stats.KeywordNodes
		merged.Stats.NumLCAs += res.Stats.NumLCAs
		merged.PerDocument[name] = len(res.Fragments)
		for _, f := range res.Fragments {
			merged.Fragments = append(merged.Fragments, CorpusFragment{Document: name, Fragment: f})
		}
	}
	if opts.Rank {
		sort.SliceStable(merged.Fragments, func(i, j int) bool {
			return merged.Fragments[i].Score > merged.Fragments[j].Score
		})
	}
	if mergedLimit > 0 && len(merged.Fragments) > mergedLimit {
		merged.Fragments = merged.Fragments[:mergedLimit]
	}
	return merged, nil
}

func requireSameFragments(t *testing.T, label string, want, got []*Fragment) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d fragments eager vs %d pipeline", label, len(want), len(got))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Root != g.Root || w.RootLabel != g.RootLabel || w.IsSLCA != g.IsSLCA {
			t.Fatalf("%s fragment %d: header %s/%s/%v vs %s/%s/%v",
				label, i, w.Root, w.RootLabel, w.IsSLCA, g.Root, g.RootLabel, g.IsSLCA)
		}
		if w.Score != g.Score {
			t.Fatalf("%s fragment %d (%s): score %v vs %v", label, i, w.Root, w.Score, g.Score)
		}
		if !reflect.DeepEqual(w.Nodes, g.Nodes) {
			t.Fatalf("%s fragment %d (%s): nodes differ\neager: %+v\npipeline: %+v",
				label, i, w.Root, w.Nodes, g.Nodes)
		}
		for j := range w.Nodes {
			if !sameNode(w, g, j) || w.NodeText(j) != g.NodeText(j) {
				t.Fatalf("%s fragment %d (%s) node %d: %s %q vs %s %q", label, i, w.Root, j, nodeFacts(w, j), w.NodeText(j), nodeFacts(g, j), g.NodeText(j))
			}
		}
		if w.XML() != g.XML() {
			t.Fatalf("%s fragment %d (%s): XML differs\neager:\n%s\npipeline:\n%s",
				label, i, w.Root, w.XML(), g.XML())
		}
		if w.ASCII() != g.ASCII() {
			t.Fatalf("%s fragment %d (%s): ASCII differs\neager:\n%s\npipeline:\n%s",
				label, i, w.Root, w.ASCII(), g.ASCII())
		}
	}
}

// crosscheckOptions is the grid of request shapes (requests without a
// query) the crosscheck tests sweep: every algorithm × both semantics ×
// {plain, ranked, ranked+limited, limited}.
func crosscheckOptions() []Request {
	var out []Request
	for _, algo := range []Algorithm{ValidRTF, MaxMatch, RawRTF} {
		for _, sem := range []Semantics{AllLCA, SLCAOnly} {
			for _, shape := range []Request{
				{},
				{Rank: true},
				{Rank: true, Limit: 2},
				{Limit: 2},
			} {
				o := shape
				o.Algorithm = algo
				o.Semantics = sem
				out = append(out, o)
			}
		}
	}
	return out
}

// withQuery returns the request shape with its query set.
func withQuery(shape Request, q string) Request {
	shape.Query = q
	return shape
}

// TestPipelineMatchesEagerEngine crosschecks Engine.Search against the
// pre-refactor eager path on the paper's running example and a generated
// DBLP document, for all algorithms and semantics.
func TestPipelineMatchesEagerEngine(t *testing.T) {
	engines := map[string]*Engine{
		"publications": FromTree(reference.Publications()),
		"dblp":         crosscheckDBLPEngine(t, 1),
	}
	queries := []string{reference.Q1, reference.Q2, reference.Q3, reference.QLiuKeyword}
	for name, e := range engines {
		for _, q := range queries {
			for _, opts := range crosscheckOptions() {
				label := fmt.Sprintf("%s %q %s/%s rank=%v limit=%d",
					name, q, opts.Algorithm, opts.Semantics, opts.Rank, opts.Limit)
				want, err := eagerSearch(e, q, opts)
				if err != nil {
					t.Fatalf("%s: eager: %v", label, err)
				}
				got, err := e.Search(context.Background(), withQuery(opts, q))
				if err != nil {
					t.Fatalf("%s: pipeline: %v", label, err)
				}
				if want.Stats.Keywords != nil && !reflect.DeepEqual(want.Stats.Keywords, got.Stats.Keywords) {
					t.Fatalf("%s: keywords %v vs %v", label, want.Stats.Keywords, got.Stats.Keywords)
				}
				if want.Stats.KeywordNodes != got.Stats.KeywordNodes || want.Stats.NumLCAs != got.Stats.NumLCAs {
					t.Fatalf("%s: stats (%d,%d) vs (%d,%d)", label,
						want.Stats.KeywordNodes, want.Stats.NumLCAs,
						got.Stats.KeywordNodes, got.Stats.NumLCAs)
				}
				requireSameFragments(t, label, want.Fragments, got.Fragments)
			}
		}
	}
}

func crosscheckDBLPEngine(t testing.TB, seed int64) *Engine {
	t.Helper()
	w := workload.DBLP()
	specs, err := w.Specs(0, 400.0/20000.0)
	if err != nil {
		t.Fatal(err)
	}
	return FromTree(datagen.DBLP(datagen.DBLPConfig{Seed: seed, NumRecords: 400, Keywords: specs}))
}

// TestPipelineMatchesEagerCorpus crosschecks the staged Corpus.Search —
// including the ranked selection across documents — against the eager merge.
func TestPipelineMatchesEagerCorpus(t *testing.T) {
	c := NewCorpus()
	c.Add("pubs.xml", FromTree(reference.Publications()))
	c.Add("dblp-a.xml", crosscheckDBLPEngine(t, 2))
	c.Add("dblp-b.xml", crosscheckDBLPEngine(t, 3))
	c.Workers = 3

	w := workload.DBLP()
	q, err := w.Expand(w.Queries[0])
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{reference.Q1, reference.QLiuKeyword, q}
	shapes := []Request{
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
					label := fmt.Sprintf("corpus %q %s/%s rank=%v limit=%d", q, algo, sem, opts.Rank, opts.Limit)
					want, err := eagerCorpusSearch(c, q, opts)
					if err != nil {
						t.Fatalf("%s: eager: %v", label, err)
					}
					got, err := c.Search(context.Background(), withQuery(opts, q))
					if err != nil {
						t.Fatalf("%s: pipeline: %v", label, err)
					}
					if !reflect.DeepEqual(want.PerDocument, got.PerDocument) {
						t.Fatalf("%s: PerDocument %v vs %v", label, want.PerDocument, got.PerDocument)
					}
					if want.Stats.KeywordNodes != got.Stats.KeywordNodes || want.Stats.NumLCAs != got.Stats.NumLCAs {
						t.Fatalf("%s: stats (%d,%d) vs (%d,%d)", label,
							want.Stats.KeywordNodes, want.Stats.NumLCAs,
							got.Stats.KeywordNodes, got.Stats.NumLCAs)
					}
					if len(want.Fragments) != len(got.Fragments) {
						t.Fatalf("%s: %d vs %d fragments", label, len(want.Fragments), len(got.Fragments))
					}
					for i := range want.Fragments {
						if want.Fragments[i].Document != got.Fragments[i].Document {
							t.Fatalf("%s fragment %d: document %s vs %s", label, i,
								want.Fragments[i].Document, got.Fragments[i].Document)
						}
					}
					wf := make([]*Fragment, len(want.Fragments))
					gf := make([]*Fragment, len(got.Fragments))
					for i := range want.Fragments {
						wf[i] = want.Fragments[i].Fragment
						gf[i] = got.Fragments[i].Fragment
					}
					requireSameFragments(t, label, wf, gf)
				}
			}
		}
	}
}

// TestLateMaterializationAssemblesOnlySelected pins the contract the
// benchmark relies on: ranked+limited searches assemble exactly Limit
// fragments, not one per candidate.
func TestLateMaterializationAssemblesOnlySelected(t *testing.T) {
	c := NewCorpus()
	c.Add("a.xml", crosscheckDBLPEngine(t, 4))
	c.Add("b.xml", crosscheckDBLPEngine(t, 5))
	c.Add("c.xml", crosscheckDBLPEngine(t, 6))

	// Pick the workload query with the most candidates, so the limit
	// actually discards some.
	w := workload.DBLP()
	const limit = 3
	var query string
	best := 0
	for _, abbrev := range w.Queries {
		q, err := w.Expand(abbrev)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Search(context.Background(), Request{Query: q})
		if err != nil {
			t.Fatal(err)
		}
		if n := res.Stats.NumLCAs; n > best {
			best, query = n, q
		}
	}
	if best <= limit {
		t.Fatalf("test needs more than %d candidates to be meaningful, best query has %d", limit, best)
	}

	before := corpusAssembled(c)
	res, err := c.Search(context.Background(), Request{Query: query, Rank: true, Limit: limit})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fragments) != limit {
		t.Fatalf("got %d fragments, want %d", len(res.Fragments), limit)
	}
	assembled := corpusAssembled(c) - before
	if assembled != limit {
		t.Fatalf("assembled %d fragments for a Limit=%d search over %d candidates", assembled, limit, best)
	}
}

// corpusAssembled sums the materialization counters across the corpus.
func corpusAssembled(c *Corpus) uint64 {
	var n uint64
	for _, e := range c.engines {
		n += e.assembledFragments()
	}
	return n
}
