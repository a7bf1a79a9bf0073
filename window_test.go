package xks

// Pins behind windowed candidate handles: a page builds *Candidate handles
// only for the first Offset+Limit roots of its selection order, so over
// every configuration it must select exactly what the unlimited candidate
// stage followed by exec.Select/Page selects — the same roots, Seq, IsSLCA
// and bit-identical scores — and report the same numLcas, per-document
// counts and cursor bytes.

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"math"
	"slices"
	"sync"
	"testing"

	"xks/internal/exec"
	"xks/internal/index"
	"xks/internal/xmltree"
)

// pick is one selected candidate as the differential compares it.
type pick struct {
	doc, seq int
	root     string
	slca     bool
	score    uint64
}

func picksOf(docs []docRead, cands []*exec.Candidate) []pick {
	out := make([]pick, len(cands))
	for i, c := range cands {
		tab := docs[c.Doc].eng.params(Request{}).Tab
		out[i] = pick{c.Doc, c.Seq, tab.Code(c.RTF.Root).String(), c.IsSLCA, math.Float64bits(c.Score)}
	}
	return out
}

// windowTarget is one engine or corpus under test, and how to pin its
// snapshot for a request.
type windowTarget struct {
	name    string
	docs    func(t *testing.T, req Request) ([]docRead, uint64)
	search  func(req Request) (frags []*Fragment, numLCAs int, perDoc map[string]int, cur Cursor, err error)
	queries []string
}

func engineTarget(name string, e *Engine, queries []string) windowTarget {
	return windowTarget{
		name: name,
		docs: func(_ *testing.T, _ Request) ([]docRead, uint64) {
			v := e.currentView()
			return []docRead{{eng: e, v: v}}, v.snap.Version()
		},
		search: func(req Request) ([]*Fragment, int, map[string]int, Cursor, error) {
			r, err := e.Search(context.Background(), req)
			if err != nil {
				return nil, 0, nil, "", err
			}
			return r.Fragments, r.Stats.NumLCAs, nil, r.Cursor, nil
		},
		queries: queries,
	}
}

func corpusTarget(name string, c *Corpus, queries []string) windowTarget {
	return windowTarget{
		name: name,
		docs: func(t *testing.T, req Request) ([]docRead, uint64) {
			_, docs, gen, err := c.resolveSnapshot(req)
			if err != nil {
				t.Fatal(err)
			}
			return docs, gen
		},
		search: func(req Request) ([]*Fragment, int, map[string]int, Cursor, error) {
			r, err := c.Search(context.Background(), req)
			if err != nil {
				return nil, 0, nil, "", err
			}
			frags := make([]*Fragment, len(r.Fragments))
			for i, f := range r.Fragments {
				frags[i] = f.Fragment
			}
			return frags, r.Stats.NumLCAs, r.PerDocument, r.Cursor, nil
		},
		queries: queries,
	}
}

// oracle is the unlimited selection: every document's candidate stage run
// with the request's ranking and event deferral but no Limit, the
// candidates concatenated in document order, then exec.Select. It returns
// the page and every document's root count.
func oracle(t *testing.T, docs []docRead, req Request) ([]pick, []int) {
	t.Helper()
	var all []*exec.Candidate
	counts := make([]int, len(docs))
	var releases []func()
	for i, d := range docs {
		p, err := d.eng.planAt(d.v, req.Query)
		var nm *index.ErrNoMatch
		if errors.As(err, &nm) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		p.Decision = d.eng.decideAt(d.v, req, p)
		params := d.eng.paramsAt(d.v, req)
		params.Limit, params.Offset = 0, 0
		cands, n, release, err := exec.Candidates(context.Background(), p, params, i)
		if err != nil || n != len(cands) {
			t.Fatalf("unlimited stage: %d handles for %d roots, err %v", len(cands), n, err)
		}
		all, counts[i], releases = append(all, cands...), n, append(releases, release)
	}
	page := picksOf(docs, exec.Select(all, exec.Params{Rank: req.Rank, Limit: req.Limit, Offset: req.Offset}))
	for _, r := range releases {
		r()
	}
	return page, counts
}

// checkWindow compares one request's windowed selection and search with the
// oracle.
func checkWindow(t *testing.T, tg windowTarget, req Request) {
	t.Helper()
	label := fmt.Sprintf("%s %q %s rank=%v limit=%d offset=%d", tg.name, req.Query, req.Semantics, req.Rank, req.Limit, req.Offset)
	docs, gen := tg.docs(t, req)
	want, counts := oracle(t, docs, req)
	total := 0
	for _, n := range counts {
		total += n
	}

	res := &Results{PerDocument: map[string]int{}}
	topk, _, err := candidates(context.Background(), req, docs, 1, res)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	got := picksOf(docs, selectAcross(topk, docs, req))
	releaseAll(docs)
	if !slices.Equal(got, want) {
		t.Fatalf("%s: window selects\n%v\nthe unlimited stage\n%v", label, got, want)
	}
	if res.Stats.NumLCAs != total {
		t.Fatalf("%s: numLcas %d, unlimited %d", label, res.Stats.NumLCAs, total)
	}
	for i, d := range docs {
		if len(docs) > 1 && res.PerDocument[d.name] != counts[i] {
			t.Fatalf("%s: perDocument %v, unlimited counts %v", label, res.PerDocument, counts)
		}
	}

	frags, numLCAs, perDoc, cur, err := tg.search(req)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if len(frags) != len(want) || numLCAs != total {
		t.Fatalf("%s: search returned %d fragments of %d roots, want %d of %d", label, len(frags), numLCAs, len(want), total)
	}
	for i, f := range frags {
		if w := want[i]; f.Root != w.root || f.IsSLCA != w.slca || math.Float64bits(f.Score) != w.score {
			t.Fatalf("%s fragment %d: %s slca=%v score %v, want %+v", label, i, f.Root, f.IsSLCA, f.Score, w)
		}
	}
	for i, d := range docs {
		if perDoc != nil && perDoc[d.name] != counts[i] {
			t.Fatalf("%s: search perDocument %v, unlimited counts %v", label, perDoc, counts)
		}
	}
	var wantCur Cursor
	if len(want) > 0 {
		wantCur = pageCursor(req, gen, len(want), total, false)
	}
	if cur != wantCur {
		t.Fatalf("%s: cursor %q, want %q", label, cur, wantCur)
	}
}

// tiedTree is a document whose records score alike in runs: every paper
// holds "alpha beta" once, and every fourth one twice, so the ranked order
// is decided by Seq inside each run.
func tiedTree(n int) *xmltree.Tree {
	kids := make([]xmltree.E, n)
	for i := range kids {
		kids[i] = xmltree.E{Label: "paper", Kids: []xmltree.E{{Label: "title", Text: "alpha beta"}, {Label: "year", Text: "y2009"}}}
		if i%4 == 3 {
			kids[i].Kids = append(kids[i].Kids, xmltree.E{Label: "note", Text: "alpha beta"})
		}
	}
	return xmltree.Build(xmltree.E{Label: "dblp", Kids: kids})
}

func TestWindowMatchesFullSelection(t *testing.T) {
	var targets []windowTarget
	for _, c := range coverCases(t) {
		targets = append(targets, engineTarget(c.name, c.e, c.queries[:6]))
	}
	targets = append(targets, engineTarget("tied", FromTree(tiedTree(120)), []string{"alpha beta"}))
	c := NewCorpus()
	for i := range 3 {
		c.Add(fmt.Sprintf("d%d.xml", i), crosscheckDBLPEngine(t, int64(11+i)))
	}
	c.Add("tied.xml", FromTree(tiedTree(40)))
	targets = append(targets, corpusTarget("corpus", c, []string{"keyword similarity", "data recognition", "algorithm dynamic", "alpha beta"}))

	pages := 0
	for _, tg := range targets {
		for _, q := range tg.queries {
			for _, sem := range []Semantics{AllLCA, SLCAOnly} {
				for _, ranked := range []bool{false, true} {
					base := Request{Query: q, Semantics: sem, Rank: ranked}
					docs, _ := tg.docs(t, base)
					_, counts := oracle(t, docs, base)
					releaseAll(docs)
					n := 0
					for _, k := range counts {
						n += k
					}
					for _, limit := range []int{1, 10, 25} {
						// 0; the largest window below the root count;
						// the last root; past the end; and, across a
						// corpus, just inside the second and third
						// documents.
						offsets := []int{0, n - limit - 1, n - 1, n, n + limit}
						if len(counts) > 2 {
							offsets = append(offsets, counts[0]+1, counts[0]+counts[1]+1)
						}
						for _, off := range offsets {
							if off < 0 {
								continue
							}
							req := base
							req.Limit, req.Offset = limit, off
							checkWindow(t, tg, req)
							pages++
						}
					}
					req := base
					req.Limit, req.Offset = 10, math.MaxInt-5 // Offset+Limit overflows
					checkWindow(t, tg, req)
				}
			}
		}
	}
	t.Logf("%d pages checked against the unlimited selection", pages)
}

// TestWindowTiesPreferLowerSeq: among equal scores the ranked window keeps
// the roots that come first in document order.
func TestWindowTiesPreferLowerSeq(t *testing.T) {
	e := FromTree(tiedTree(120))
	res, err := e.Search(context.Background(), Request{Query: "alpha beta", Semantics: SLCAOnly, Rank: true, Limit: 10})
	if err != nil || len(res.Fragments) != 10 {
		t.Fatalf("%v, %d fragments", err, len(res.Fragments))
	}
	for i := range res.Fragments {
		if f := res.Fragments[i]; f.Score != res.Fragments[0].Score {
			t.Fatalf("fragment %d scores %v, fragment 0 %v: want a page of one tied score", i, f.Score, res.Fragments[0].Score)
		}
	}
	full, err := e.Search(context.Background(), Request{Query: "alpha beta", Semantics: SLCAOnly, Rank: true})
	if err != nil {
		t.Fatal(err)
	}
	requireSameFragments(t, "tied page", full.Fragments[:10], res.Fragments)
}

// TestPausedStreamKeepsItsRoots holds the candidate stage's pooled roots to
// the request that borrowed them: a ranked stream=1 page defers its keyword
// events, and each of its candidates hydrates them from the stage's root
// column when the iterator reaches it. The iterator is paused mid-page
// while this goroutine and others run cold pages of other queries, which
// take the same pooled scratch; resumed, the stream must still yield the
// fragments a fresh Search returns. It would not if the stage handed its
// scratch back before the request's materialize loop ended.
func TestPausedStreamKeepsItsRoots(t *testing.T) {
	e := FromTree(paperTree(400))
	others := []Request{
		{Query: "beta gamma", Semantics: SLCAOnly, Rank: true, Limit: 5},
		{Query: "alpha gamma", Rank: true, Limit: 7},
		{Query: "gamma", Semantics: SLCAOnly, Limit: 3},
	}
	for _, req := range []Request{
		{Query: blockQuery, Semantics: SLCAOnly, Rank: true, Limit: 40},
		{Query: blockQuery, Rank: true, Limit: 40},
		{Query: blockQuery, Semantics: SLCAOnly, Limit: 40, Offset: 200},
	} {
		want, err := e.Search(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		for round := range 8 {
			seq, _ := e.Stream(context.Background(), req)
			next, stop := iter.Pull2(seq)
			var got []*Fragment
			pull := func(n int) {
				for range n {
					f, err, ok := next()
					if !ok || err != nil {
						t.Fatalf("round %d: stream ended early (%v)", round, err)
					}
					got = append(got, f)
				}
			}
			pull(1 + round)
			var wg sync.WaitGroup
			for g := range 2 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for _, o := range others {
						if _, err := e.Search(context.Background(), o); err != nil {
							t.Errorf("goroutine %d: %v", g, err)
						}
					}
				}()
			}
			for _, o := range others {
				if _, err := e.Search(context.Background(), o); err != nil {
					t.Fatal(err)
				}
			}
			wg.Wait()
			pull(len(want.Fragments) - len(got))
			stop()
			requireSameFragments(t, fmt.Sprintf("%+v round %d", req, round), want.Fragments, got)
		}
	}
}
