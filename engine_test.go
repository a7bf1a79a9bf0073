package xks

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"xks/internal/datagen"
	"xks/internal/dewey"
	"xks/internal/exec"
	"xks/internal/rank"
	"xks/internal/reference"
	"xks/internal/xmltree"
)

func pubEngine(t *testing.T) *Engine {
	t.Helper()
	return FromTree(reference.Publications())
}

func teamEngine(t *testing.T) *Engine {
	t.Helper()
	return FromTree(reference.Team())
}

func fragmentRoots(res *Result) []string {
	out := make([]string, len(res.Fragments))
	for i, f := range res.Fragments {
		out[i] = f.Root
	}
	return out
}

func TestSearchQ3DefaultValidRTF(t *testing.T) {
	e := pubEngine(t)
	res, err := e.Search(context.Background(), Request{Query: reference.Q3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fragments) != 1 {
		t.Fatalf("fragments = %v", fragmentRoots(res))
	}
	f := res.Fragments[0]
	if f.Root != "0" || f.RootLabel != "Publications" || !f.IsSLCA {
		t.Errorf("fragment header = %+v", f)
	}
	// Figure 2(d): 8 nodes, article 0.2.1 branch pruned.
	if f.Len() != 8 {
		t.Errorf("kept %d nodes, want 8:\n%s", f.Len(), f.ASCII())
	}
	if f.Contains("0.2.1") || f.Contains("0.2.1.1") {
		t.Error("pruned branch leaked into result")
	}
	if !f.Contains("0.2.0.3.0") {
		t.Error("ref node missing")
	}
	if got := len(res.Stats.Keywords); got != 5 {
		t.Errorf("keywords = %v", res.Stats.Keywords)
	}
	// 1 (vldb) + 3 (title) + 3 (xml) + 3 (keyword) + 3 (search) postings.
	if res.Stats.NumLCAs != 1 || res.Stats.KeywordNodes != 13 {
		t.Errorf("stats = %+v", res.Stats)
	}
	if res.Stats.Elapsed <= 0 {
		t.Error("Elapsed not recorded")
	}
}

func TestSearchQ3MaxMatch(t *testing.T) {
	e := pubEngine(t)
	res, err := e.Search(context.Background(), Request{Query: reference.Q3, Algorithm: MaxMatch})
	if err != nil {
		t.Fatal(err)
	}
	f := res.Fragments[0]
	if f.Len() != 5 {
		t.Errorf("MaxMatch kept %d nodes, want 5:\n%s", f.Len(), f.ASCII())
	}
	if f.Contains("0.2.0.2") {
		t.Error("MaxMatch should discard the abstract under contributor filtering")
	}
}

func TestSearchQ3Raw(t *testing.T) {
	e := pubEngine(t)
	res, err := e.Search(context.Background(), Request{Query: reference.Q3, Algorithm: RawRTF})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fragments[0].Len() != 10 {
		t.Errorf("raw RTF has %d nodes, want 10", res.Fragments[0].Len())
	}
}

func TestSearchQ2TwoFragments(t *testing.T) {
	e := pubEngine(t)
	res, err := e.Search(context.Background(), Request{Query: reference.Q2})
	if err != nil {
		t.Fatal(err)
	}
	roots := fragmentRoots(res)
	if strings.Join(roots, " ") != "0.2.0 0.2.0.3.0" {
		t.Fatalf("roots = %v", roots)
	}
	if res.Fragments[0].IsSLCA || !res.Fragments[1].IsSLCA {
		t.Error("SLCA flags wrong")
	}
}

func TestSearchQ2SLCAOnly(t *testing.T) {
	e := pubEngine(t)
	res, err := e.Search(context.Background(), Request{Query: reference.Q2, Semantics: SLCAOnly})
	if err != nil {
		t.Fatal(err)
	}
	roots := fragmentRoots(res)
	if strings.Join(roots, " ") != "0.2.0.3.0" {
		t.Fatalf("SLCA-only roots = %v", roots)
	}
}

func TestSearchNoMatchKeywordYieldsEmpty(t *testing.T) {
	e := pubEngine(t)
	res, err := e.Search(context.Background(), Request{Query: "liu zebra"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fragments) != 0 {
		t.Errorf("fragments = %v", fragmentRoots(res))
	}
}

func TestSearchUnusableQueryErrors(t *testing.T) {
	e := pubEngine(t)
	if _, err := e.Search(context.Background(), Request{Query: "the of and"}); !errors.Is(err, ErrEmptyQuery) {
		t.Errorf("stop-word-only query: err = %v, want ErrEmptyQuery", err)
	}
	if _, err := e.Search(context.Background(), Request{Query: ""}); !errors.Is(err, ErrEmptyQuery) {
		t.Errorf("empty query: err = %v, want ErrEmptyQuery", err)
	}
	var b strings.Builder
	for i := 0; i < 65; i++ {
		fmt.Fprintf(&b, "kw%d ", i)
	}
	long := b.String()
	if _, err := e.Search(context.Background(), Request{Query: long}); !errors.Is(err, ErrTooManyTerms) {
		t.Errorf("65-term query: err = %v, want ErrTooManyTerms", err)
	}
}

func TestSearchRankOrdersBySpecificity(t *testing.T) {
	e := pubEngine(t)
	res, err := e.Search(context.Background(), Request{Query: reference.Q2, Rank: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fragments) != 2 {
		t.Fatal("want 2 fragments")
	}
	// The ref fragment matches both keywords at its root; it outranks the
	// article fragment whose occurrences are deeper.
	if res.Fragments[0].Root != "0.2.0.3.0" {
		t.Errorf("top-ranked fragment = %s (scores %v, %v)",
			res.Fragments[0].Root, res.Fragments[0].Score, res.Fragments[1].Score)
	}
	if res.Fragments[0].Score <= res.Fragments[1].Score {
		t.Errorf("scores not descending: %v, %v", res.Fragments[0].Score, res.Fragments[1].Score)
	}
}

func TestSearchLimit(t *testing.T) {
	e := pubEngine(t)
	res, err := e.Search(context.Background(), Request{Query: reference.Q2, Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fragments) != 1 {
		t.Errorf("Limit ignored: %d fragments", len(res.Fragments))
	}
}

func TestFragmentRendering(t *testing.T) {
	e := teamEngine(t)
	res, err := e.Search(context.Background(), Request{Query: reference.Q4})
	if err != nil {
		t.Fatal(err)
	}
	f := res.Fragments[0]
	ascii := f.ASCII()
	if !strings.Contains(ascii, "0.1.0 (player)") || strings.Contains(ascii, "0.1.2") {
		t.Errorf("ASCII rendering wrong:\n%s", ascii)
	}
	xmlOut := f.XML()
	if !strings.Contains(xmlOut, "<team>") || !strings.Contains(xmlOut, "guard") {
		t.Errorf("XML rendering wrong:\n%s", xmlOut)
	}
	if strings.Contains(xmlOut, "Warrick") {
		t.Errorf("pruned player leaked into XML:\n%s", xmlOut)
	}
}

func TestFragmentNodeMetadata(t *testing.T) {
	e := teamEngine(t)
	res, err := e.Search(context.Background(), Request{Query: reference.Q4})
	if err != nil {
		t.Fatal(err)
	}
	f := res.Fragments[0]
	var kns []int
	for i, n := range f.Nodes {
		if n.IsKeywordNode() {
			kns = append(kns, i)
		}
	}
	if len(kns) != 3 {
		t.Fatalf("keyword nodes = %v", kns)
	}
	if first := kns[0]; f.Nodes[first].Dewey != "0.0" || !slices.Equal(f.NodeMatched(first), []string{"grizzlies"}) {
		t.Errorf("first keyword node = %s", nodeFacts(f, first))
	}
	for i, n := range f.Nodes {
		if f.NodeLevel(i) != len(strings.Split(n.Dewey, "."))-1 {
			t.Errorf("level mismatch for %s", n.Dewey)
		}
	}
	if f.Contains("not a dewey") {
		t.Error("Contains on malformed code should be false")
	}
}

func TestCompareQ4(t *testing.T) {
	e := teamEngine(t)
	cmp, err := e.Compare(context.Background(), Request{Query: reference.Q4})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.NumRTFs != 1 {
		t.Fatalf("NumRTFs = %d", cmp.NumRTFs)
	}
	// ValidRTF prunes the duplicate forward player (2 of 9 nodes).
	if cmp.Ratios.CFR != 0 {
		t.Errorf("CFR = %v, want 0", cmp.Ratios.CFR)
	}
	want := 2.0 / 9.0
	if diff := cmp.Ratios.MaxAPR - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("MaxAPR = %v, want %v", cmp.Ratios.MaxAPR, want)
	}
	if cmp.ValidElapsed <= 0 || cmp.MaxElapsed <= 0 {
		t.Error("elapsed times not recorded")
	}
}

func TestCompareQ5Identical(t *testing.T) {
	e := teamEngine(t)
	cmp, err := e.Compare(context.Background(), Request{Query: reference.Q5})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Ratios.CFR != 1 {
		t.Errorf("CFR = %v, want 1 (both mechanisms agree on Q5)", cmp.Ratios.CFR)
	}
}

// TestCompareIgnoresPagination: Compare's ratios cover every fragment
// whatever the request's page, so a limit must not leave the candidates
// without their keyword events (a bounded page defers them) and every
// fragment pruned to its bare root.
func TestCompareIgnoresPagination(t *testing.T) {
	e := FromTree(paperTree(20))
	want, err := e.Compare(context.Background(), Request{Query: blockQuery})
	if err != nil {
		t.Fatal(err)
	}
	if want.Ratios.CFR == 1 {
		t.Fatalf("ratios %+v: the papers must prune differently under the two mechanisms", want.Ratios)
	}
	for _, req := range []Request{{Query: blockQuery, Limit: 5}, {Query: blockQuery, Rank: true, Limit: 5}} {
		got, err := e.Compare(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if got.NumRTFs != want.NumRTFs || got.Ratios != want.Ratios {
			t.Errorf("Compare(limit=%d rank=%v) = %d RTFs %+v, want %d %+v", req.Limit, req.Rank,
				got.NumRTFs, got.Ratios, want.NumRTFs, want.Ratios)
		}
	}
}

func TestCompareNoMatch(t *testing.T) {
	e := teamEngine(t)
	cmp, err := e.Compare(context.Background(), Request{Query: "zebra position"})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.NumRTFs != 0 || cmp.Ratios.CFR != 1 {
		t.Errorf("cmp = %+v", cmp)
	}
}

func TestLoadVariants(t *testing.T) {
	xml := `<a><b>hello keyword</b><c>keyword world</c></a>`
	e1, err := LoadString(xml)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e1.Search(context.Background(), Request{Query: "hello world"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fragments) != 1 || res.Fragments[0].Root != "0" {
		t.Errorf("fragments = %v", fragmentRoots(res))
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "doc.xml")
	if err := os.WriteFile(path, []byte(xml), 0o644); err != nil {
		t.Fatal(err)
	}
	e2, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := e2.Index().NumNodes(); n != 3 {
		t.Errorf("%d nodes, want 3", n)
	}
	if _, err := LoadFile(filepath.Join(dir, "absent.xml")); err == nil {
		t.Error("LoadFile on absent path should fail")
	}
	if _, err := LoadString("not xml"); err == nil {
		t.Error("LoadString on garbage should fail")
	}
}

// TestTreeBridge: Tree of a loaded engine is the parsed document — node for
// node its Dewey code, label, attributes and text — and it stays so across
// tail appends, which extend the tree Tree returned, whichever of them come
// before Tree's first call.
func TestTreeBridge(t *testing.T) {
	var dblp strings.Builder
	if err := xmltree.WriteXML(&dblp, datagen.DBLP(datagen.DBLPConfig{Seed: 2, NumRecords: 40}).Root); err != nil {
		t.Fatal(err)
	}
	recs := []string{
		`<article key="a&amp;b"><title>xml &lt;keyword&gt; search</title><empty/></article>`,
		newLabelRecord,
	}
	for name, doc := range map[string]string{"renderDoc": renderDoc, "dblp": dblp.String()} {
		e, err := LoadString(doc)
		if err != nil {
			t.Fatal(err)
		}
		want, err := xmltree.ParseString(doc)
		if err != nil {
			t.Fatal(err)
		}
		appendBoth := func(rec string) {
			t.Helper()
			if err := e.AppendXML("0", rec); err != nil {
				t.Fatal(err)
			}
			sub, err := xmltree.ParseString(rec)
			if err != nil {
				t.Fatal(err)
			}
			if err := want.AppendChild(dewey.Code{0}, sub.Root); err != nil {
				t.Fatal(err)
			}
		}
		appendBoth(recs[0])
		tree := e.Tree()
		sameTree(t, name+" after an append", tree, want)
		appendBoth(recs[1])
		if e.Tree() != tree {
			t.Fatalf("%s: Tree returned a new tree after an append", name)
		}
		sameTree(t, name+" after two appends", tree, want)
	}
}

// sameTree fails unless got and want hold the same nodes in pre-order:
// Dewey code, label, attributes and text.
func sameTree(t *testing.T, label string, got, want *xmltree.Tree) {
	t.Helper()
	g, w := got.Nodes(), want.Nodes()
	if len(g) != len(w) || got.Size() != want.Size() {
		t.Fatalf("%s: %d nodes (size %d), want %d", label, len(g), got.Size(), len(w))
	}
	for i, n := range w {
		if m := g[i]; !dewey.Equal(m.Code, n.Code) || m.Label != n.Label || m.Text != n.Text || !slices.Equal(m.Attrs, n.Attrs) {
			t.Fatalf("%s: node %d is %s %q %v, want %s %q %v", label, i, m, m.Text, m.Attrs, n, n.Text, n.Attrs)
		}
	}
}

func TestEngineAccessors(t *testing.T) {
	e := pubEngine(t)
	if e.Index() == nil {
		t.Error("nil accessors")
	}
	if e.Index().Frequency("keyword") != 3 {
		t.Error("index not built")
	}
}

func TestAlgorithmAndSemanticsStrings(t *testing.T) {
	if ValidRTF.String() != "ValidRTF" || MaxMatch.String() != "MaxMatch" || RawRTF.String() != "RawRTF" {
		t.Error("Algorithm.String broken")
	}
	if Algorithm(9).String() == "" {
		t.Error("unknown algorithm string empty")
	}
	if AllLCA.String() != "AllLCA" || SLCAOnly.String() != "SLCAOnly" {
		t.Error("Semantics.String broken")
	}
}

func TestConcurrentSearches(t *testing.T) {
	e := pubEngine(t)
	queries := []string{reference.Q1, reference.Q2, reference.Q3, reference.QLiuKeyword}
	done := make(chan error, len(queries)*8)
	for i := 0; i < 8; i++ {
		for _, q := range queries {
			go func(q string) {
				_, err := e.Search(context.Background(), Request{Query: q, Rank: true})
				done <- err
			}(q)
		}
	}
	for i := 0; i < len(queries)*8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestExactContentOption(t *testing.T) {
	tree := xmltree.Build(xmltree.E{Label: "root", Kids: []xmltree.E{
		{Label: "tag", Text: "special"},
		{Label: "item", Text: "alpha keyword zebra"},
		{Label: "item", Text: "alpha keyword middle zebra"},
	}})
	e := FromTree(tree)
	approx, err := e.Search(context.Background(), Request{Query: "special keyword"})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := e.Search(context.Background(), Request{Query: "special keyword", ExactContent: true})
	if err != nil {
		t.Fatal(err)
	}
	if approx.Fragments[0].Len() >= exact.Fragments[0].Len() {
		t.Errorf("exact mode should keep more nodes here: approx %d, exact %d",
			approx.Fragments[0].Len(), exact.Fragments[0].Len())
	}
}

func TestFragmentSnippet(t *testing.T) {
	e := pubEngine(t)
	res, err := e.Search(context.Background(), Request{Query: reference.Q2})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Fragments {
		sn := f.Snippet()
		if !strings.Contains(sn, "[") || !strings.Contains(sn, "]") {
			t.Errorf("fragment %s snippet has no highlights: %q", f.Root, sn)
		}
		lower := strings.ToLower(sn)
		if !strings.Contains(lower, "liu") || !strings.Contains(lower, "keyword") {
			t.Errorf("fragment %s snippet misses keywords: %q", f.Root, sn)
		}
	}
}

func TestFragmentSnippetStoreBacked(t *testing.T) {
	e := storeEngine(t)
	res, err := e.Search(context.Background(), Request{Query: reference.Q2})
	if err != nil {
		t.Fatal(err)
	}
	sn := res.Fragments[0].Snippet()
	if !strings.Contains(strings.ToLower(sn), "[liu]") {
		t.Errorf("store-backed snippet = %q", sn)
	}
}

// assembledFragments reports how many fragments the engine has materialized
// since construction, the observable half of the late-materialization
// contract.
func (e *Engine) assembledFragments() uint64 { return e.assembled.Load() }

// plan, params and currentScorer are the snapshot-free shims over the
// newest state, serving in-package tests that exercise one pipeline stage
// in isolation. The returned structures stay valid after the pin is
// released — pinning is accounting, not lifetime (the garbage collector
// owns the memory).

func (e *Engine) plan(queryText string) (exec.Plan, error) {
	v := e.currentView()
	defer v.release()
	return e.planAt(v, queryText)
}

func (e *Engine) params(req Request) exec.Params {
	v := e.currentView()
	defer v.release()
	return e.paramsAt(v, req)
}

func (e *Engine) currentScorer() *rank.Scorer {
	v := e.currentView()
	defer v.release()
	return v.scorer
}
