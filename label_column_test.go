package xks

import (
	"context"
	"slices"
	"strings"
	"testing"

	"xks/internal/analysis"
	"xks/internal/dewey"
	"xks/internal/reference"
	"xks/internal/store"
	"xks/internal/xmltree"
)

// newLabelRecord names elements the publications document has never seen:
// appending it grows the label dictionary, and its two equal Note siblings
// reach rule 2(b) through the new labels' IDs.
const newLabelRecord = `<Errata><Note>xml keyword erratum</Note><erratum><Note>keyword search fix</Note><Note>keyword search fix</Note></erratum></Errata>`

var newLabelQueries = []string{"keyword", "xml keyword", "note:keyword", "liu keyword search"}

// reloaded loads afresh the document doc becomes with recs appended under
// its root, serialized: the engine a document holding the appended records
// from the start would have. doc is not modified.
func reloaded(t *testing.T, doc *xmltree.Tree, recs ...string) *Engine {
	t.Helper()
	doc = doc.Clone()
	for _, rec := range recs {
		sub, err := xmltree.ParseString(rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := doc.AppendChild(dewey.Code{0}, sub.Root); err != nil {
			t.Fatal(err)
		}
	}
	var b strings.Builder
	if err := xmltree.WriteXML(&b, doc.Root); err != nil {
		t.Fatal(err)
	}
	fresh, err := LoadString(b.String())
	if err != nil {
		t.Fatal(err)
	}
	return fresh
}

// labelRequests crosses the new-label queries with ELCA/SLCA × ValidRTF/MaxMatch.
func labelRequests() []Request {
	var out []Request
	for _, q := range newLabelQueries {
		for _, sem := range []Semantics{AllLCA, SLCAOnly} {
			for _, algo := range []Algorithm{ValidRTF, MaxMatch} {
				out = append(out, Request{Query: q, Semantics: sem, Algorithm: algo})
			}
		}
	}
	return out
}

// sameFragments fails unless got holds want's fragments, node for node:
// Dewey, label, text, level and matched keywords, and the rendered XML.
func sameFragments(t *testing.T, label string, want, got []*Fragment) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d fragments, want %d", label, len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Root != w.Root || g.RootLabel != w.RootLabel || g.IsSLCA != w.IsSLCA || len(g.Nodes) != len(w.Nodes) {
			t.Fatalf("%s fragment %d: %s %s/%d nodes, want %s %s/%d", label, i, g.Root, g.RootLabel, len(g.Nodes), w.Root, w.RootLabel, len(w.Nodes))
		}
		for j := range w.Nodes {
			if !sameNode(g, w, j) || g.NodeText(j) != w.NodeText(j) {
				t.Fatalf("%s fragment %d node %d: %s, want %s", label, i, j, nodeFacts(g, j), nodeFacts(w, j))
			}
		}
		if g.XML() != w.XML() {
			t.Fatalf("%s fragment %d: XML\n%s\nwant\n%s", label, i, g.XML(), w.XML())
		}
	}
}

func engineFragments(t *testing.T, e *Engine, req Request) []*Fragment {
	t.Helper()
	res, err := e.Search(context.Background(), req)
	if err != nil {
		t.Fatalf("Search(%q): %v", req.Query, err)
	}
	return res.Fragments
}

// TestAppendNewLabelMatchesFreshLoad: a tail append of a record whose element
// names the document has never seen — interned at the dictionary's tail —
// answers every search exactly as a fresh load of the serialized tree does,
// on the engine, through a Corpus, and after compaction.
func TestAppendNewLabelMatchesFreshLoad(t *testing.T) {
	e := FromTree(reference.Publications())
	c := NewCorpus()
	c.Add("pubs", FromTree(reference.Publications()))
	if res := engineFragments(t, e, Request{Query: "note:keyword"}); len(res) != 0 {
		t.Fatalf("note:keyword matches %d fragments before the append", len(res))
	}
	if err := e.AppendXML("0", newLabelRecord); err != nil {
		t.Fatal(err)
	}
	if err := c.AppendXML("pubs", "0", newLabelRecord); err != nil {
		t.Fatal(err)
	}
	want := reloaded(t, reference.Publications(), newLabelRecord)
	check := func(stage string) {
		t.Helper()
		for _, req := range labelRequests() {
			wantFrags := engineFragments(t, want, req)
			if req.Query == "note:keyword" && len(wantFrags) == 0 {
				t.Fatal("note:keyword matches nothing in the appended record")
			}
			label := stage + " " + req.Query + " " + req.Semantics.String() + " " + req.Algorithm.String()
			sameFragments(t, "engine "+label, wantFrags, engineFragments(t, e, req))
			res, err := c.Search(context.Background(), req)
			if err != nil {
				t.Fatalf("corpus %s: %v", label, err)
			}
			var got []*Fragment
			for _, f := range res.Fragments {
				got = append(got, f.Fragment)
			}
			sameFragments(t, "corpus "+label, wantFrags, got)
		}
	}
	check("appended")
	if _, err := e.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	check("compacted")
}

// TestLabelPredicateMatchesEachDictionaryLabel: a label predicate is matched
// against the dictionary, case-insensitively, so it keeps the postings of
// every label equal to it up to case — here two labels that differ only in
// case — on the tree and the store alike, and it sees a label that only an
// appended record carries.
func TestLabelPredicateMatchesEachDictionaryLabel(t *testing.T) {
	const doc = `<lib><Book><BookTitle>xml keyword</BookTitle><booktitle>xml streams</booktitle><year>xml 2009</year></Book></lib>`
	e, err := LoadString(doc)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := xmltree.ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	st := FromStore(store.Shred(tree, analysis.New()))
	for _, eng := range []*Engine{e, st} {
		var roots, labels []string
		for _, f := range engineFragments(t, eng, Request{Query: "BOOKTITLE:xml"}) {
			roots, labels = append(roots, f.Root), append(labels, f.RootLabel)
		}
		if !slices.Equal(roots, []string{"0.0.0", "0.0.1"}) || !slices.Equal(labels, []string{"BookTitle", "booktitle"}) {
			t.Fatalf("BOOKTITLE:xml roots %v labelled %v, want 0.0.0 BookTitle and 0.0.1 booktitle", roots, labels)
		}
	}
	if got := engineFragments(t, e, Request{Query: "remark:xml"}); len(got) != 0 {
		t.Fatalf("remark:xml matches %d fragments before any Remark exists", len(got))
	}
	if err := e.AppendXML("0", `<Book><Remark>xml erratum</Remark></Book>`); err != nil {
		t.Fatal(err)
	}
	got := engineFragments(t, e, Request{Query: "remark:xml"})
	if len(got) != 1 || got[0].Root != "0.1.0" || got[0].RootLabel != "Remark" {
		t.Fatalf("remark:xml after the append: %d fragments %v, want the appended Remark 0.1.0", len(got), fragmentRootsOf(got))
	}
}

func fragmentRootsOf(frags []*Fragment) []string {
	var out []string
	for _, f := range frags {
		out = append(out, f.Root)
	}
	return out
}
