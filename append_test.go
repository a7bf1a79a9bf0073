package xks

import (
	"context"
	"strings"
	"testing"

	"xks/internal/paperdata"
	"xks/internal/xmltree"
)

// AppendXML makes the new content searchable and produces exactly the same
// results as rebuilding the engine from scratch.
func TestAppendXMLMatchesRebuild(t *testing.T) {
	incremental := FromTree(paperdata.Publications())
	snippet := `<article>
	  <authors><author><name>Kong Liu</name></author></authors>
	  <title>Relaxed Tightest Fragments for keyword search</title>
	</article>`
	if err := incremental.AppendXML("0.2", snippet); err != nil {
		t.Fatal(err)
	}

	rebuilt := paperdata.Publications()
	sub, err := xmltree.ParseString(snippet)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rebuilt.AppendChild(mustCode(t, "0.2"), toE(sub.Root)); err != nil {
		t.Fatal(err)
	}
	reference := FromTree(rebuilt)

	for _, q := range []string{paperdata.Q2, paperdata.Q3, "kong keyword", "liu keyword search"} {
		a, errA := incremental.Search(context.Background(), Request{Query: q, Rank: true})
		b, errB := reference.Search(context.Background(), Request{Query: q, Rank: true})
		if errA != nil || errB != nil {
			t.Fatalf("%q: %v / %v", q, errA, errB)
		}
		if len(a.Fragments) != len(b.Fragments) {
			t.Fatalf("%q: %d vs %d fragments", q, len(a.Fragments), len(b.Fragments))
		}
		for i := range a.Fragments {
			if a.Fragments[i].Root != b.Fragments[i].Root || a.Fragments[i].Len() != b.Fragments[i].Len() {
				t.Errorf("%q fragment %d: %s/%d vs %s/%d", q, i,
					a.Fragments[i].Root, a.Fragments[i].Len(),
					b.Fragments[i].Root, b.Fragments[i].Len())
			}
		}
	}
}

func mustCode(t *testing.T, s string) (c []uint32) {
	t.Helper()
	for _, part := range strings.Split(s, ".") {
		n := 0
		for _, r := range part {
			n = n*10 + int(r-'0')
		}
		c = append(c, uint32(n))
	}
	return c
}

func toE(n *xmltree.Node) xmltree.E { return treeToE(n) }

func TestAppendXMLNewKeywordBecomesSearchable(t *testing.T) {
	e := FromTree(paperdata.Team())
	if res, _ := e.Search(context.Background(), Request{Query: "conley position"}); res != nil && len(res.Fragments) != 0 {
		t.Fatal("conley should not match before append")
	}
	err := e.AppendXML("0.1", `<player><name>Conley</name><position>guard</position></player>`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Search(context.Background(), Request{Query: "conley position"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fragments) != 1 || res.Fragments[0].Root != "0.1.3" {
		t.Fatalf("fragments = %+v", fragmentRoots(res))
	}
	if e.Tree().Size() != 12+3 {
		t.Errorf("tree size = %d", e.Tree().Size())
	}
}

func TestAppendXMLErrors(t *testing.T) {
	e := FromTree(paperdata.Team())
	if err := e.AppendXML("9.9", `<x/>`); err == nil {
		t.Error("append under missing parent should fail")
	}
	if err := e.AppendXML("not-a-code", `<x/>`); err == nil {
		t.Error("malformed parent code should fail")
	}
	if err := e.AppendXML("0", `not xml`); err == nil {
		t.Error("malformed snippet should fail")
	}
	se := storeEngine(t)
	if err := se.AppendXML("0", `<x/>`); err == nil {
		t.Error("store-backed append should fail")
	}
}

// Repeated appends keep data monotonicity: fragment counts never decrease
// for a fixed query.
func TestAppendXMLMonotone(t *testing.T) {
	e := FromTree(paperdata.Team())
	prev := 0
	for i := 0; i < 5; i++ {
		res, err := e.Search(context.Background(), Request{Query: "grizzlies position"})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Fragments) < prev {
			t.Fatalf("append %d: results dropped from %d to %d", i, prev, len(res.Fragments))
		}
		prev = len(res.Fragments)
		err = e.AppendXML("0.1", `<player><name>New</name><position>center</position></player>`)
		if err != nil {
			t.Fatal(err)
		}
	}
}
