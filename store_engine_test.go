package xks

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"xks/internal/analysis"
	"xks/internal/datagen"
	"xks/internal/dewey"
	"xks/internal/paperdata"
	"xks/internal/store"
	"xks/internal/xmltree"
)

func storeEngine(t *testing.T) *Engine {
	t.Helper()
	return FromStore(store.Shred(paperdata.Publications(), analysis.New()))
}

// Store-backed search returns exactly the same fragments (roots and kept
// node sets) as tree-backed search, across all paper queries and both
// algorithms.
func TestStoreBackedSearchMatchesTree(t *testing.T) {
	fromTree := FromTree(paperdata.Publications())
	fromStore := storeEngine(t)
	queries := []string{paperdata.Q1, paperdata.Q2, paperdata.Q3, paperdata.QLiuKeyword}
	for _, q := range queries {
		for _, algo := range []Algorithm{ValidRTF, MaxMatch, RawRTF} {
			opts := Request{Algorithm: algo}
			a, err := fromTree.Search(context.Background(), withQuery(opts, q))
			if err != nil {
				t.Fatalf("tree search %q: %v", q, err)
			}
			b, err := fromStore.Search(context.Background(), withQuery(opts, q))
			if err != nil {
				t.Fatalf("store search %q: %v", q, err)
			}
			if len(a.Fragments) != len(b.Fragments) {
				t.Fatalf("%q/%s: %d vs %d fragments", q, algo, len(a.Fragments), len(b.Fragments))
			}
			for i := range a.Fragments {
				fa, fb := a.Fragments[i], b.Fragments[i]
				if fa.Root != fb.Root || fa.RootLabel != fb.RootLabel || fa.IsSLCA != fb.IsSLCA {
					t.Errorf("%q/%s fragment %d: headers differ: %+v vs %+v", q, algo, i, fa, fb)
				}
				if fa.Len() != fb.Len() {
					t.Fatalf("%q/%s fragment %d: %d vs %d nodes\ntree:\n%s\nstore:\n%s",
						q, algo, i, fa.Len(), fb.Len(), fa.ASCII(), fb.ASCII())
				}
				for j := range fa.Nodes {
					if fa.Nodes[j].Dewey != fb.Nodes[j].Dewey || fa.NodeLabel(j) != fb.NodeLabel(j) {
						t.Errorf("%q/%s fragment %d node %d differs: %s vs %s",
							q, algo, i, j, nodeFacts(fa, j), nodeFacts(fb, j))
					}
				}
			}
		}
	}
}

// TestPreviousFormatStoreAnswersAsShred: a store file written while the
// format still carried a planner statistics section, and before it kept
// text and attributes, opens in every mode and answers the paper queries —
// fragments, scores, node facts — exactly as a fresh Shred of the same
// document does, and renders them as the document with empty text and no
// attributes: every NodeText is "", and XML and ASCII are the reference
// writers' over the document stripped of both.
func TestPreviousFormatStoreAnswersAsShred(t *testing.T) {
	fresh := storeEngine(t)
	bare := paperdata.Publications()
	bare.Walk(func(n *xmltree.Node) bool {
		n.Text, n.Attrs = "", nil
		return true
	})
	for _, mode := range []store.OpenMode{store.OpenAuto, store.OpenMmap, store.OpenHeap} {
		st, err := store.OpenFile(filepath.Join("internal", "store", "testdata", "publications-stats-section.xks"), store.OpenOptions{Mode: mode})
		if mode == store.OpenMmap && err != nil {
			continue // no mmap on this platform
		}
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		old := FromStore(st)
		for _, q := range []string{paperdata.Q1, paperdata.Q2, paperdata.Q3, paperdata.QLiuKeyword} {
			for _, opts := range crosscheckOptions() {
				label := fmt.Sprintf("%s %q %s/%s rank=%v limit=%d", st.Mode(), q, opts.Algorithm, opts.Semantics, opts.Rank, opts.Limit)
				assertSameResults(t, label, fresh, old, withQuery(opts, q), false)
				for _, f := range engineFragments(t, old, withQuery(opts, q)) {
					root := bare.NodeAt(f.v.snap.Table().Code(f.keptIDs[0]))
					if got, want := f.XML(), fragmentXML(root, keepMap(f)); got != want {
						t.Fatalf("%s fragment %s: XML\n%s\nwant\n%s", label, f.Root, got, want)
					}
					if got, want := f.ASCII(), asciiTree(root, keepMap(f)); got != want {
						t.Fatalf("%s fragment %s: ASCII\n%s\nwant\n%s", label, f.Root, got, want)
					}
					for i := range f.Nodes {
						if text := f.NodeText(i); text != "" {
							t.Fatalf("%s fragment %s node %d: text %q, want none", label, f.Root, i, text)
						}
					}
				}
			}
		}
		old.Close()
	}
}

// TestStoreBackedRendering: a store-backed fragment renders the document's
// text — in its XML, its ASCII tree and the snippet — exactly as
// the engine over the parsed document renders it.
func TestStoreBackedRendering(t *testing.T) {
	e, ref := storeEngine(t), FromTree(paperdata.Publications())
	res, err := e.Search(context.Background(), Request{Query: paperdata.Q3})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Search(context.Background(), Request{Query: paperdata.Q3})
	if err != nil || len(want.Fragments) != len(res.Fragments) {
		t.Fatalf("%v, err %v; want %d fragments", want, err, len(res.Fragments))
	}
	f, w := res.Fragments[0], want.Fragments[0]
	xmlOut, ascii := f.XML(), f.ASCII()
	if xmlOut != w.XML() || ascii != w.ASCII() || f.Snippet() != w.Snippet() {
		t.Fatalf("store rendering\n%s%s%q\nwant\n%s%s%q", xmlOut, ascii, f.Snippet(), w.XML(), w.ASCII(), w.Snippet())
	}
	if !strings.Contains(xmlOut, "<Publications>") || !strings.Contains(xmlOut, "</Publications>") || !strings.Contains(xmlOut, "<title>VLDB</title>") {
		t.Errorf("store XML rendering lacks the kept elements' text:\n%s", xmlOut)
	}
	if !strings.Contains(ascii, `(title) "VLDB"`) {
		t.Errorf("store ASCII rendering lacks the kept nodes' text:\n%s", ascii)
	}
	if strings.Contains(xmlOut, "Skyline") {
		t.Errorf("pruned branch leaked:\n%s", xmlOut)
	}
}

func TestOpenStoreRoundTrip(t *testing.T) {
	s := store.Shred(paperdata.Team(), analysis.New())
	path := filepath.Join(t.TempDir(), "team.xks")
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	e, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Search(context.Background(), Request{Query: paperdata.Q4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fragments) != 1 || res.Fragments[0].Len() != 7 {
		t.Errorf("fragments after store round trip: %d / %d nodes",
			len(res.Fragments), res.Fragments[0].Len())
	}
	if _, err := OpenStore(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("OpenStore on missing file should fail")
	}
}

func TestStoreBackedCompare(t *testing.T) {
	e := FromStore(store.Shred(paperdata.Team(), analysis.New()))
	cmp, err := e.Compare(context.Background(), Request{Query: paperdata.Q4})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Ratios.CFR != 0 || cmp.NumRTFs != 1 {
		t.Errorf("store-backed compare = %+v", cmp)
	}
}

// TestStoreRenderMatchesReference pins XML and WriteXML of store-backed
// fragments — small ones and one larger than the renderer's flush threshold
// — to the recursive reference writer (fragmentXML) over the shredded
// document, byte for byte.
func TestStoreRenderMatchesReference(t *testing.T) {
	tree := datagen.DBLP(datagen.DBLPConfig{
		Seed:       3,
		NumRecords: 1500,
		Keywords:   []datagen.KeywordSpec{{Word: "alpha", Count: 900}, {Word: "beta", Count: 900}},
	})
	st := store.Shred(tree, analysis.New())
	e := FromStore(st)
	res, err := e.Search(context.Background(), Request{Query: "alpha beta"})
	if err != nil {
		t.Fatal(err)
	}
	largest := 0
	for i, f := range res.Fragments {
		want := fragmentXML(tree.NodeAt(dewey.MustParse(f.Root)), keepMap(f))
		var streamed bytes.Buffer
		if err := f.WriteXML(&streamed); err != nil {
			t.Fatal(err)
		}
		if streamed.String() != want {
			t.Fatalf("fragment %d (%s): WriteXML differs from the reference:\n%s\n----\n%s", i, f.Root, streamed.String(), want)
		}
		if f.XML() != want {
			t.Fatalf("fragment %d (%s): XML differs from the reference", i, f.Root)
		}
		largest = max(largest, len(want))
	}
	if largest <= renderFlush {
		t.Fatalf("largest fragment renders to %d bytes; want one past the %d-byte flush threshold", largest, renderFlush)
	}
}
