package xks

import (
	"context"
	"path/filepath"
	"testing"

	"xks/internal/analysis"
	"xks/internal/datagen"
	"xks/internal/paperdata"
	"xks/internal/store"
)

// assertSameResults pins two engines' search results identical for one
// request: fragment headers and node lists, and with rendered set also each
// node's text and the rendered XML, ASCII and snippet.
func assertSameResults(t *testing.T, label string, want, got *Engine, req Request, rendered bool) {
	t.Helper()
	a, err := want.Search(context.Background(), req)
	if err != nil {
		t.Fatalf("%s: reference search: %v", label, err)
	}
	b, err := got.Search(context.Background(), req)
	if err != nil {
		t.Fatalf("%s: search: %v", label, err)
	}
	if a.Stats.NumLCAs != b.Stats.NumLCAs || len(a.Fragments) != len(b.Fragments) {
		t.Fatalf("%s: %d/%d vs %d/%d fragments/LCAs", label, len(a.Fragments), a.Stats.NumLCAs, len(b.Fragments), b.Stats.NumLCAs)
	}
	for i := range a.Fragments {
		fa, fb := a.Fragments[i], b.Fragments[i]
		if fa.Root != fb.Root || fa.RootLabel != fb.RootLabel || fa.IsSLCA != fb.IsSLCA || fa.Score != fb.Score {
			t.Fatalf("%s fragment %d: headers differ: %+v vs %+v", label, i, fa, fb)
		}
		if fa.Len() != fb.Len() {
			t.Fatalf("%s fragment %d: %d vs %d nodes", label, i, fa.Len(), fb.Len())
		}
		for j := range fa.Nodes {
			if !sameNode(fa, fb, j) || (rendered && fa.NodeText(j) != fb.NodeText(j)) {
				t.Fatalf("%s fragment %d node %d: %s vs %s", label, i, j, nodeFacts(fa, j), nodeFacts(fb, j))
			}
		}
		if rendered && (fa.XML() != fb.XML() || fa.ASCII() != fb.ASCII() || fa.Snippet() != fb.Snippet()) {
			t.Fatalf("%s fragment %d: renders differ:\n%s%s%q\n----\n%s%s%q", label, i, fa.XML(), fa.ASCII(), fa.Snippet(), fb.XML(), fb.ASCII(), fb.Snippet())
		}
	}
}

// TestMmapCrosscheck pins every store backing — shredded in memory (never
// persisted), v3-heap and v3-mmap — to the tree-backed engine over the same
// document, for every algorithm and both semantics, on a corpus large
// enough to exercise multi-block compressed postings, answers and renders
// alike.
func TestMmapCrosscheck(t *testing.T) {
	tree := datagen.DBLP(datagen.DBLPConfig{Seed: 11, NumRecords: 300, Keywords: []datagen.KeywordSpec{
		{Word: "xml", Count: 160}, {Word: "keyword", Count: 90}, {Word: "search", Count: 40},
	}})
	shredded := store.Shred(tree, analysis.New())
	path := filepath.Join(t.TempDir(), "dblp.xks")
	if err := shredded.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	ref := FromTree(tree)
	inMemory := FromStore(shredded)
	heapSt, err := store.OpenFile(path, store.OpenOptions{Mode: store.OpenHeap})
	if err != nil {
		t.Fatal(err)
	}
	heap := FromStore(heapSt)
	defer heap.Close()
	engines := map[string]*Engine{"shred": inMemory, "v3-heap": heap}
	if mode := heapSt.Mode(); mode != "v3-heap" {
		t.Fatalf("heap engine mode %q", mode)
	}
	mappedSt, err := store.OpenFile(path, store.OpenOptions{Mode: store.OpenMmap})
	if err == nil {
		mapped := FromStore(mappedSt)
		defer mapped.Close()
		if mode, n := mappedSt.Mode(), mappedSt.MappedBytes(); mode != "v3-mmap" || n == 0 {
			t.Fatalf("mmap engine mode %q, %d mapped bytes", mode, n)
		}
		engines["v3-mmap"] = mapped
	} else {
		t.Logf("mmap unavailable on this platform: %v", err)
	}
	queries := []string{"xml keyword", "xml keyword search", "xml"}
	for name, e := range engines {
		for _, q := range queries {
			for _, algo := range []Algorithm{ValidRTF, MaxMatch, RawRTF} {
				for _, sem := range []Semantics{AllLCA, SLCAOnly} {
					req := Request{Query: q, Algorithm: algo, Semantics: sem}
					label := name + "/" + q + "/" + algo.String() + "/" + sem.String()
					assertSameResults(t, label, ref, e, req, true)
				}
			}
		}
	}
}

// TestOpenStoreLazyDecode is the acceptance check for the disk-native open
// path: opening a v3 store (and building its engine, scorer and planner
// statistics) decodes no posting list; the first k-keyword search decodes
// exactly the k lists it touches.
func TestOpenStoreLazyDecode(t *testing.T) {
	s := store.Shred(paperdata.Publications(), analysis.New())
	path := filepath.Join(t.TempDir(), "paper.xks")
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	e, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if mode := e.st.Mode(); mode != "v3-mmap" && mode != "v3-heap" {
		t.Fatalf("v3 open produced mode %q", mode)
	}
	if n := e.Index().DecodedLists(); n != 0 {
		t.Fatalf("open decoded %d posting lists eagerly, want 0", n)
	}
	if _, err := e.Search(context.Background(), Request{Query: "xml keyword"}); err != nil {
		t.Fatal(err)
	}
	if n := e.Index().DecodedLists(); n != 2 {
		t.Fatalf("2-keyword search decoded %d lists, want 2", n)
	}
}
