package xks

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"

	"xks/internal/analysis"
	"xks/internal/datagen"
	"xks/internal/reference"
	"xks/internal/store"
	"xks/internal/xmltree"
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

// reopened is the file round trip of the in-memory store st: st saved,
// the file opened in mode and an engine built over it, closed when the
// test ends. OpenMmap skips the test on a platform that cannot map.
func reopened(t testing.TB, st *store.Store, mode store.OpenMode) *Engine {
	t.Helper()
	path := filepath.Join(t.TempDir(), "doc.xks")
	if err := st.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	opened, err := store.OpenFile(path, store.OpenOptions{Mode: mode})
	if err != nil {
		if mode == store.OpenMmap {
			t.Skipf("no mmap on this platform: %v", err)
		}
		t.Fatal(err)
	}
	e := FromStore(opened)
	t.Cleanup(func() { e.Close() })
	return e
}

// TestMmapCrosscheck pins the file round trips of an in-memory store —
// v3-heap and v3-mmap — to the engine over the image itself, for every
// algorithm and both semantics, on a corpus large enough to exercise
// multi-block compressed postings, answers and renders alike.
func TestMmapCrosscheck(t *testing.T) {
	tree := datagen.DBLP(datagen.DBLPConfig{Seed: 11, NumRecords: 300, Keywords: []datagen.KeywordSpec{
		{Word: "xml", Count: 160}, {Word: "keyword", Count: 90}, {Word: "search", Count: 40},
	}})
	image := store.Shred(tree, analysis.New())
	ref := FromStore(image)
	engines := map[string]*Engine{"v3-heap": reopened(t, image, store.OpenHeap), "v3-mmap": reopened(t, image, store.OpenMmap)}
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
// path, and for Load, which opens a store built in memory: building the
// engine (its index, scorer and planner statistics) decodes no posting
// list; the first k-keyword search decodes exactly the k lists it touches.
func TestOpenStoreLazyDecode(t *testing.T) {
	s := store.Shred(reference.Publications(), analysis.New())
	path := filepath.Join(t.TempDir(), "paper.xks")
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	st, err := store.OpenFile(path, store.OpenOptions{Mode: store.OpenAuto})
	if err != nil {
		t.Fatal(err)
	}
	if mode := st.Mode(); mode != "v3-mmap" && mode != "v3-heap" {
		t.Fatalf("v3 open produced mode %q", mode)
	}
	opened := FromStore(st)
	defer opened.Close()
	var doc bytes.Buffer
	if err := xmltree.WriteXML(&doc, reference.Publications().Root); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&doc)
	if err != nil {
		t.Fatal(err)
	}
	for name, e := range map[string]*Engine{"OpenFile": opened, "Load": loaded} {
		if n := e.Index().DecodedLists(); n != 0 {
			t.Fatalf("%s: building the engine decoded %d posting lists eagerly, want 0", name, n)
		}
		if _, err := e.Search(context.Background(), Request{Query: "xml keyword"}); err != nil {
			t.Fatal(err)
		}
		if n := e.Index().DecodedLists(); n != 2 {
			t.Fatalf("%s: 2-keyword search decoded %d lists, want 2", name, n)
		}
	}
}
