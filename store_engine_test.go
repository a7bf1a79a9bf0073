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
	"xks/internal/nid"
	"xks/internal/paperdata"
	"xks/internal/reference"
	"xks/internal/store"
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
// format still carried a planner statistics section opens in every mode and
// answers the paper queries — fragments, scores, renders — exactly as a
// fresh Shred of the same document does.
func TestPreviousFormatStoreAnswersAsShred(t *testing.T) {
	fresh := storeEngine(t)
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
				assertSameResults(t, fmt.Sprintf("%s %q %s/%s rank=%v limit=%d", st.Mode(), q, opts.Algorithm, opts.Semantics, opts.Rank, opts.Limit),
					fresh, old, withQuery(opts, q), true)
			}
		}
		old.Close()
	}
}

func TestStoreBackedRendering(t *testing.T) {
	e := storeEngine(t)
	res, err := e.Search(context.Background(), Request{Query: paperdata.Q3})
	if err != nil {
		t.Fatal(err)
	}
	f := res.Fragments[0]
	ascii := f.ASCII()
	// Skeleton with labels and content words, no raw text.
	if !strings.Contains(ascii, "(Publications)") || !strings.Contains(ascii, "vldb") {
		t.Errorf("store ASCII rendering:\n%s", ascii)
	}
	xmlOut := f.XML()
	if !strings.Contains(xmlOut, "<Publications>") || !strings.Contains(xmlOut, "</Publications>") {
		t.Errorf("store XML rendering:\n%s", xmlOut)
	}
	if !strings.Contains(xmlOut, "<ref>") {
		t.Errorf("store XML missing kept leaf:\n%s", xmlOut)
	}
	if strings.Contains(xmlOut, "Skyline") {
		t.Errorf("pruned branch leaked:\n%s", xmlOut)
	}
}

func TestStoreBackedTreeAccessorNil(t *testing.T) {
	e := storeEngine(t)
	if e.Tree() != nil {
		t.Error("store-backed engine should have nil Tree")
	}
	if e.Index() == nil {
		t.Error("Index should be available")
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

// referenceStoreXML is the store renderer as first written — every node
// resolved by Dewey code through the node table's Find, its label and
// content read from the store's rows, formatted with fmt — kept as the
// reference the append-based renderer must match byte for byte.
func referenceStoreXML(st *store.Store, tab *nid.Table, kept []dewey.Code) string {
	var b strings.Builder
	var stack []dewey.Code
	labelOf := func(c dewey.Code) string {
		id, _ := tab.Find(c)
		return st.LabelAt(int(id))
	}
	closeTop := func() {
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		fmt.Fprintf(&b, "%s</%s>\n", strings.Repeat("  ", len(stack)), labelOf(top))
	}
	for _, c := range kept {
		for len(stack) > 0 && !reference.IsAncestor(stack[len(stack)-1], c) {
			closeTop()
		}
		id, _ := tab.Find(c)
		fmt.Fprintf(&b, "%s<%s>%s\n", strings.Repeat("  ", len(stack)), labelOf(c), strings.Join(st.ContentAt(int(id)), " "))
		stack = append(stack, c)
	}
	for len(stack) > 0 {
		closeTop()
	}
	return b.String()
}

// TestStoreRenderMatchesReference pins XML and WriteXML of store-backed
// fragments — small ones and one larger than the renderer's flush threshold
// — to the reference rendering.
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
		kept := make([]dewey.Code, f.Len())
		for j, n := range f.Nodes {
			kept[j] = dewey.MustParse(n.Dewey)
		}
		want := referenceStoreXML(st, e.Index().Table(), kept)
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
