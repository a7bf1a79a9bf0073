package xks

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"xks/internal/analysis"
	"xks/internal/datagen"
	"xks/internal/store"
)

// nodeTextQueries are the requests TestNodeTextParity renders.
var nodeTextQueries = []Request{
	{Query: "xml keyword"},
	{Query: "xml keyword", Semantics: SLCAOnly, Algorithm: MaxMatch},
	{Query: "xml search", Rank: true, Limit: 4},
	{Query: "title:keyword"},
}

// nodeTextRender spells out what e's fragments render for nodeTextQueries:
// each kept node's text, the snippet, the XML and the ASCII tree.
func nodeTextRender(t *testing.T, e *Engine) string {
	t.Helper()
	var b strings.Builder
	for _, req := range nodeTextQueries {
		res, err := e.Search(context.Background(), req)
		if err != nil {
			t.Fatalf("Search(%+v): %v", req, err)
		}
		fmt.Fprintf(&b, "# %q %v %v rank=%v limit=%d: %d fragments\n", req.Query, req.Semantics, req.Algorithm, req.Rank, req.Limit, len(res.Fragments))
		for _, f := range res.Fragments {
			fmt.Fprintf(&b, "fragment %s\n", f.Root)
			for i, n := range f.Nodes {
				fmt.Fprintf(&b, "node %s %q\n", n.Dewey, f.NodeText(i))
			}
			fmt.Fprintf(&b, "snippet %q\nxml\n%sascii\n%s", f.Snippet(), f.XML(), f.ASCII())
		}
	}
	return b.String()
}

// TestNodeTextParity pins what fragments render from the tables their
// request pinned — NodeText, Snippet, XML and ASCII — over one generated
// document served tree-backed, v3-heap and v3-mmap, to the output captured
// when each node still carried its text in a FragmentNode field
// (testdata/nodetext: tree.golden, and store.golden for both store modes).
func TestNodeTextParity(t *testing.T) {
	tree := datagen.DBLP(datagen.DBLPConfig{Seed: 17, NumRecords: 30, Keywords: []datagen.KeywordSpec{
		{Word: "xml", Count: 9}, {Word: "keyword", Count: 6}, {Word: "search", Count: 5},
	}})
	path := filepath.Join(t.TempDir(), "dblp.xks")
	if err := store.Shred(tree, analysis.New()).SaveFile(path); err != nil {
		t.Fatal(err)
	}
	engines := map[string]*Engine{"tree": FromTree(tree)}
	for name, mode := range map[string]StoreMode{"v3-heap": StoreHeap, "v3-mmap": StoreMmap} {
		e, err := OpenStoreMode(path, mode)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		engines[name] = e
	}
	for name, e := range engines {
		golden := "store.golden"
		if name == "tree" {
			golden = "tree.golden"
		}
		want, err := os.ReadFile(filepath.Join("testdata", "nodetext", golden))
		if err != nil {
			t.Fatal(err)
		}
		if got := nodeTextRender(t, e); got != string(want) {
			t.Errorf("%s: rendered\n%s\nwant (%s)\n%s", name, got, golden, want)
		}
	}
}

// TestFragmentMemoConcurrentRender: for each fragment of a page, eight
// goroutines render it through XML, ASCII, Contains and WriteXML at once.
// Every call returns what a fresh single-threaded render of the same
// fragment returns, every goroutine sees the one memo the first call
// installed, and that memo holds all three renderings. CI runs it under
// -race.
func TestFragmentMemoConcurrentRender(t *testing.T) {
	const page = 32
	for _, backing := range blockBackings {
		e := backing.build(t, page)
		search := func() []*Fragment {
			res, err := e.Search(context.Background(), Request{Query: blockQuery})
			if err != nil || len(res.Fragments) != page {
				t.Fatalf("%s: %d fragments, err %v", backing.name, len(res.Fragments), err)
			}
			return res.Fragments
		}
		fresh, shared := search(), search()
		for i, f := range shared {
			var written bytes.Buffer
			if err := fresh[i].WriteXML(&written); err != nil {
				t.Fatal(err)
			}
			wantXML, wantASCII := fresh[i].XML(), fresh[i].ASCII()
			if written.String() != wantXML {
				t.Fatalf("%s: WriteXML and XML differ on a fresh fragment", backing.name)
			}
			var start, done sync.WaitGroup
			start.Add(1)
			memos := make([]*fragMemo, 8)
			for g := range memos {
				done.Add(1)
				go func() {
					defer done.Done()
					start.Wait()
					var w bytes.Buffer
					for call := range 4 {
						switch (g + call) % 4 {
						case 0:
							if got := f.XML(); got != wantXML {
								t.Errorf("%s: XML = %q, want %q", backing.name, got, wantXML)
							}
						case 1:
							if got := f.ASCII(); got != wantASCII {
								t.Errorf("%s: ASCII = %q, want %q", backing.name, got, wantASCII)
							}
						case 2:
							if !f.Contains(f.Root) || f.Contains(f.Root+".999") {
								t.Errorf("%s: Contains disagrees with the kept set", backing.name)
							}
						case 3:
							if err := f.WriteXML(&w); err != nil || w.String() != wantXML {
								t.Errorf("%s: WriteXML = %q, %v; want %q", backing.name, w.String(), err, wantXML)
							}
						}
						if memos[g] == nil {
							memos[g] = f.memo.Load() // nil only while nothing but WriteXML ran
						}
					}
				}()
			}
			start.Done()
			done.Wait()
			m := f.memo.Load()
			for g, seen := range memos {
				if seen != m {
					t.Fatalf("%s fragment %s: goroutine %d saw memo %p, the fragment holds %p: want one memo, installed once", backing.name, f.Root, g, seen, m)
				}
			}
			if !m.xmlDone.Load() || m.asciiText != wantASCII || m.keep == nil {
				t.Fatalf("%s fragment %s: the installed memo lacks a rendering its callers computed", backing.name, f.Root)
			}
		}
	}
}
