package xks

import (
	"bytes"
	"context"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"xks/internal/analysis"
	"xks/internal/datagen"
	"xks/internal/store"
	"xks/internal/xmltree"
)

// nodeTextQueries are the requests TestNodeTextParity renders.
var nodeTextQueries = []Request{
	{Query: "xml keyword"},
	{Query: "xml keyword", Semantics: SLCAOnly, Algorithm: MaxMatch},
	{Query: "xml search", Rank: true, Limit: 4},
	{Query: "title:keyword"},
	{Query: "xml keyword", Algorithm: RawRTF},
}

// renderDocQueries are the requests TestNodeTextParity renders over
// renderDoc: each of renderQueries pruned and whole.
func renderDocQueries() []Request {
	var reqs []Request
	for _, q := range renderQueries {
		reqs = append(reqs, Request{Query: q}, Request{Query: q, Algorithm: RawRTF})
	}
	return reqs
}

// nodeTextRender spells out what e's fragments render for reqs: each kept
// node's text, the snippet, the XML and the ASCII tree.
func nodeTextRender(t *testing.T, e *Engine, reqs []Request) string {
	t.Helper()
	var b strings.Builder
	for _, req := range reqs {
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
// request pinned — NodeText, Snippet, XML and ASCII — over two documents
// served three ways (loaded, v3-heap and v3-mmap): a generated one, to the
// output captured when each node still carried its text in a FragmentNode
// field (testdata/nodetext), and renderDoc, whose attributes, markup to
// escape, text beside kept children and empty leaves take every form the
// renderer chooses between (testdata/renderdoc). Every engine answers the
// one tree.golden of each directory.
func TestNodeTextParity(t *testing.T) {
	dblp := datagen.DBLP(datagen.DBLPConfig{Seed: 17, NumRecords: 30, Keywords: []datagen.KeywordSpec{
		{Word: "xml", Count: 9}, {Word: "keyword", Count: 6}, {Word: "search", Count: 5},
	}})
	doc, err := xmltree.ParseString(renderDoc)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		dir  string
		tree *xmltree.Tree
		reqs []Request
	}{
		{"nodetext", dblp, nodeTextQueries},
		{"renderdoc", doc, renderDocQueries()},
	} {
		for name, e := range servedThreeWays(t, c.tree) {
			file, want := golden(t, c.dir)
			if got := nodeTextRender(t, e, c.reqs); got != want {
				t.Errorf("%s %s: rendered\n%s\nwant (%s)\n%s", c.dir, name, got, file, want)
			}
		}
	}
}

// servedThreeWays serves tree loaded ("tree"), and from its store file
// v3-heap and v3-mmap; the stores close when the test ends.
func servedThreeWays(t *testing.T, tree *xmltree.Tree) map[string]*Engine {
	t.Helper()
	path := filepath.Join(t.TempDir(), "doc.xks")
	if err := store.Shred(tree, analysis.New()).SaveFile(path); err != nil {
		t.Fatal(err)
	}
	engines := map[string]*Engine{"tree": FromTree(tree)}
	for name, mode := range map[string]store.OpenMode{"v3-heap": store.OpenHeap, "v3-mmap": store.OpenMmap} {
		st, err := store.OpenFile(path, store.OpenOptions{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		e := FromStore(st)
		t.Cleanup(func() { e.Close() })
		engines[name] = e
	}
	return engines
}

// golden reads testdata/dir/tree.golden, which every engine servedThreeWays
// answers.
func golden(t *testing.T, dir string) (file, text string) {
	t.Helper()
	file = filepath.Join("testdata", dir, "tree.golden")
	b, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	return file, string(b)
}

// nodeFacts spells out what Nodes[i] answers besides its text: Dewey code,
// label, level, keyword flag and matched keywords.
func nodeFacts(f *Fragment, i int) string {
	n := f.Nodes[i]
	return fmt.Sprintf("%s %s %d %v %q", n.Dewey, f.NodeLabel(i), f.NodeLevel(i), n.IsKeywordNode(), f.NodeMatched(i))
}

// sameNode reports whether a.Nodes[i] and b.Nodes[i] answer alike
// (nodeFacts).
func sameNode(a, b *Fragment, i int) bool {
	return a.Nodes[i] == b.Nodes[i] && a.NodeLabel(i) == b.NodeLabel(i) && a.NodeLevel(i) == b.NodeLevel(i) &&
		slices.Equal(a.NodeMatched(i), b.NodeMatched(i))
}

// nodeFactsQueries are the queries TestNodeFactsParity asks. A node of the
// generated document matches "xml" and "search" but not "keyword", so the
// second query has a mask whose bits are not contiguous.
var nodeFactsQueries = []string{"xml keyword", "xml keyword search", "title:xml search", "search xml"}

// nodeFactsRender spells out every kept node's facts (nodeFacts) for
// nodeFactsQueries under ELCA/SLCA × ValidRTF/MaxMatch. gap reports whether
// some node's mask has non-contiguous bits.
func nodeFactsRender(t *testing.T, e *Engine) (out string, gap bool) {
	t.Helper()
	var b strings.Builder
	for _, sem := range []Semantics{AllLCA, SLCAOnly} {
		for _, algo := range []Algorithm{ValidRTF, MaxMatch} {
			for _, q := range nodeFactsQueries {
				res, err := e.Search(context.Background(), Request{Query: q, Semantics: sem, Algorithm: algo})
				if err != nil {
					t.Fatalf("Search(%q, %v, %v): %v", q, sem, algo, err)
				}
				fmt.Fprintf(&b, "# %q %v %v: %d fragments\n", q, sem, algo, len(res.Fragments))
				for _, f := range res.Fragments {
					fmt.Fprintf(&b, "fragment %s %s\n", f.Root, f.RootLabel)
					for i, n := range f.Nodes {
						fmt.Fprintf(&b, "%s\n", nodeFacts(f, i))
						gap = gap || bits.OnesCount64(n.mask) != 64-bits.LeadingZeros64(n.mask)-bits.TrailingZeros64(n.mask)
					}
				}
			}
		}
	}
	return b.String(), gap
}

// TestNodeFactsParity pins what a kept node answers through the Fragment
// accessors — Dewey, NodeLabel, NodeLevel, IsKeywordNode and NodeMatched —
// over one generated document served three ways (servedThreeWays), to the
// output captured when each node still carried its label, level and
// matched keywords in FragmentNode fields (testdata/nodefacts/tree.golden).
func TestNodeFactsParity(t *testing.T) {
	tree := datagen.DBLP(datagen.DBLPConfig{Seed: 23, NumRecords: 30, Keywords: []datagen.KeywordSpec{
		{Word: "xml", Count: 12}, {Word: "keyword", Count: 6}, {Word: "search", Count: 10},
	}})
	for name, e := range servedThreeWays(t, tree) {
		file, want := golden(t, "nodefacts")
		got, gap := nodeFactsRender(t, e)
		if got != want {
			t.Errorf("%s: node facts\n%s\nwant (%s)\n%s", name, got, file, want)
		}
		if !gap {
			t.Errorf("%s: no kept node matched keywords with non-contiguous mask bits; the check is vacuous", name)
		}
	}
}

// TestRetainedSnippetReadsPinnedContent: a keyword matched through an
// attribute (or a label) has no own text, so the snippet shows the node's
// content words instead, read from the tables the request pinned. A
// fragment returned before an off-spine AppendXML (refused) and a tail
// append under the fragment's own root must keep its snippet.
func TestRetainedSnippetReadsPinnedContent(t *testing.T) {
	e, err := LoadString(`<bib><a><x>first words here</x></a><b><paper kind="keyword"><t>xml search</t></paper></b></bib>`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Search(context.Background(), Request{Query: "keyword xml"})
	if err != nil || len(res.Fragments) == 0 {
		t.Fatalf("%v, err %v", res, err)
	}
	f := res.Fragments[0]
	const want = "paper: [keyword] kind paper … t: [xml] search"
	if got := f.Snippet(); got != want {
		t.Fatalf("snippet %q, want %q", got, want)
	}
	requireOffSpineRefused(t, e, "0.0", "<y>zebra zulu yak</y>")
	if got := f.Snippet(); got != want {
		t.Errorf("after a refused append the retained fragment's snippet is %q, want %q", got, want)
	}
	if err := e.AppendXML(f.Root, "<t>keyword xml again</t>"); err != nil {
		t.Fatal(err)
	}
	if got := f.Snippet(); got != want {
		t.Errorf("after a tail append under its root the retained fragment's snippet is %q, want %q", got, want)
	}
}

// TestRetainedFragmentsKeepTheirAnswers keeps a page's fragments across a
// tail append, a Compact, a refused off-spine AppendXML and a second tail
// append, none of them rendered before the writes, then reads every node accessor, NodeText, Snippet, XML
// and ASCII of each from 8 goroutines at once: each answers what a fragment
// of the same page read before the writes answered. "article" matches the
// DBLP records through their labels and key attributes, so their snippets
// read content words. CI runs it under -race.
func TestRetainedFragmentsKeepTheirAnswers(t *testing.T) {
	e := FromTree(datagen.DBLP(datagen.DBLPConfig{Seed: 5, NumRecords: 40, Keywords: []datagen.KeywordSpec{
		{Word: "xml", Count: 15}, {Word: "search", Count: 10},
	}}))
	reqs := []Request{
		{Query: "article xml"},
		{Query: "xml search", Algorithm: MaxMatch},
		{Query: "article search", Semantics: SLCAOnly},
		{Query: "xml article", Rank: true, Limit: 5},
	}
	digest := func(f *Fragment) string {
		return fragmentDigest(f) + f.RootLabel + "\n" + f.Snippet() + "\n" + f.ASCII()
	}
	var want []string
	var kept []*Fragment
	for _, req := range reqs {
		read, err := e.Search(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range read.Fragments {
			want = append(want, digest(f))
		}
		page, err := e.Search(context.Background(), req)
		if err != nil || len(page.Fragments) != len(read.Fragments) || len(page.Fragments) == 0 {
			t.Fatalf("%+v: %d fragments, then %v; err %v", req, len(read.Fragments), page, err)
		}
		kept = append(kept, page.Fragments...)
	}
	if err := e.AppendXML("0", `<article key="rec/article/new"><title>xml search fresh</title></article>`); err != nil {
		t.Fatal(err)
	}
	if n, err := e.Compact(context.Background()); n != 1 || err != nil {
		t.Fatalf("Compact folded %d segments, err %v; want 1", n, err)
	}
	requireOffSpineRefused(t, e, "0.0", `<note>xml article search</note>`)
	if err := e.AppendXML("0", `<article key="rec/article/newer"><title>xml article search</title></article>`); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range kept {
				i := (k + g*len(kept)/8) % len(kept)
				if got := digest(kept[i]); got != want[i] {
					t.Errorf("goroutine %d: retained fragment %s answers\n%s\nwant\n%s", g, kept[i].Root, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestFragmentConcurrentRender: for each fragment of a page, eight
// goroutines render it through XML, ASCII, Contains and WriteXML at once,
// and every call returns what a fresh single-threaded render of the same
// fragment returns. CI runs it under -race.
func TestFragmentConcurrentRender(t *testing.T) {
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
			for g := range 8 {
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
					}
				}()
			}
			start.Done()
			done.Wait()
		}
	}
}
