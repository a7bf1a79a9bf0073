package xks

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"xks/internal/dewey"
	"xks/internal/reference"
	"xks/internal/xmltree"
)

// renderDoc exercises every form the tree renderer chooses between:
// attributes (with characters to escape), text beside kept children, text
// alone, empty leaves with and without attributes, and markup characters in
// text.
const renderDoc = `<lib name="a &amp; b">
  <shelf id="s1" note="&lt;top &quot;shelf&quot;&gt;">mixed text &amp; more
    <book lang="en"><title>Alpha "quoted" &lt;beta&gt;</title><empty/><note></note></book>
    <book><title>alpha gamma</title><tag k="v"/></book>
  </shelf>
  <shelf id="s2"><book><title>beta gamma</title></book><empty/></shelf>
</lib>`

var renderQueries = []string{
	"alpha beta", "alpha gamma", "beta", "gamma", "s1 alpha", "en quoted", "tag alpha",
	"empty beta", "note alpha", "mixed gamma", "lib", "shelf top",
}

// keepMap is the fragment's kept set keyed by Dewey key, the form
// xmltree's recursive writer and asciiTree filter the live tree by.
func keepMap(f *Fragment) map[string]bool {
	keep := make(map[string]bool, len(f.keptIDs))
	for _, id := range f.keptIDs {
		keep[reference.Key(f.v.snap.Table().Code(id))] = true
	}
	return keep
}

// referenceTreeXML is the rendering the tree source produced before it walked
// kept IDs: fragmentXML over the live tree, filtered by the fragment's
// Dewey-keyed keep map.
func referenceTreeXML(e *Engine, f *Fragment) string {
	return fragmentXML(e.tree.NodeAt(f.v.snap.Table().Code(f.keptIDs[0])), keepMap(f))
}

// fragmentXML serializes the nodes of the subtree rooted at root whose
// Dewey codes are in keep (ancestor-closed with respect to root), in
// xmltree.WriteXML's layout: xmltree's recursive writer as it was before
// fragments rendered from their kept IDs.
func fragmentXML(root *xmltree.Node, keep map[string]bool) string {
	var b strings.Builder
	var rec func(n *xmltree.Node, depth int)
	rec = func(n *xmltree.Node, depth int) {
		ind := strings.Repeat("  ", depth)
		line := append([]byte(ind), '<')
		line = append(line, n.Label...)
		for _, a := range n.Attrs {
			line = append(line, ' ')
			line = append(line, a.Name...)
			line = append(line, '=', '"')
			line = xmltree.AppendEscaped(line, a.Value)
			line = append(line, '"')
		}
		var kids []*xmltree.Node
		for _, c := range n.Children {
			if keep[reference.Key(c.Code)] {
				kids = append(kids, c)
			}
		}
		if n.Text == "" && len(kids) == 0 {
			b.Write(append(line, "/>\n"...))
			return
		}
		line = append(line, '>')
		line = xmltree.AppendEscaped(line, n.Text)
		if len(kids) == 0 {
			b.Write(append(line, "</"+n.Label+">\n"...))
			return
		}
		b.Write(append(line, '\n'))
		for _, c := range kids {
			rec(c, depth+1)
		}
		fmt.Fprintf(&b, "%s</%s>\n", ind, n.Label)
	}
	if keep[reference.Key(root.Code)] {
		rec(root, 0)
	}
	return b.String()
}

func TestWriteFragmentXML(t *testing.T) {
	tr, err := xmltree.ParseString(renderDoc)
	if err != nil {
		t.Fatal(err)
	}
	keep := map[string]bool{
		reference.Key(dewey.MustParse("0")):     true,
		reference.Key(dewey.MustParse("0.1")):   true,
		reference.Key(dewey.MustParse("0.1.0")): true,
	}
	want := `<lib name="a &amp; b">
  <shelf id="s2">
    <book/>
  </shelf>
</lib>
`
	if got := fragmentXML(tr.Root, keep); got != want {
		t.Errorf("fragmentXML =\n%s\nwant\n%s", got, want)
	}
}

// referenceTreeASCII is the ASCII rendering the tree source produced before
// it walked kept IDs: asciiTree over the live tree and the keep map.
func referenceTreeASCII(e *Engine, f *Fragment) string {
	return asciiTree(e.tree.NodeAt(f.v.snap.Table().Code(f.keptIDs[0])), keepMap(f))
}

// asciiTree renders the subtree rooted at root as an indented tree in the
// style of the paper's figures ("0.2.0.1 (title) "Keyword Search""),
// restricted to the kept codes if keep is non-nil.
func asciiTree(root *xmltree.Node, keep map[string]bool) string {
	var b strings.Builder
	var rec func(n *xmltree.Node, depth int)
	rec = func(n *xmltree.Node, depth int) {
		if keep != nil && !keep[reference.Key(n.Code)] {
			return
		}
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(n.String())
		if n.Text != "" {
			fmt.Fprintf(&b, " %q", n.Text)
		}
		b.WriteByte('\n')
		for _, c := range n.Children {
			rec(c, depth+1)
		}
	}
	rec(root, 0)
	return b.String()
}

func TestASCIITree(t *testing.T) {
	tr, err := xmltree.ParseString(renderDoc)
	if err != nil {
		t.Fatal(err)
	}
	full := asciiTree(tr.Root, nil)
	if !strings.Contains(full, `0.0.0.0 (title) "Alpha \"quoted\" <beta>"`) {
		t.Errorf("asciiTree missing node:\n%s", full)
	}
	keep := map[string]bool{reference.Key(dewey.MustParse("0")): true, reference.Key(dewey.MustParse("0.1")): true}
	partial := asciiTree(tr.Root, keep)
	if strings.Contains(partial, "Alpha") || !strings.Contains(partial, `0.1 (shelf)`) {
		t.Errorf("asciiTree leaked a pruned node or lost a kept one:\n%s", partial)
	}
}

func allFragments(t *testing.T, e *Engine, queries []string) []*Fragment {
	t.Helper()
	var out []*Fragment
	for _, q := range queries {
		for _, algo := range []Algorithm{ValidRTF, MaxMatch, RawRTF} {
			for _, sem := range []Semantics{AllLCA, SLCAOnly} {
				res, err := e.Search(context.Background(), Request{Query: q, Algorithm: algo, Semantics: sem})
				if err != nil {
					t.Fatalf("Search(%q): %v", q, err)
				}
				out = append(out, res.Fragments...)
			}
		}
	}
	return out
}

// requireReference renders every fragment with WriteXML, XML and ASCII,
// requires each to match its reference, and returns the XML renderings.
func requireReference(t *testing.T, e *Engine, frags []*Fragment) []string {
	t.Helper()
	out := make([]string, len(frags))
	for i, f := range frags {
		want := referenceTreeXML(e, f)
		var streamed bytes.Buffer
		if err := f.WriteXML(&streamed); err != nil {
			t.Fatal(err)
		}
		if streamed.String() != want || f.XML() != want {
			t.Fatalf("fragment %s: WriteXML or XML differs from the reference:\n%s\n----\n%s", f.Root, streamed.String(), want)
		}
		if got, want := f.ASCII(), referenceTreeASCII(e, f); got != want {
			t.Fatalf("fragment %s: ASCII differs from the reference:\n%s\n----\n%s", f.Root, got, want)
		}
		out[i] = want
	}
	return out
}

// TestTreeRenderMatchesReference pins the tree-backed renderers, byte for
// byte, to xmltree.WriteFragmentXML and asciiTree over every algorithm and
// semantics — on a parsed document, on a built one whose text is not valid
// UTF-8, after tail appends, and for fragments materialized before a tail
// append and a refused off-spine one.
func TestTreeRenderMatchesReference(t *testing.T) {
	e, err := LoadString(renderDoc)
	if err != nil {
		t.Fatal(err)
	}
	frags := allFragments(t, e, renderQueries)
	if len(frags) < 40 {
		t.Fatalf("only %d fragments; the queries no longer match the document", len(frags))
	}
	before := requireReference(t, e, frags)
	forms := map[string]bool{}
	for _, x := range before {
		for _, form := range []string{`<empty/>`, `<tag k="v"/>`, `<note/>`, "mixed text &amp; more\n", `&lt;top &quot;shelf&quot;&gt;`, `Alpha &quot;quoted&quot; &lt;beta&gt;</title>`} {
			if strings.Contains(x, form) {
				forms[form] = true
			}
		}
	}
	if len(forms) != 6 {
		t.Fatalf("rendered forms seen: %v; want all six", forms)
	}

	built := FromTree(xmltree.Build(xmltree.E{Label: "r", Attrs: []xmltree.Attr{{Name: "a", Value: "x\xffy"}}, Kids: []xmltree.E{
		{Label: "p", Text: "alpha \xc3\x28 café � <&>"}, {Label: "p", Text: "beta\xf0\x9f"},
	}}))
	requireReference(t, built, allFragments(t, built, []string{"alpha beta", "alpha", "x beta"}))

	// Tail appends: fragments from before keep rendering what they kept, new
	// ones see the new nodes.
	if err := e.AppendXML("0", `<shelf id="s3"><book><title>alpha beta &amp; gamma</title></book></shelf>`); err != nil {
		t.Fatal(err)
	}
	requireReference(t, e, frags)
	requireReference(t, e, allFragments(t, e, renderQueries))

	// Off the rightmost spine: the append is refused, and the fragments
	// materialized before it render from the tables they pinned.
	requireOffSpineRefused(t, e, "0.0", `<book><title>alpha delta</title></book>`)
	for i, got := range requireReference(t, e, frags) {
		if got != before[i] {
			t.Fatalf("fragment %s renders differently after a refused append:\n%s\n----\n%s", frags[i].Root, got, before[i])
		}
	}
	requireReference(t, e, allFragments(t, e, renderQueries))
}
