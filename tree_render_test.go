package xks

import (
	"bytes"
	"context"
	"strings"
	"testing"

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

// referenceTreeXML is the rendering the tree source produced before it walked
// kept IDs: xmltree's recursive writer over the live tree, filtered by the
// fragment's Dewey-keyed keep map.
func referenceTreeXML(e *Engine, f *Fragment) string {
	var b strings.Builder
	xmltree.WriteFragmentXML(&b, e.tree.NodeAt(f.v.snap.Table().Code(f.keptIDs[0])), f.keepSet()) // a Builder's writes cannot fail
	return b.String()
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

// requireReferenceXML renders every fragment with WriteXML — never XML(),
// whose memo would answer for the renderer from then on — and returns the
// renderings.
func requireReferenceXML(t *testing.T, e *Engine, frags []*Fragment) []string {
	t.Helper()
	out := make([]string, len(frags))
	for i, f := range frags {
		want := referenceTreeXML(e, f)
		var streamed bytes.Buffer
		if err := f.WriteXML(&streamed); err != nil {
			t.Fatal(err)
		}
		if streamed.String() != want {
			t.Fatalf("fragment %s: WriteXML differs from the reference:\n%s\n----\n%s", f.Root, streamed.String(), want)
		}
		out[i] = want
	}
	return out
}

// TestTreeRenderMatchesReference pins the tree-backed XML renderer, byte for
// byte, to xmltree.WriteFragmentXML over every algorithm and semantics — on a
// parsed document, on a built one whose text is not valid UTF-8, after tail
// appends, and for fragments materialized before an off-spine append
// renumbered every ID behind them.
func TestTreeRenderMatchesReference(t *testing.T) {
	e, err := LoadString(renderDoc)
	if err != nil {
		t.Fatal(err)
	}
	frags := allFragments(t, e, renderQueries)
	if len(frags) < 40 {
		t.Fatalf("only %d fragments; the queries no longer match the document", len(frags))
	}
	before := requireReferenceXML(t, e, frags)
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
	requireReferenceXML(t, built, allFragments(t, built, []string{"alpha beta", "alpha", "x beta"}))

	// Tail appends: fragments from before keep rendering what they kept, new
	// ones see the new nodes.
	if err := e.AppendXML("0", `<shelf id="s3"><book><title>alpha beta &amp; gamma</title></book></shelf>`); err != nil {
		t.Fatal(err)
	}
	requireReferenceXML(t, e, frags)
	requireReferenceXML(t, e, allFragments(t, e, renderQueries))

	// Off the rightmost spine: the rebuild renumbers IDs, and the fragments
	// materialized before it render from the tables they pinned.
	gen := e.Generation()
	if err := e.AppendXML("0.0", `<book><title>alpha delta</title></book>`); err != nil {
		t.Fatal(err)
	}
	if e.Generation()>>32 == gen>>32 {
		t.Fatal("the append under 0.0 did not renumber")
	}
	for i, got := range requireReferenceXML(t, e, frags) {
		if got != before[i] {
			t.Fatalf("fragment %s renders differently after a renumbering append:\n%s\n----\n%s", frags[i].Root, got, before[i])
		}
	}
	requireReferenceXML(t, e, allFragments(t, e, renderQueries))
}
