package xmltree

import (
	"bytes"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"xks/internal/dewey"
)

const sampleXML = `<?xml version="1.0"?>
<Publications>
  <title>VLDB</title>
  <year>2008</year>
  <Articles>
    <article id="a1">
      <title>Match Relevant XML Keyword Search</title>
      <abstract>keyword search over XML data</abstract>
    </article>
  </Articles>
</Publications>`

func TestParseBasic(t *testing.T) {
	tr, err := ParseString(sampleXML)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Root.Label != "Publications" {
		t.Errorf("root label = %q", tr.Root.Label)
	}
	if got := tr.Size(); got != 7 {
		t.Errorf("Size = %d, want 7", got)
	}
	title := tr.NodeAt(dewey.MustParse("0.0"))
	if title.Label != "title" || title.Text != "VLDB" {
		t.Errorf("node 0.0 = %s %q", title, title.Text)
	}
	art := tr.NodeAt(dewey.MustParse("0.2.0"))
	if art.Label != "article" || len(art.Attrs) != 1 || art.Attrs[0] != (Attr{"id", "a1"}) {
		t.Errorf("article attrs = %v", art.Attrs)
	}
	if art.Parent != tr.NodeAt(dewey.MustParse("0.2")) {
		t.Error("parent pointer wrong")
	}
	if tr.NodeAt(dewey.MustParse("0.9")) != nil {
		t.Error("NodeAt for absent code should be nil")
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{"", "<a><b></a></b>", "<a/><b/>", "just text"} {
		if _, err := ParseString(bad); err == nil {
			t.Errorf("ParseString(%q) should fail", bad)
		}
	}
}

func TestParseConcatenatesText(t *testing.T) {
	tr, err := ParseString(`<a>hello <b>inner</b> world</a>`)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Root.Text != "hello world" {
		t.Errorf("root text = %q", tr.Root.Text)
	}
	if tr.NodeAt(dewey.MustParse("0.0")).Text != "inner" {
		t.Errorf("inner text = %q", tr.NodeAt(dewey.MustParse("0.0")).Text)
	}
}

func TestBuildMatchesParse(t *testing.T) {
	built := Build(E{Label: "Publications", Kids: []E{
		{Label: "title", Text: "VLDB"},
		{Label: "year", Text: "2008"},
		{Label: "Articles", Kids: []E{
			{Label: "article", Attrs: []Attr{{"id", "a1"}}, Kids: []E{
				{Label: "title", Text: "Match Relevant XML Keyword Search"},
				{Label: "abstract", Text: "keyword search over XML data"},
			}},
		}},
	}})
	parsed, err := ParseString(sampleXML)
	if err != nil {
		t.Fatal(err)
	}
	bn, pn := built.Nodes(), parsed.Nodes()
	if len(bn) != len(pn) {
		t.Fatalf("node counts differ: %d vs %d", len(bn), len(pn))
	}
	for i := range bn {
		if !dewey.Equal(bn[i].Code, pn[i].Code) || bn[i].Label != pn[i].Label || bn[i].Text != pn[i].Text {
			t.Errorf("node %d differs: %s %q vs %s %q", i, bn[i], bn[i].Text, pn[i], pn[i].Text)
		}
	}
}

func TestWalkPreOrderAndPrune(t *testing.T) {
	tr, _ := ParseString(sampleXML)
	var order []string
	tr.Walk(func(n *Node) bool {
		order = append(order, n.Code.String())
		return n.Label != "Articles" // prune below Articles
	})
	want := []string{"0", "0.0", "0.1", "0.2"}
	if strings.Join(order, " ") != strings.Join(want, " ") {
		t.Errorf("Walk order = %v, want %v", order, want)
	}
}

func TestNodesSortedPreOrder(t *testing.T) {
	tr, _ := ParseString(sampleXML)
	ns := tr.Nodes()
	for i := 1; i < len(ns); i++ {
		if dewey.Compare(ns[i-1].Code, ns[i].Code) >= 0 {
			t.Fatalf("Nodes not in pre-order at %d: %s >= %s", i, ns[i-1].Code, ns[i].Code)
		}
	}
}

func TestContentPieces(t *testing.T) {
	tr, _ := ParseString(sampleXML)
	art := tr.NodeAt(dewey.MustParse("0.2.0"))
	got := strings.Join(art.ContentPieces(), "|")
	want := "article|id|a1"
	if got != want {
		t.Errorf("ContentPieces = %q, want %q", got, want)
	}
	title := tr.NodeAt(dewey.MustParse("0.0"))
	got = strings.Join(title.ContentPieces(), "|")
	if got != "title|VLDB" {
		t.Errorf("ContentPieces = %q", got)
	}
}

func TestAppendChild(t *testing.T) {
	tr, _ := ParseString(sampleXML)
	before := tr.Size()
	n := Build(E{Label: "article", Kids: []E{{Label: "title", Text: "New"}}}).Root
	if err := tr.AppendChild(dewey.MustParse("0.2"), n); err != nil {
		t.Fatal(err)
	}
	if tr.Size() != before+2 {
		t.Errorf("Size after AppendChild = %d, want %d", tr.Size(), before+2)
	}
	if n.Code.String() != "0.2.1" {
		t.Errorf("new node code = %s, want 0.2.1", n.Code)
	}
	if tr.NodeAt(dewey.MustParse("0.2.1.0")).Text != "New" {
		t.Error("grandchild not indexed")
	}
	if err := tr.AppendChild(dewey.MustParse("9.9"), Build(E{Label: "x"}).Root); err == nil {
		t.Error("AppendChild at absent code should fail")
	}
}

func TestCloneIsDeep(t *testing.T) {
	tr, _ := ParseString(sampleXML)
	cp := tr.Clone()
	cp.NodeAt(dewey.MustParse("0.0")).Text = "MUTATED"
	if tr.NodeAt(dewey.MustParse("0.0")).Text != "VLDB" {
		t.Error("Clone shares nodes with original")
	}
	if cp.Size() != tr.Size() {
		t.Errorf("clone size %d != %d", cp.Size(), tr.Size())
	}
}

func TestWriteXMLRoundTrip(t *testing.T) {
	tr, _ := ParseString(sampleXML)
	var buf bytes.Buffer
	if err := WriteXML(&buf, tr.Root); err != nil {
		t.Fatal(err)
	}
	back, err := Parse(&buf)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, buf.String())
	}
	a, b := tr.Nodes(), back.Nodes()
	if len(a) != len(b) {
		t.Fatalf("round trip node count %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Label != b[i].Label || a[i].Text != b[i].Text {
			t.Errorf("round trip node %d: %s %q vs %s %q", i, a[i], a[i].Text, b[i], b[i].Text)
		}
	}
}

func TestWriteXMLEscapes(t *testing.T) {
	tr := Build(E{Label: "a", Text: `x < y & "z"`, Attrs: []Attr{{"k", `<&>`}}})
	var buf bytes.Buffer
	if err := WriteXML(&buf, tr.Root); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, `x < y`) || strings.Contains(out, `"<&>"`) {
		t.Errorf("unescaped output: %s", out)
	}
	back, err := ParseString(out)
	if err != nil {
		t.Fatal(err)
	}
	if back.Root.Text != `x < y & "z"` {
		t.Errorf("escaped round trip text = %q", back.Root.Text)
	}
}

func TestLabelHistogramAndSortedLabels(t *testing.T) {
	tr, _ := ParseString(sampleXML)
	h := tr.LabelHistogram()
	if h["title"] != 2 || h["Publications"] != 1 {
		t.Errorf("histogram = %v", h)
	}
	labels := slices.Sorted(maps.Keys(h))
	want := []string{"Articles", "Publications", "abstract", "article", "title", "year"}
	if !slices.Equal(labels, want) {
		t.Errorf("sorted labels = %v, want %v", labels, want)
	}
}

// RandomTree builds a random tree; used here and exported via testing only.
func randomTree(rng *rand.Rand, maxKids, maxDepth int) *Tree {
	labels := []string{"a", "b", "c", "d"}
	var gen func(depth int) E
	gen = func(depth int) E {
		e := E{Label: labels[rng.Intn(len(labels))]}
		if rng.Intn(2) == 0 {
			e.Text = labels[rng.Intn(len(labels))] + " text"
		}
		if depth < maxDepth {
			for i := 0; i < rng.Intn(maxKids+1); i++ {
				e.Kids = append(e.Kids, gen(depth+1))
			}
		}
		return e
	}
	return Build(gen(0))
}

// Property: for every node, Code of child i extends parent code with i, and
// NodeAt finds it by its code.
func TestDeweyAssignmentInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		tr := randomTree(rng, 3, 4)
		count := 0
		tr.Walk(func(n *Node) bool {
			count++
			if got := tr.NodeAt(n.Code); got != n {
				t.Fatalf("NodeAt mismatch at %s", n.Code)
			}
			for i, c := range n.Children {
				want := n.Code.Child(uint32(i))
				if !dewey.Equal(c.Code, want) {
					t.Fatalf("child code %s, want %s", c.Code, want)
				}
				if c.Parent != n {
					t.Fatalf("broken parent pointer at %s", c.Code)
				}
			}
			return true
		})
		if count != tr.Size() {
			t.Fatalf("Size %d != walked %d", tr.Size(), count)
		}
	}
}

// Property: serialize → parse preserves structure for random trees.
func TestRandomRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		tr := randomTree(rng, 3, 4)
		var buf bytes.Buffer
		if err := WriteXML(&buf, tr.Root); err != nil {
			t.Fatal(err)
		}
		back, err := Parse(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if back.Size() != tr.Size() {
			t.Fatalf("trial %d: size %d != %d", trial, back.Size(), tr.Size())
		}
	}
}

func BenchmarkParse(b *testing.B) {
	var sb strings.Builder
	sb.WriteString("<root>")
	for i := 0; i < 1000; i++ {
		sb.WriteString("<item><name>node</name><desc>some words here</desc></item>")
	}
	sb.WriteString("</root>")
	doc := sb.String()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseString(doc); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAppendChildIncrementalMatchesReparse: appending indexes only the new
// nodes, and leaves the tree exactly as a parse of the extended document
// numbers and indexes it.
func TestAppendChildIncrementalMatchesReparse(t *testing.T) {
	a, _ := ParseString(sampleXML)
	b, _ := ParseString(strings.Replace(sampleXML, "</Articles>", "<article><title>New</title></article></Articles>", 1))
	sub := E{Label: "article", Kids: []E{{Label: "title", Text: "New"}}}
	na := Build(sub).Root
	if err := a.AppendChild(dewey.MustParse("0.2"), na); err != nil {
		t.Fatal(err)
	}
	nb := b.NodeAt(dewey.MustParse("0.2.1"))
	if nb == nil || !dewey.Equal(na.Code, nb.Code) || na.Label != nb.Label {
		t.Fatalf("appended node %s, parsed node %v", na.Code, nb)
	}
	an, bn := a.Nodes(), b.Nodes()
	if len(an) != len(bn) || a.Size() != b.Size() {
		t.Fatalf("sizes differ: %d vs %d", a.Size(), b.Size())
	}
	for i := range an {
		if !dewey.Equal(an[i].Code, bn[i].Code) || an[i].Label != bn[i].Label {
			t.Fatalf("node %d differs: %s vs %s", i, an[i], bn[i])
		}
		if got := a.NodeAt(bn[i].Code); got != an[i] {
			t.Fatalf("node %s: indexed %v, walked %v", bn[i].Code, got, an[i])
		}
	}
	// Index consistency after the incremental path.
	if a.NodeAt(dewey.MustParse("0.2.1.0")).Text != "New" {
		t.Error("appended grandchild not indexed")
	}
	if err := a.AppendChild(dewey.MustParse("7.7"), Build(sub).Root); err == nil {
		t.Error("append under missing parent should fail")
	}
}
