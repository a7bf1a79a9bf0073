package datagen

import (
	"math/rand"
	"testing"

	"xks/internal/analysis"
	"xks/internal/index"
	"xks/internal/xmltree"
)

func TestDBLPDeterministic(t *testing.T) {
	cfg := DBLPConfig{Seed: 42, NumRecords: 50}
	a := DBLP(cfg)
	b := DBLP(cfg)
	if a.Size() != b.Size() {
		t.Fatalf("sizes differ: %d vs %d", a.Size(), b.Size())
	}
	an, bn := a.Nodes(), b.Nodes()
	for i := range an {
		if an[i].Label != bn[i].Label || an[i].Text != bn[i].Text {
			t.Fatalf("node %d differs", i)
		}
	}
	c := DBLP(DBLPConfig{Seed: 43, NumRecords: 50})
	diff := false
	cn := c.Nodes()
	for i := range an {
		if i < len(cn) && an[i].Text != cn[i].Text {
			diff = true
			break
		}
	}
	if a.Size() == c.Size() && !diff {
		t.Error("different seeds should differ")
	}
}

func TestDBLPShape(t *testing.T) {
	tree := DBLP(DBLPConfig{Seed: 7, NumRecords: 200})
	if tree.Root.Label != "dblp" {
		t.Errorf("root = %q", tree.Root.Label)
	}
	if got := len(tree.Root.Children); got != 200 {
		t.Errorf("records = %d", got)
	}
	hist := tree.LabelHistogram()
	if hist["title"] != 200 {
		t.Errorf("title count = %d", hist["title"])
	}
	if hist["author"] < 200 {
		t.Errorf("author count = %d, want >= 200", hist["author"])
	}
	if d := maxDepth(tree); d != 2 {
		t.Errorf("DBLP depth = %d, want 2 (shallow records)", d)
	}
	kinds := hist["article"] + hist["inproceedings"] + hist["phdthesis"]
	if kinds != 200 {
		t.Errorf("record kinds sum = %d", kinds)
	}
}

func TestDBLPKeywordFrequencies(t *testing.T) {
	specs := []KeywordSpec{
		{Word: "xml", Count: 25},
		{Word: "keyword", Count: 7},
		{Word: "vldb", Count: 3},
	}
	tree := DBLP(DBLPConfig{Seed: 11, NumRecords: 300, Keywords: specs})
	ix := index.Build(tree, analysis.New())
	for _, s := range specs {
		if got := ix.Frequency(s.Word); got != s.Count {
			t.Errorf("frequency(%s) = %d, want %d", s.Word, got, s.Count)
		}
	}
}

func TestXMarkDeterministicAndShape(t *testing.T) {
	cfg := XMarkConfig{Seed: 3, Items: 60}
	a := XMark(cfg)
	b := XMark(cfg)
	if a.Size() != b.Size() {
		t.Fatalf("sizes differ")
	}
	if a.Root.Label != "site" {
		t.Errorf("root = %q", a.Root.Label)
	}
	hist := a.LabelHistogram()
	if hist["item"] != 60 {
		t.Errorf("items = %d", hist["item"])
	}
	if hist["person"] != 60 {
		t.Errorf("people = %d (default = items)", hist["person"])
	}
	if hist["open_auction"] != 30 || hist["closed_auction"] != 15 {
		t.Errorf("auctions = %d/%d", hist["open_auction"], hist["closed_auction"])
	}
	if d := maxDepth(a); d < 5 {
		t.Errorf("XMark depth = %d, want >= 5 (deep records)", d)
	}
	// All six regions present.
	for _, rg := range xmarkRegions {
		if hist[rg] != 1 {
			t.Errorf("region %s count = %d", rg, hist[rg])
		}
	}
}

func TestXMarkKeywordFrequencies(t *testing.T) {
	specs := []KeywordSpec{
		{Word: "particle", Count: 12},
		{Word: "dominator", Count: 56},
		{Word: "preventions", Count: 150},
	}
	tree := XMark(XMarkConfig{Seed: 5, Items: 120, Keywords: specs})
	ix := index.Build(tree, analysis.New())
	for _, s := range specs {
		if got := ix.Frequency(s.Word); got != s.Count {
			t.Errorf("frequency(%s) = %d, want %d", s.Word, got, s.Count)
		}
	}
}

func TestXMarkExplicitSizes(t *testing.T) {
	tree := XMark(XMarkConfig{Seed: 1, Items: 30, People: 10, OpenAuctions: 5, ClosedAuctions: 4, Categories: 3})
	hist := tree.LabelHistogram()
	if hist["person"] != 10 || hist["open_auction"] != 5 || hist["closed_auction"] != 4 || hist["category"] != 3 {
		t.Errorf("explicit sizes not honored: %v", hist)
	}
}

func TestVocabAvoidsKeywords(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	avoid := map[string]bool{"xml": true, "system": true}
	v := newVocab(rng, 500, avoid)
	for _, w := range v.words {
		if avoid[w] {
			t.Fatalf("vocabulary contains avoided word %q", w)
		}
	}
	if len(v.words) != 500 {
		t.Errorf("vocab size = %d", len(v.words))
	}
}

func TestVocabZipfSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	v := newVocab(rng, 1000, nil)
	counts := map[string]int{}
	for i := 0; i < 20000; i++ {
		counts[v.word()]++
	}
	// The most frequent word should be much more common than the median.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < 200 {
		t.Errorf("head of distribution too flat: max count %d", max)
	}
}

func TestInjectDistinctSlots(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	root := xmltree.E{Label: "r"}
	for i := 0; i < 50; i++ {
		root.Kids = append(root.Kids, xmltree.E{Label: "t", Text: "base"})
	}
	inject(rng, &root, []KeywordSpec{{Word: "zap", Count: 20}})
	hit := 0
	for _, k := range root.Kids {
		if k.Text != "base" {
			if k.Text != "base zap" {
				t.Errorf("unexpected slot text %q", k.Text)
			}
			hit++
		}
	}
	if hit != 20 {
		t.Errorf("injected %d slots, want 20", hit)
	}
}

func TestInjectCapsAtSlotCount(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	root := xmltree.E{Label: "r", Kids: []xmltree.E{
		{Label: "t", Text: "a"}, {Label: "t", Text: "b"},
	}}
	inject(rng, &root, []KeywordSpec{{Word: "zap", Count: 10}, {Word: "ignored", Count: 0}})
	for _, k := range root.Kids {
		if k.Text != "a zap" && k.Text != "b zap" {
			t.Errorf("slot %q missed capped injection", k.Text)
		}
	}
}

func TestInjectNoSlots(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	root := xmltree.E{Label: "r"}
	inject(rng, &root, []KeywordSpec{{Word: "zap", Count: 3}}) // must not panic
}

func TestSamplePartialDistinctSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(50)
		k := 1 + rng.Intn(n)
		got := samplePartial(rng, n, k)
		if len(got) != k {
			t.Fatalf("len = %d, want %d", len(got), k)
		}
		for i := 1; i < len(got); i++ {
			if got[i-1] >= got[i] {
				t.Fatalf("not strictly sorted: %v", got)
			}
		}
		for _, x := range got {
			if x < 0 || x >= n {
				t.Fatalf("out of range: %v", got)
			}
		}
	}
}

func BenchmarkDBLP(b *testing.B) {
	cfg := DBLPConfig{Seed: 1, NumRecords: 500}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		DBLP(cfg)
	}
}

func BenchmarkXMark(b *testing.B) {
	cfg := XMarkConfig{Seed: 1, Items: 120}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		XMark(cfg)
	}
}

// maxDepth is the greatest node level of t, the root's being 0.
func maxDepth(t *xmltree.Tree) int {
	d := 0
	t.Walk(func(n *xmltree.Node) bool {
		d = max(d, n.Level())
		return true
	})
	return d
}
