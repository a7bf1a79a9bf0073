package snippet

import (
	"strings"
	"testing"
)

func gen() *Generator { return NewGenerator(nil) }

func TestGenerateHighlightsKeywords(t *testing.T) {
	g := gen()
	out := g.Generate([]Source{
		{Label: "title", Text: "Efficient XML Keyword Search over large documents"},
	}, []string{"keyword", "search"})
	if !strings.Contains(out, "[Keyword]") || !strings.Contains(out, "[Search]") {
		t.Errorf("missing highlights: %q", out)
	}
	if !strings.HasPrefix(out, "title: ") {
		t.Errorf("missing label prefix: %q", out)
	}
}

func TestGenerateWindow(t *testing.T) {
	g := gen()
	out := g.Generate([]Source{
		{Text: "zero one two three keyword five six seven eight"},
	}, []string{"keyword"})
	if !strings.Contains(out, "one two three [keyword] five six seven") {
		t.Errorf("window cut wrong: %q", out)
	}
	if strings.Contains(out, "zero") || strings.Contains(out, "eight") {
		t.Errorf("window too wide: %q", out)
	}
	// Ellipses mark both truncated sides.
	if strings.Count(out, "…") != 2 {
		t.Errorf("ellipsis markers: %q", out)
	}
}

func TestGenerateMergesOverlaps(t *testing.T) {
	g := gen()
	out := g.Generate([]Source{
		{Text: "alpha keyword beta search gamma"},
	}, []string{"keyword", "search"})
	// The two windows overlap and must merge into one extract without a
	// separating ellipsis.
	if strings.Contains(out, "… …") || strings.Count(out, "[") != 2 {
		t.Errorf("merge failed: %q", out)
	}
}

func TestGenerateCoversAllKeywordsFirst(t *testing.T) {
	g := gen()
	// Six 7-word extracts of keyword 1 fill the 40-word budget before the
	// source of keyword 2 in document order.
	sources := []Source{{Text: "alpha alpha alpha alpha alpha"}} // no keywords
	for i := 0; i < 6; i++ {
		sources = append(sources, Source{Text: "aa bb cc keyword dd ee ff"})
	}
	sources = append(sources, Source{Text: "aa bb cc search dd ee ff"})
	out := g.Generate(sources, []string{"keyword", "search"})
	if !strings.Contains(out, "[keyword]") || !strings.Contains(out, "[search]") {
		t.Errorf("coverage sacrificed to repetition: %q", out)
	}
	// Extracts of different sources are joined by an ellipsis.
	if !strings.Contains(out, "ff … aa") {
		t.Errorf("extracts not joined by an ellipsis: %q", out)
	}
}

func TestGenerateBudget(t *testing.T) {
	g := gen()
	// Ten 7-word extracts: only five fit the 40-word budget.
	var sources []Source
	for i := 0; i < 10; i++ {
		sources = append(sources, Source{Text: "aa bb cc keyword dd ee ff"})
	}
	out := g.Generate(sources, []string{"keyword"})
	words := 0
	for _, w := range strings.Fields(out) {
		if w != "…" {
			words++
		}
	}
	if words > maxWords || strings.Count(out, "[keyword]") != 5 {
		t.Errorf("budget not kept (%d words): %q", words, out)
	}
}

func TestGenerateFallbackNoMatches(t *testing.T) {
	g := gen()
	out := g.Generate([]Source{
		{Label: "abstract", Text: "completely unrelated text body here" + strings.Repeat(" filler", maxWords)},
	}, []string{"zebra"})
	if !strings.HasPrefix(out, "abstract: completely unrelated text") {
		t.Errorf("fallback = %q", out)
	}
	if n := len(strings.Fields(out)); n != 1+maxWords+1 { // label, words, "…"
		t.Errorf("fallback has %d fields, want %d: %q", n, maxWords+2, out)
	}
	if !strings.HasSuffix(out, "…") {
		t.Errorf("fallback should mark truncation: %q", out)
	}
}

func TestGenerateEmptySources(t *testing.T) {
	g := gen()
	if out := g.Generate(nil, []string{"x"}); out != "" {
		t.Errorf("empty sources produced %q", out)
	}
	if out := g.Generate([]Source{{Text: ""}}, []string{"x"}); out != "" {
		t.Errorf("blank source produced %q", out)
	}
}

func TestStopWordsNeverMatch(t *testing.T) {
	g := gen()
	out := g.Generate([]Source{{Text: "the keyword the"}}, []string{"the", "keyword"})
	if strings.Contains(out, "[the]") {
		t.Errorf("stop word highlighted: %q", out)
	}
}

func TestPunctuationAroundKeywords(t *testing.T) {
	g := gen()
	out := g.Generate([]Source{{Text: "intro (Keyword), outro"}}, []string{"keyword"})
	if !strings.Contains(out, "[(Keyword),]") {
		t.Errorf("punctuated match lost: %q", out)
	}
}

func BenchmarkGenerate(b *testing.B) {
	g := gen()
	src := []Source{
		{Label: "title", Text: "Efficient XML Keyword Search over large document collections"},
		{Label: "abstract", Text: strings.Repeat("filler words about data management and query processing ", 20) + "with keyword search semantics"},
	}
	kws := []string{"keyword", "search", "xml"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Generate(src, kws)
	}
}
