package index

import (
	"errors"
	"testing"

	"xks/internal/analysis"
	"xks/internal/dewey"
	"xks/internal/paperdata"
	"xks/internal/xmltree"
)

func pubIndex() *Index {
	return Build(paperdata.Publications(), analysis.New())
}

func codes(ss ...string) []dewey.Code {
	out := make([]dewey.Code, len(ss))
	for i, s := range ss {
		out[i] = dewey.MustParse(s)
	}
	return out
}

func sameCodes(t *testing.T, got, want []dewey.Code, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %v, want %v", label, got, want)
	}
	for i := range got {
		if !dewey.Equal(got[i], want[i]) {
			t.Fatalf("%s: got %v, want %v", label, got, want)
		}
	}
}

// Example 3 of the paper: keyword node sets for "Liu" and "keyword" on the
// Figure 1(a) instance.
func TestExample3KeywordSets(t *testing.T) {
	ix := pubIndex()
	sameCodes(t, ix.Lookup("liu"), codes("0.2.0.0.0.0", "0.2.0.3.0"), "D(liu)")
	sameCodes(t, ix.Lookup("keyword"), codes("0.2.0.1", "0.2.0.2", "0.2.0.3.0"), "D(keyword)")
}

// Example 6 of the paper: keyword node sets for Q3 on Figure 1(a).
func TestExample6KeywordSets(t *testing.T) {
	ix := pubIndex()
	sameCodes(t, ix.Lookup("vldb"), codes("0.0"), "D(vldb)")
	sameCodes(t, ix.Lookup("title"), codes("0.0", "0.2.0.1", "0.2.1.1"), "D(title)")
	for _, w := range []string{"xml", "search"} {
		sameCodes(t, ix.Lookup(w), codes("0.2.0.1", "0.2.0.2", "0.2.0.3.0"), "D("+w+")")
	}
}

func TestLabelsMatchAsKeywords(t *testing.T) {
	ix := pubIndex()
	// Every "name" element matches the keyword "name" via its label.
	sameCodes(t, ix.Lookup("name"), codes("0.2.0.0.0.0", "0.2.1.0.0.0", "0.2.1.0.1.0"), "D(name)")
}

func TestAttributesMatchAsKeywords(t *testing.T) {
	tr := xmltree.Build(xmltree.E{Label: "root", Kids: []xmltree.E{
		{Label: "item", Attrs: []xmltree.Attr{{Name: "category", Value: "skyline stuff"}}},
	}})
	ix := Build(tr, nil)
	sameCodes(t, ix.Lookup("skyline"), codes("0.0"), "D(skyline) via attribute value")
	sameCodes(t, ix.Lookup("category"), codes("0.0"), "D(category) via attribute name")
}

func TestKeywordSetsQuery(t *testing.T) {
	ix := pubIndex()
	words, sets, err := ix.KeywordSets(paperdata.Q2) // "Liu keyword"
	if err != nil {
		t.Fatal(err)
	}
	if len(words) != 2 || words[0] != "liu" || words[1] != "keyword" {
		t.Fatalf("words = %v", words)
	}
	if len(sets) != 2 || len(sets[0]) != 2 || len(sets[1]) != 3 {
		t.Fatalf("sets = %v", sets)
	}
}

func TestKeywordSetsErrors(t *testing.T) {
	ix := pubIndex()
	if _, _, err := ix.KeywordSets("the of and"); err == nil {
		t.Error("stop-word-only query should fail")
	}
	_, _, err := ix.KeywordSets("liu zebra")
	var nm *ErrNoMatch
	if !errors.As(err, &nm) || nm.Word != "zebra" {
		t.Errorf("want ErrNoMatch{zebra}, got %v", err)
	}
	if nm.Error() == "" {
		t.Error("empty error text")
	}
}

func TestFrequencyAndStats(t *testing.T) {
	ix := pubIndex()
	if got := ix.Frequency("keyword"); got != 3 {
		t.Errorf("Frequency(keyword) = %d, want 3", got)
	}
	if got := ix.Frequency("nonexistent"); got != 0 {
		t.Errorf("Frequency(nonexistent) = %d", got)
	}
	if ix.NumNodes() != paperdata.Publications().Size() {
		t.Errorf("NumNodes = %d", ix.NumNodes())
	}
	if ix.NumWords() == 0 {
		t.Error("empty vocabulary")
	}
	words := ix.Words()
	for i := 1; i < len(words); i++ {
		if words[i-1] >= words[i] {
			t.Fatalf("Words not sorted at %d: %v", i, words)
		}
	}
	if ix.Analyzer() == nil {
		t.Error("Analyzer is nil")
	}
}

func TestPostingListsArePreOrderSorted(t *testing.T) {
	ix := pubIndex()
	for _, w := range ix.Words() {
		list := ix.Lookup(w)
		for i := 1; i < len(list); i++ {
			if dewey.Compare(list[i-1], list[i]) >= 0 {
				t.Fatalf("postings for %q not strictly pre-order sorted: %v", w, list)
			}
		}
	}
}

func TestPostingsCopyIsShallow(t *testing.T) {
	ix := pubIndex()
	p := ix.Postings()
	delete(p, "keyword")
	if ix.Frequency("keyword") != 3 {
		t.Error("Postings map deletion affected index")
	}
}

func TestBuildNilAnalyzerDefaults(t *testing.T) {
	ix := Build(paperdata.Team(), nil)
	sameCodes(t, ix.Lookup("gassol"), codes("0.1.0.0"), "D(gassol)")
	sameCodes(t, ix.Lookup("position"), codes("0.1.0.1", "0.1.1.1", "0.1.2.1"), "D(position)")
	sameCodes(t, ix.Lookup("grizzlies"), codes("0.0"), "D(grizzlies)")
}

func BenchmarkBuild(b *testing.B) {
	tr := paperdata.Publications()
	a := analysis.New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Build(tr, a)
	}
}
