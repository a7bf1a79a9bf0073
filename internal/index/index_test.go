package index_test

import (
	"slices"
	"strings"
	"testing"

	"xks/internal/analysis"
	"xks/internal/dewey"
	"xks/internal/index"
	"xks/internal/planner"
	"xks/internal/reference"
	"xks/internal/xmltree"
)

func pubIndex() *index.Index {
	return index.Build(reference.Publications(), analysis.New())
}

// pubWords returns the Figure 1(a) vocabulary, read from its rows.
func pubWords() []string {
	rows, err := index.Analyze(reference.Publications(), analysis.New())
	if err != nil {
		panic(err)
	}
	return rows.Words
}

// lookup returns the word's posting list as dotted Dewey codes, read
// through LookupIDs and the index's node table.
func lookup(ix *index.Index, word string) []string {
	ids := ix.LookupIDs(word)
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = ix.Table().Code(id).String()
	}
	return out
}

func sameCodes(t *testing.T, got []string, want []string, label string) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Fatalf("%s: got %v, want %v", label, got, want)
	}
}

// Example 3 of the paper: keyword node sets for "Liu" and "keyword" on the
// Figure 1(a) instance.
func TestExample3KeywordSets(t *testing.T) {
	ix := pubIndex()
	sameCodes(t, lookup(ix, "liu"), []string{"0.2.0.0.0.0", "0.2.0.3.0"}, "D(liu)")
	sameCodes(t, lookup(ix, "keyword"), []string{"0.2.0.1", "0.2.0.2", "0.2.0.3.0"}, "D(keyword)")
}

// Example 6 of the paper: keyword node sets for Q3 on Figure 1(a).
func TestExample6KeywordSets(t *testing.T) {
	ix := pubIndex()
	sameCodes(t, lookup(ix, "vldb"), []string{"0.0"}, "D(vldb)")
	sameCodes(t, lookup(ix, "title"), []string{"0.0", "0.2.0.1", "0.2.1.1"}, "D(title)")
	for _, w := range []string{"xml", "search"} {
		sameCodes(t, lookup(ix, w), []string{"0.2.0.1", "0.2.0.2", "0.2.0.3.0"}, "D("+w+")")
	}
}

func TestLabelsMatchAsKeywords(t *testing.T) {
	ix := pubIndex()
	// Every "name" element matches the keyword "name" via its label.
	sameCodes(t, lookup(ix, "name"), []string{"0.2.0.0.0.0", "0.2.1.0.0.0", "0.2.1.0.1.0"}, "D(name)")
}

func TestAttributesMatchAsKeywords(t *testing.T) {
	tr := xmltree.Build(xmltree.E{Label: "root", Kids: []xmltree.E{
		{Label: "item", Attrs: []xmltree.Attr{{Name: "category", Value: "skyline stuff"}}},
	}})
	ix := index.Build(tr, nil)
	sameCodes(t, lookup(ix, "skyline"), []string{"0.0"}, "D(skyline) via attribute value")
	sameCodes(t, lookup(ix, "category"), []string{"0.0"}, "D(category) via attribute name")
}

// TestKeywordSetsQuery: the keyword sets of Q2 ("Liu keyword") are the
// posting lists of its two keywords, two and three nodes long.
func TestKeywordSetsQuery(t *testing.T) {
	ix := pubIndex()
	if got := analysis.New().Tokens(reference.Q2); !slices.Equal(got, []string{"liu", "keyword"}) {
		t.Fatalf("words = %v", got)
	}
	if len(ix.LookupIDs("liu")) != 2 || len(ix.LookupIDs("keyword")) != 3 {
		t.Fatalf("sets = %v, %v", ix.LookupIDs("liu"), ix.LookupIDs("keyword"))
	}
}

// TestKeywordSetsErrors: a stop-word-only query has no keyword, and a word
// no node contains has no posting list, which the engine reports as
// *ErrNoMatch.
func TestKeywordSetsErrors(t *testing.T) {
	ix := pubIndex()
	if got := analysis.New().Tokens("the of and"); len(got) != 0 {
		t.Errorf("stop-word-only query has keywords %v", got)
	}
	if ix.LookupIDs("zebra") != nil || ix.Frequency("zebra") != 0 {
		t.Error("zebra should have no posting list")
	}
	if len(ix.LookupIDs("liu")) == 0 {
		t.Error("liu should have a posting list")
	}
	nm := &index.ErrNoMatch{Word: "zebra"}
	if !strings.Contains(nm.Error(), `"zebra"`) {
		t.Errorf("error text %q does not name the word", nm.Error())
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
	if ix.NumNodes() != reference.Publications().Size() {
		t.Errorf("NumNodes = %d", ix.NumNodes())
	}
	if ix.NumWords() == 0 {
		t.Error("empty vocabulary")
	}
	// The statistics Build sums from the rows are those of a scan of
	// every list.
	var scan planner.Stats
	words := pubWords()
	for _, w := range words {
		for _, id := range ix.LookupIDs(w) {
			scan.Postings++
			scan.DepthSum += int64(ix.Table().Depth(id))
		}
	}
	if st := ix.Stats(); st != scan || st.AvgDepth() <= 0 {
		t.Errorf("Stats = %+v, scan %+v", st, scan)
	}
	if len(words) != ix.NumWords() {
		t.Errorf("%d words in the rows, %d in the index", len(words), ix.NumWords())
	}
	for i := 1; i < len(words); i++ {
		if words[i-1] >= words[i] {
			t.Fatalf("vocabulary not sorted at %d: %v", i, words)
		}
	}
}

func TestPostingListsArePreOrderSorted(t *testing.T) {
	ix := pubIndex()
	for _, w := range pubWords() {
		list := ix.LookupIDs(w)
		for i := 1; i < len(list); i++ {
			if list[i-1] >= list[i] || dewey.Compare(ix.Table().Code(list[i-1]), ix.Table().Code(list[i])) >= 0 {
				t.Fatalf("postings for %q not strictly pre-order sorted: %v", w, lookup(ix, w))
			}
		}
	}
}

func TestBuildNilAnalyzerDefaults(t *testing.T) {
	ix := index.Build(reference.Team(), nil)
	sameCodes(t, lookup(ix, "gassol"), []string{"0.1.0.0"}, "D(gassol)")
	sameCodes(t, lookup(ix, "position"), []string{"0.1.0.1", "0.1.1.1", "0.1.2.1"}, "D(position)")
	sameCodes(t, lookup(ix, "grizzlies"), []string{"0.0"}, "D(grizzlies)")
}

func BenchmarkBuild(b *testing.B) {
	tr := reference.Publications()
	a := analysis.New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		index.Build(tr, a)
	}
}
