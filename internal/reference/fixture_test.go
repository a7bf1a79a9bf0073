package reference

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"xks/internal/analysis"
	"xks/internal/index"
)

func pubIndex() *index.Index {
	return index.Build(Publications(), analysis.New())
}

// TestKeywordSetsNormalizeQuery: the query's keywords are analysed, stop
// words dropped, and duplicates dropped in first-occurrence order.
func TestKeywordSetsNormalizeQuery(t *testing.T) {
	words, sets, err := KeywordSets(pubIndex(), "XML the XML keyword")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(words, []string{"xml", "keyword"}) || len(sets) != 2 {
		t.Errorf("words = %v, %d sets; want [xml keyword], 2 sets", words, len(sets))
	}
}

// TestKeywordSetsQuery: Q2 ("Liu keyword") states the posting lists of
// Example 3 as Dewey codes, in query order.
func TestKeywordSetsQuery(t *testing.T) {
	words, sets, err := KeywordSets(pubIndex(), Q2)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(words, []string{"liu", "keyword"}) {
		t.Fatalf("words = %v", words)
	}
	want := [][]string{{"0.2.0.0.0.0", "0.2.0.3.0"}, {"0.2.0.1", "0.2.0.2", "0.2.0.3.0"}}
	for i, set := range sets {
		got := make([]string, len(set))
		for j, c := range set {
			got[j] = c.String()
		}
		if !slices.Equal(got, want[i]) {
			t.Errorf("D(%s) = %v, want %v", words[i], got, want[i])
		}
	}
}

func TestKeywordSetsErrors(t *testing.T) {
	ix := pubIndex()
	if _, _, err := KeywordSets(ix, "the of and"); err == nil {
		t.Error("stop-word-only query should fail")
	}
	_, _, err := KeywordSets(ix, "liu zebra")
	var nm *index.ErrNoMatch
	if !errors.As(err, &nm) || nm.Word != "zebra" {
		t.Errorf("want ErrNoMatch{zebra}, got %v", err)
	}
	many := make([]string, 65)
	for i := range many {
		many[i] = "w" + strings.Repeat("x", i)
	}
	if _, _, err := KeywordSets(ix, strings.Join(many, " ")); err == nil || errors.As(err, &nm) {
		t.Errorf("65 keywords: got %v, want the mask-width error", err)
	}
}
