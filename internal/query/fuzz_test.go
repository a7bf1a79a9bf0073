package query

import (
	"strings"
	"testing"

	"xks/internal/analysis"
)

// FuzzParse checks the query parser never panics and that parsed terms are
// well formed: non-empty, normalized keywords and single-colon syntax.
func FuzzParse(f *testing.F) {
	f.Add("xml keyword search")
	f.Add("title:xml author:")
	f.Add(":a ::b c:")
	f.Add("   ")
	f.Add("label:word extra:stuff:here")
	an := analysis.New()
	f.Fuzz(func(t *testing.T, q string) {
		terms, err := Parse(q, an)
		if err != nil {
			return
		}
		if len(terms) == 0 {
			t.Fatal("Parse returned no terms without error")
		}
		for _, term := range terms {
			if term.Keyword == "" && term.Label == "" {
				t.Fatalf("empty term from %q", q)
			}
			if term.Keyword != "" {
				if term.Keyword != strings.ToLower(term.Keyword) {
					t.Fatalf("keyword not normalized: %q", term.Keyword)
				}
				if an.Normalize(term.Keyword) == "" {
					t.Fatalf("stop word survived: %q", term.Keyword)
				}
			}
			if strings.Count(term.Label, ":") != 0 {
				t.Fatalf("label contains colon: %q", term.Label)
			}
		}
	})
}
