package analysis

import (
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestTokensBasic(t *testing.T) {
	a := New()
	cases := []struct {
		in   string
		want []string
	}{
		{"XML Keyword Search", []string{"xml", "keyword", "search"}},
		{"Efficient Skyline Querying with Variable User Preferences on Nominal Attributes",
			[]string{"efficient", "skyline", "querying", "variable", "user", "preferences", "nominal", "attributes"}},
		{"the and of", nil},
		{"", nil},
		{"   ", nil},
		{"Liu,Chen;Wong", []string{"liu", "chen", "wong"}},
		{"foo-bar_baz", []string{"foo", "bar", "baz"}},
		{"2008", nil},                   // pure digits dropped
		{"VLDB 2008", []string{"vldb"}}, // year dropped, venue kept
		{"B2B x86", []string{"b2b", "x86"}},
	}
	for _, c := range cases {
		got := a.Tokens(c.in)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokens(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestContentSetDedupsAcrossPieces(t *testing.T) {
	a := New()
	got := a.ContentSet("title", "Keyword Search", "keyword match")
	sort.Strings(got)
	want := []string{"keyword", "match", "search", "title"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ContentSet = %v, want %v", got, want)
	}
}

func TestContentSetEmpty(t *testing.T) {
	a := New()
	if got := a.ContentSet("", "the", "of"); got != nil {
		t.Errorf("ContentSet of stop words = %v, want nil", got)
	}
}

func TestNormalize(t *testing.T) {
	a := New()
	if got := a.Normalize("Keyword"); got != "keyword" {
		t.Errorf("Normalize = %q", got)
	}
	if got := a.Normalize("THE"); got != "" {
		t.Errorf("Normalize stop word = %q, want empty", got)
	}
	if got := a.Normalize(""); got != "" {
		t.Errorf("Normalize empty = %q", got)
	}
}

func TestIsStopWord(t *testing.T) {
	a := New()
	if got := a.Tokens("The"); got != nil {
		t.Errorf("Tokens(The) = %v: The should be a stop word", got)
	}
	if got := a.Tokens("keyword"); !reflect.DeepEqual(got, []string{"keyword"}) {
		t.Errorf("Tokens(keyword) = %v: keyword should not be a stop word", got)
	}
}

func TestUnicodeTokens(t *testing.T) {
	a := New()
	got := a.Tokens("Rémi Gilleron, Aurélien Lemay")
	want := []string{"rémi", "gilleron", "aurélien", "lemay"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("unicode Tokens = %v, want %v", got, want)
	}
}

// Property: tokens are lower case, non-empty, never stop words, and re-tokenizing
// a token yields the token itself (idempotence).
func TestTokensIdempotent(t *testing.T) {
	a := New()
	f := func(s string) bool {
		for _, tok := range a.Tokens(s) {
			if _, stop := a.stop[tok]; tok == "" || stop {
				return false
			}
			again := a.Tokens(tok)
			if len(again) != 1 || again[0] != tok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// Property: ContentSet returns distinct words and is invariant to piece order.
func TestContentSetDistinctAndOrderInvariant(t *testing.T) {
	a := New()
	f := func(p1, p2 string) bool {
		s1 := a.ContentSet(p1, p2)
		s2 := a.ContentSet(p2, p1)
		m := map[string]int{}
		for _, w := range s1 {
			m[w]++
			if m[w] > 1 {
				return false
			}
		}
		if len(s1) != len(s2) {
			return false
		}
		set2 := map[string]struct{}{}
		for _, w := range s2 {
			set2[w] = struct{}{}
		}
		for _, w := range s1 {
			if _, ok := set2[w]; !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func BenchmarkTokens(b *testing.B) {
	a := New()
	s := "Efficient Skyline Querying with Variable User Preferences on Nominal Attributes in the VLDB 2008 proceedings"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Tokens(s)
	}
}
