package query

import (
	"errors"
	"testing"

	"xks/internal/analysis"
)

func TestParsePlain(t *testing.T) {
	terms, err := Parse("XML the Keyword", analysis.New())
	if err != nil {
		t.Fatal(err)
	}
	if len(terms) != 2 || terms[0].Keyword != "xml" || terms[1].Keyword != "keyword" {
		t.Fatalf("terms = %+v", terms)
	}
	if terms[0].Label != "" || terms[1].Label != "" {
		t.Errorf("plain query has predicates: %+v", terms)
	}
}

func TestParseLabelPredicate(t *testing.T) {
	terms, err := Parse("title:XML author:", analysis.New())
	if err != nil {
		t.Fatal(err)
	}
	if len(terms) != 2 {
		t.Fatalf("terms = %+v", terms)
	}
	if terms[0].Label != "title" || terms[0].Keyword != "xml" {
		t.Errorf("term 0 = %+v", terms[0])
	}
	if terms[1].Label != "author" || terms[1].Keyword != "" {
		t.Errorf("term 1 = %+v", terms[1])
	}
	if terms[0].String() != "title:xml" || terms[1].String() != "author:" {
		t.Errorf("String() = %q / %q", terms[0].String(), terms[1].String())
	}
}

func TestParseColonOnlyKeyword(t *testing.T) {
	terms, err := Parse(":xml", analysis.New())
	if err != nil {
		t.Fatal(err)
	}
	if len(terms) != 1 || terms[0].Label != "" || terms[0].Keyword != "xml" {
		t.Fatalf("terms = %+v", terms)
	}
}

func TestParseErrors(t *testing.T) {
	an := analysis.New()
	for _, bad := range []string{"", "the of", ":", "a:b:c", "title:the"} {
		if _, err := Parse(bad, an); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestParseSentinelErrors(t *testing.T) {
	an := analysis.New()
	// Unsearchable queries wrap ErrEmptyQuery, matchable with errors.Is.
	for _, empty := range []string{"", "the of", "title:the"} {
		if _, err := Parse(empty, an); !errors.Is(err, ErrEmptyQuery) {
			t.Errorf("Parse(%q): err = %v, want ErrEmptyQuery", empty, err)
		}
	}
	// Malformed terms are plain errors, not empty-query errors.
	if _, err := Parse("a:b:c", an); err == nil || errors.Is(err, ErrEmptyQuery) {
		t.Errorf("Parse(malformed): err = %v, want a non-sentinel error", err)
	}
}

func TestParseDedup(t *testing.T) {
	terms, err := Parse("xml XML title:xml title:XML", analysis.New())
	if err != nil {
		t.Fatal(err)
	}
	if len(terms) != 2 {
		t.Fatalf("terms = %+v", terms)
	}
}

func TestParseTooManyTerms(t *testing.T) {
	q := ""
	for i := 0; i < 70; i++ {
		q += " word" + string(rune('a'+i%26)) + string(rune('a'+(i/26)))
	}
	if _, err := Parse(q, analysis.New()); !errors.Is(err, ErrTooManyTerms) {
		t.Errorf("65+ terms: err = %v, want ErrTooManyTerms", err)
	}
}

func TestMatchesLabel(t *testing.T) {
	cases := []struct {
		term  Term
		label string
		want  bool
	}{
		{Term{Keyword: "x"}, "anything", true},
		{Term{Keyword: "x", Label: "title"}, "title", true},
		{Term{Keyword: "x", Label: "Title"}, "title", true},
		{Term{Keyword: "x", Label: "title"}, "abstract", false},
	}
	for _, c := range cases {
		if got := c.term.MatchesLabel(c.label); got != c.want {
			t.Errorf("%+v MatchesLabel(%q) = %v", c.term, c.label, got)
		}
	}
}

func TestParseNilAnalyzer(t *testing.T) {
	terms, err := Parse("xml", nil)
	if err != nil || len(terms) != 1 {
		t.Fatalf("Parse with nil analyzer: %v %+v", err, terms)
	}
}
