package analysis

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unicode"

	"xks/internal/datagen"
	"xks/internal/paperdata"
	"xks/internal/xmltree"
)

// referenceContentSet is the tokenizer the one-pass nextWord replaced: a
// range over the runes, unicode.IsLetter/IsDigit on every one,
// strings.ToLower and a stop-list lookup per word, then sort and compact.
func referenceContentSet(a *Analyzer, pieces ...string) []string {
	var toks []string
	for _, s := range pieces {
		start, hasLetter := -1, false
		flush := func(end int) {
			if start >= 0 && hasLetter {
				if tok := strings.ToLower(s[start:end]); !isStop(a, tok) {
					toks = append(toks, tok)
				}
			}
			start, hasLetter = -1, false
		}
		for i, r := range s {
			if unicode.IsLetter(r) || unicode.IsDigit(r) {
				if start < 0 {
					start = i
				}
				hasLetter = hasLetter || unicode.IsLetter(r)
				continue
			}
			flush(i)
		}
		flush(len(s))
	}
	if len(toks) == 0 {
		return nil
	}
	slices.Sort(toks)
	return slices.Compact(toks)
}

func isStop(a *Analyzer, tok string) bool {
	_, stop := a.stop[tok]
	return stop
}

// vocabContentSet is the build path's content set: the vocabulary's IDs,
// as words.
func vocabContentSet(v *Vocab, pieces ...string) []string {
	var out []string
	for _, id := range v.AppendContent(nil, pieces...) {
		out = append(out, v.Word(id))
	}
	return out
}

// TestContentSetMatchesReference compares, node by node, the content set
// of every node of the evaluation corpora and the paper's documents — by
// Analyzer.ContentSet and by one build vocabulary across all nodes — with
// the reference tokenizer, and the same on hand-picked pieces: mixed case,
// non-ASCII letters and digits, case mappings that change a word's length,
// digit-only words, stop words in any case, and bytes that are not UTF-8.
func TestContentSetMatchesReference(t *testing.T) {
	a := New()
	v := a.NewVocab()
	check := func(where string, pieces ...string) {
		t.Helper()
		want := referenceContentSet(a, pieces...)
		if got := a.ContentSet(pieces...); !slices.Equal(got, want) {
			t.Fatalf("%s: ContentSet(%q) = %q, reference %q", where, pieces, got, want)
		}
		if got := vocabContentSet(v, pieces...); !slices.Equal(got, want) {
			t.Fatalf("%s: vocabulary content set of %q = %q, reference %q", where, pieces, got, want)
		}
	}
	nodes := 0
	for name, tr := range map[string]*xmltree.Tree{
		"dblp":         datagen.DBLP(datagen.DBLPConfig{Seed: 1, NumRecords: 3000}),
		"xmark":        datagen.XMark(datagen.XMarkConfig{Seed: 2, Items: 600}),
		"publications": paperdata.Publications(),
		"team":         paperdata.Team(),
	} {
		tr.Walk(func(n *xmltree.Node) bool {
			nodes++
			check(name+" "+n.Code.String(), n.ContentPieces()...)
			return true
		})
	}
	if nodes < 10000 {
		t.Fatalf("compared %d nodes", nodes)
	}
	for _, pieces := range [][]string{
		{"XML Keyword SEARCH", "xml keyword search", "Xml"},
		{"Rémi Gilleron", "RÉMI", "Straße STRASSE", "ΣΊΣΥΦΟΣ σίσυφος"},
		{"İstanbul", "ǅemal", "K", "Ⅻ ⅻ"},   // Kelvin sign, title case, letter numbers
		{"2008", "١٢٣", "x86 B2B 2B", "٣a"}, // digit-only, Arabic-Indic digits
		{"The THE the", "and AND", "Aren't aren't", "I'll"},
		{"a\xffb", "\xc3(", "caf\xc3\xa9\xe2\x80", "\xed\xa0\x80x"},
		{"", "   ", "--", "_a_b_"},
	} {
		check("cases", pieces...)
	}
	f := func(p1, p2 string) bool {
		return slices.Equal(a.ContentSet(p1, p2), referenceContentSet(a, p1, p2)) &&
			slices.Equal(vocabContentSet(v, p1, p2), referenceContentSet(a, p1, p2))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
