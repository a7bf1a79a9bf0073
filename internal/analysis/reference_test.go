package analysis_test

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unicode"

	"xks/internal/analysis"
	"xks/internal/datagen"
	"xks/internal/reference"
	"xks/internal/xmltree"
)

// referenceContentSet is the tokenizer the one-pass nextWord replaced: a
// range over the runes, unicode.IsLetter/IsDigit on every one,
// strings.ToLower and a stop-list lookup per word, then sort and compact.
func referenceContentSet(a *analysis.Analyzer, pieces ...string) []string {
	var toks []string
	for _, s := range pieces {
		start, hasLetter := -1, false
		flush := func(end int) {
			if start >= 0 && hasLetter {
				if tok := strings.ToLower(s[start:end]); !analysis.IsStop(a, tok) {
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

// finishedRows is what a build makes of the given nodes' content: one
// vocabulary across all of them, each node's IDs appended (AppendContent),
// then the vocabulary sorted and every row renumbered and sorted, as
// index.Rows holds them — read back as words.
func finishedRows(a *analysis.Analyzer, nodes ...[]string) [][]string {
	v := a.NewVocab()
	rows := make([][]uint32, len(nodes))
	for i, pieces := range nodes {
		rows[i] = v.AppendContent(nil, pieces...)
	}
	words, rank := v.Sort()
	out := make([][]string, len(rows))
	for i, row := range rows {
		for j, id := range row {
			row[j] = rank[id]
		}
		slices.Sort(row)
		for _, id := range row {
			out[i] = append(out[i], words[id])
		}
	}
	return out
}

// TestContentSetMatchesReference compares, node by node, the content set
// of every node of the evaluation corpora and the paper's documents — by
// Analyzer.ContentSet against the reference tokenizer, and by the finished
// rows of one build vocabulary across all nodes against ContentSet — and
// the same on hand-picked pieces: mixed case, non-ASCII letters and digits,
// case mappings that change a word's length, digit-only words, stop words
// in any case, and bytes that are not UTF-8.
func TestContentSetMatchesReference(t *testing.T) {
	a := analysis.New()
	var (
		nodes [][]string
		where []string
	)
	check := func(at string, pieces ...string) {
		t.Helper()
		want := referenceContentSet(a, pieces...)
		if got := a.ContentSet(pieces...); !slices.Equal(got, want) {
			t.Fatalf("%s: ContentSet(%q) = %q, reference %q", at, pieces, got, want)
		}
		nodes, where = append(nodes, pieces), append(where, at)
	}
	for name, tr := range map[string]*xmltree.Tree{
		"dblp":         datagen.DBLP(datagen.DBLPConfig{Seed: 1, NumRecords: 3000}),
		"xmark":        datagen.XMark(datagen.XMarkConfig{Seed: 2, Items: 600}),
		"publications": reference.Publications(),
		"team":         reference.Team(),
	} {
		tr.Walk(func(n *xmltree.Node) bool {
			check(name+" "+n.Code.String(), n.ContentPieces()...)
			return true
		})
	}
	if len(nodes) < 10000 {
		t.Fatalf("compared %d nodes", len(nodes))
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
	for i, row := range finishedRows(a, nodes...) {
		if want := a.ContentSet(nodes[i]...); !slices.Equal(row, want) {
			t.Fatalf("%s: finished row of %q = %q, ContentSet %q", where[i], nodes[i], row, want)
		}
	}
	f := func(p1, p2 string) bool {
		want := referenceContentSet(a, p1, p2)
		return slices.Equal(a.ContentSet(p1, p2), want) && slices.Equal(finishedRows(a, []string{p1, p2})[0], want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
