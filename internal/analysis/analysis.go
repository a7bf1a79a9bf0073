// Package analysis provides the text pipeline used to derive the content set
// Cv of an XML node: tokenization, lower-casing and English stop-word
// removal.
//
// The paper tokenizes node labels, attribute values and text values, filters
// stop words with Lucene's English stop filter, and treats the remaining
// lower-cased words as the node's content. This package reproduces that
// pipeline with the standard library only: the stop list is the classic
// Lucene/Smart English list.
package analysis

import (
	"slices"
	"strings"
	"unicode"
)

// Analyzer turns raw text into content words. The zero value is not usable;
// construct one with New.
type Analyzer struct {
	stop map[string]struct{}
}

// New returns an Analyzer with the default English stop list.
func New() *Analyzer {
	return &Analyzer{stop: defaultStopSet()}
}

// Tokens splits s into lower-cased word tokens, dropping stop words and
// purely numeric tokens (the way the paper's shredder only records
// "interesting words"). Tokens preserve input order and may repeat.
func (a *Analyzer) Tokens(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	a.appendTokens(&out, s)
	return out
}

// ContentSet returns the distinct content words of the given pieces of text
// (label, attribute values, text value) in lexical order. This is the Cv of
// the paper: the word set implied in a node's label, text and attributes.
//
// The order is a contract, the same one store.ContentAt keeps: every
// content set that reaches pruning is a sorted set, so the (min,max) cID
// feature of §4.1 is its first and last word and internal/prune never scans
// the rest (see prune.IDContentFunc).
func (a *Analyzer) ContentSet(pieces ...string) []string {
	var toks []string
	for _, p := range pieces {
		a.appendTokens(&toks, p)
	}
	if len(toks) == 0 {
		return nil
	}
	slices.Sort(toks)
	return slices.Compact(toks)
}

// Normalize lower-cases a single query keyword, returning "" if the keyword
// is a stop word or tokenizes to nothing. Multi-word input keeps only the
// first token.
func (a *Analyzer) Normalize(word string) string {
	toks := a.Tokens(word)
	if len(toks) == 0 {
		return ""
	}
	return toks[0]
}

func (a *Analyzer) appendTokens(dst *[]string, s string) {
	start := -1
	hasLetter := false
	flush := func(end int) {
		if start < 0 {
			return
		}
		word, letters := s[start:end], hasLetter
		start, hasLetter = -1, false
		if !letters {
			return
		}
		tok := strings.ToLower(word)
		if _, stop := a.stop[tok]; stop {
			return
		}
		*dst = append(*dst, tok)
	}
	for i, r := range s {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			if start < 0 {
				start = i
			}
			if unicode.IsLetter(r) {
				hasLetter = true
			}
			continue
		}
		flush(i)
	}
	flush(len(s))
}
