// Package query parses keyword queries with optional label predicates, the
// XSearch-style extension (Cohen et al., VLDB 2003) the paper's related
// work discusses for incorporating more information into keywords:
//
//	xml keyword             plain keywords (the paper's core query model)
//	title:xml               keyword "xml" restricted to <title> nodes
//	author:                 any <author> node (label-only predicate)
//
// Terms normalize through the same analyzer as document content, so
// matching stays consistent with the index.
package query

import (
	"errors"
	"fmt"
	"strings"

	"xks/internal/analysis"
)

// MaxTerms bounds the number of terms per query: keyword membership is
// tracked in a 64-bit mask throughout the pipeline.
const MaxTerms = 64

// Sentinel errors, matched with errors.Is. The xks package re-exports them
// so HTTP handlers can map them to status codes without string matching.
var (
	// ErrEmptyQuery reports a query with no searchable terms (empty, all
	// stop words, or unsearchable predicates).
	ErrEmptyQuery = errors.New("query contains no searchable terms")
	// ErrTooManyTerms reports a query exceeding MaxTerms terms.
	ErrTooManyTerms = errors.New("too many query terms")
)

// Term is one parsed query term.
type Term struct {
	// Keyword is the normalized keyword, or "" for a label-only term.
	Keyword string
	// Label restricts matches to nodes with this element name ("" = any).
	// Comparison is case-insensitive.
	Label string
	// Raw preserves the original token for display.
	Raw string
}

// String renders the term in input syntax.
func (t Term) String() string {
	if t.Label == "" {
		return t.Keyword
	}
	return t.Label + ":" + t.Keyword
}

// MatchesLabel reports whether the term's label predicate accepts the
// element name.
func (t Term) MatchesLabel(label string) bool {
	return t.Label == "" || strings.EqualFold(t.Label, label)
}

// Parse splits a query into terms, normalizing keywords with the analyzer
// and dropping duplicates. It fails when nothing searchable remains or a
// token is malformed.
func Parse(q string, an *analysis.Analyzer) ([]Term, error) {
	if an == nil {
		an = analysis.New()
	}
	var out []Term
	seen := map[string]bool{}
	for _, tok := range strings.Fields(q) {
		var term Term
		term.Raw = tok
		if i := strings.IndexByte(tok, ':'); i >= 0 {
			label := strings.TrimSpace(tok[:i])
			word := strings.TrimSpace(tok[i+1:])
			if label == "" && word == "" {
				return nil, fmt.Errorf("query: malformed term %q", tok)
			}
			if strings.ContainsRune(word, ':') {
				return nil, fmt.Errorf("query: malformed term %q (multiple colons)", tok)
			}
			term.Label = label
			if word != "" {
				term.Keyword = an.Normalize(word)
				if term.Keyword == "" {
					// Keyword part was a stop word or unsearchable: the
					// term cannot match anything meaningful.
					return nil, fmt.Errorf("query: term %q has an unsearchable keyword: %w", tok, ErrEmptyQuery)
				}
			} else if label == "" {
				return nil, fmt.Errorf("query: malformed term %q", tok)
			}
		} else {
			term.Keyword = an.Normalize(tok)
			if term.Keyword == "" {
				continue // plain stop words are silently dropped
			}
		}
		key := strings.ToLower(term.Label) + ":" + term.Keyword
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, term)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("query: %q: %w", q, ErrEmptyQuery)
	}
	if len(out) > MaxTerms {
		return nil, fmt.Errorf("query: %d terms, at most %d supported: %w", len(out), MaxTerms, ErrTooManyTerms)
	}
	return out, nil
}
