// Package snippet generates query-biased text snippets for meaningful
// fragments, in the spirit of the snippet work the paper cites as related
// ([25], Huang, Liu & Chen, SIGMOD 2008): a compact, human-readable line
// per fragment showing every query keyword in its immediate context.
//
// The generator walks the fragment's keyword nodes in document order, takes
// a window of words around each keyword occurrence, highlights keywords,
// merges overlapping windows and truncates to a budget, preferring coverage
// (every keyword visible at least once) over repetition.
package snippet

import (
	"strings"

	"xks/internal/analysis"
)

const (
	// window is the number of context words kept on each side of a
	// keyword occurrence.
	window = 3
	// maxWords caps the total snippet length in words.
	maxWords = 40
	// highlightL and highlightR wrap matched keywords.
	highlightL, highlightR = "[", "]"
	// ellipsis joins non-adjacent extracts.
	ellipsis = " … "
)

// Source is one text-bearing node of a fragment, in document order.
type Source struct {
	// Label is the element name, shown as a field prefix ("title: …").
	Label string
	// Text is the raw text to extract from.
	Text string
}

// Generator builds snippets with a shared analyzer.
type Generator struct {
	an *analysis.Analyzer
}

// NewGenerator returns a snippet generator; a nil analyzer uses the
// default.
func NewGenerator(an *analysis.Analyzer) *Generator {
	if an == nil {
		an = analysis.New()
	}
	return &Generator{an: an}
}

type extract struct {
	label string
	words []string
	hits  map[string]bool // keywords covered by this extract
}

// Generate produces a snippet over the sources for the given normalized
// query keywords. Sources that contain no keyword contribute nothing; if
// nothing matches, the first source's leading words are returned as a
// fallback.
func (g *Generator) Generate(sources []Source, keywords []string) string {
	kw := make(map[string]bool, len(keywords))
	for _, k := range keywords {
		kw[strings.ToLower(k)] = true
	}
	var extracts []extract
	for _, src := range sources {
		extracts = append(extracts, g.extractFrom(src, kw)...)
	}
	if len(extracts) == 0 {
		return g.fallback(sources)
	}

	// Greedy selection: first pass favours extracts that add unseen
	// keywords; second pass fills the remaining budget in document order.
	seen := map[string]bool{}
	budget := maxWords
	chosen := make([]bool, len(extracts))
	for i, ex := range extracts {
		adds := false
		for k := range ex.hits {
			if !seen[k] {
				adds = true
				break
			}
		}
		if !adds || len(ex.words) > budget {
			continue
		}
		chosen[i] = true
		budget -= len(ex.words)
		for k := range ex.hits {
			seen[k] = true
		}
	}
	for i, ex := range extracts {
		if chosen[i] || len(ex.words) > budget {
			continue
		}
		chosen[i] = true
		budget -= len(ex.words)
	}

	var parts []string
	for i, ex := range extracts {
		if !chosen[i] {
			continue
		}
		body := strings.Join(ex.words, " ")
		if ex.label != "" {
			body = ex.label + ": " + body
		}
		parts = append(parts, body)
	}
	return strings.Join(parts, ellipsis)
}

// extractFrom finds keyword occurrences in one source and cuts highlighted
// context windows, merging overlaps.
func (g *Generator) extractFrom(src Source, kw map[string]bool) []extract {
	raw := strings.Fields(src.Text)
	if len(raw) == 0 {
		return nil
	}
	type span struct{ lo, hi int }
	var spans []span
	hitAt := make([]string, len(raw))
	for i, w := range raw {
		norm := g.an.Normalize(w)
		if norm == "" || !kw[norm] {
			continue
		}
		hitAt[i] = norm
		lo := i - window
		if lo < 0 {
			lo = 0
		}
		hi := i + window + 1
		if hi > len(raw) {
			hi = len(raw)
		}
		if n := len(spans); n > 0 && lo <= spans[n-1].hi {
			if hi > spans[n-1].hi {
				spans[n-1].hi = hi
			}
			continue
		}
		spans = append(spans, span{lo, hi})
	}
	var out []extract
	for _, sp := range spans {
		ex := extract{label: src.Label, hits: map[string]bool{}}
		for i := sp.lo; i < sp.hi; i++ {
			w := raw[i]
			if hitAt[i] != "" {
				w = highlightL + w + highlightR
				ex.hits[hitAt[i]] = true
			}
			ex.words = append(ex.words, w)
		}
		if sp.lo > 0 {
			ex.words = append([]string{"…"}, ex.words...)
		}
		if sp.hi < len(raw) {
			ex.words = append(ex.words, "…")
		}
		out = append(out, ex)
	}
	return out
}

func (g *Generator) fallback(sources []Source) string {
	for _, src := range sources {
		words := strings.Fields(src.Text)
		if len(words) == 0 {
			continue
		}
		if len(words) > maxWords {
			words = append(words[:maxWords], "…")
		}
		body := strings.Join(words, " ")
		if src.Label != "" {
			body = src.Label + ": " + body
		}
		return body
	}
	return ""
}
