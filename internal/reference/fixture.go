package reference

import (
	"fmt"
	"slices"

	"xks/internal/analysis"
	"xks/internal/dewey"
	"xks/internal/index"
)

// KeywordSets states a query the way the Dewey-code references read it: the
// query's keywords, analysed as every build analyses content and
// deduplicated in first-occurrence order, and their posting lists D1..Dk in
// query order, as code views into the index's node table. It fails with *index.ErrNoMatch
// when a keyword matches nothing (no fragment can cover the query), and
// with a plain error when the query analyses to no keyword or to more than
// 64 (the keyword mask's width).
func KeywordSets(ix *index.Index, query string) (words []string, sets [][]dewey.Code, err error) {
	for _, w := range analysis.New().Tokens(query) {
		if !slices.Contains(words, w) {
			words = append(words, w)
		}
	}
	if len(words) == 0 {
		return nil, nil, fmt.Errorf("reference: query %q contains no searchable keywords", query)
	}
	if len(words) > 64 {
		return nil, nil, fmt.Errorf("reference: query has %d keywords; at most 64 supported", len(words))
	}
	tab := ix.Table()
	sets = make([][]dewey.Code, len(words))
	for i, w := range words {
		ids := ix.LookupIDs(w)
		if len(ids) == 0 {
			return nil, nil, &index.ErrNoMatch{Word: w}
		}
		sets[i] = tab.Codes(ids)
	}
	return words, sets, nil
}
