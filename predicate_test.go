package xks

import (
	"context"
	"slices"
	"strings"
	"testing"

	"xks/internal/reference"
)

// "title:skyline" must match only the title node, not the abstract that
// also contains "skyline".
func TestLabelPredicateRestrictsMatches(t *testing.T) {
	e := FromTree(reference.Publications())

	plain, err := e.Search(context.Background(), Request{Query: "wong skyline"})
	if err != nil {
		t.Fatal(err)
	}
	pred, err := e.Search(context.Background(), Request{Query: "wong title:skyline"})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Fragments) != 1 || len(pred.Fragments) != 1 {
		t.Fatalf("fragments: plain %d, pred %d", len(plain.Fragments), len(pred.Fragments))
	}
	// The plain query's fragment carries both skyline occurrences (title
	// and abstract); the predicate query's carries only the title.
	var plainSkyline, predSkyline []string
	for i, n := range plain.Fragments[0].Nodes {
		if slices.Contains(plain.Fragments[0].NodeMatched(i), "skyline") {
			plainSkyline = append(plainSkyline, n.Dewey)
		}
	}
	// Matched entries carry the full term syntax for predicate terms.
	for i, n := range pred.Fragments[0].Nodes {
		if slices.Contains(pred.Fragments[0].NodeMatched(i), "title:skyline") {
			predSkyline = append(predSkyline, n.Dewey)
		}
	}
	if len(plainSkyline) != 2 {
		t.Errorf("plain skyline nodes = %v, want both title and abstract", plainSkyline)
	}
	if len(predSkyline) != 1 || predSkyline[0] != "0.2.1.1" {
		t.Errorf("predicate skyline nodes = %v, want only the title 0.2.1.1", predSkyline)
	}
}

// A label-only term ("author:") anchors fragments at structures containing
// that element.
func TestLabelOnlyTerm(t *testing.T) {
	e := FromTree(reference.Publications())
	res, err := e.Search(context.Background(), Request{Query: "author: skyline"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fragments) != 1 {
		t.Fatalf("fragments = %d", len(res.Fragments))
	}
	if res.Fragments[0].Root != "0.2.1" {
		t.Errorf("root = %s, want the skyline article 0.2.1", res.Fragments[0].Root)
	}
	if res.Stats.Keywords[0] != "author:" {
		t.Errorf("display keywords = %v", res.Stats.Keywords)
	}
}

// Predicates that match nothing produce an empty result, like plain
// keywords that match nothing.
func TestPredicateNoMatch(t *testing.T) {
	e := FromTree(reference.Publications())
	res, err := e.Search(context.Background(), Request{Query: "abstract:wong"}) // "wong" only in a name node
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fragments) != 0 {
		t.Errorf("fragments = %d, want 0", len(res.Fragments))
	}
	res, err = e.Search(context.Background(), Request{Query: "zebra: keyword"}) // no <zebra> elements
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fragments) != 0 {
		t.Errorf("fragments = %d, want 0", len(res.Fragments))
	}
}

// Malformed predicate terms are errors.
func TestPredicateErrors(t *testing.T) {
	e := FromTree(reference.Publications())
	for _, bad := range []string{":", "a:b:c", "title:the"} {
		if _, err := e.Search(context.Background(), Request{Query: bad}); err == nil {
			t.Errorf("Search(%q) should fail", bad)
		}
	}
}

// Predicate labels are case-insensitive.
func TestPredicateLabelCaseInsensitive(t *testing.T) {
	e := FromTree(reference.Publications())
	res, err := e.Search(context.Background(), Request{Query: "TITLE:skyline wong"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fragments) != 1 {
		t.Errorf("fragments = %d", len(res.Fragments))
	}
}

// Predicates compose with the rest of the pipeline: ranking, comparison and
// the store-backed engine.
func TestPredicateIntegration(t *testing.T) {
	eTree := FromTree(reference.Publications())
	res, err := eTree.Search(context.Background(), Request{Query: "title:skyline wong", Rank: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fragments) != 1 || res.Fragments[0].Score <= 0 {
		t.Errorf("ranked predicate search = %+v", res.Fragments)
	}
	cmp, err := eTree.Compare(context.Background(), Request{Query: "title:keyword liu"})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.NumRTFs == 0 {
		t.Error("Compare with predicate found nothing")
	}
}

func TestPredicateAgainstStoreEngine(t *testing.T) {
	eTree := FromTree(reference.Publications())
	eStore := storeEngine(t)
	for _, q := range []string{"title:skyline wong", "author: skyline", "ref:liu keyword"} {
		a, errA := eTree.Search(context.Background(), Request{Query: q})
		b, errB := eStore.Search(context.Background(), Request{Query: q})
		if (errA == nil) != (errB == nil) {
			t.Fatalf("%q: error mismatch: %v vs %v", q, errA, errB)
		}
		if errA != nil {
			continue
		}
		if len(a.Fragments) != len(b.Fragments) {
			t.Fatalf("%q: %d vs %d fragments", q, len(a.Fragments), len(b.Fragments))
		}
		for i := range a.Fragments {
			if a.Fragments[i].Root != b.Fragments[i].Root || a.Fragments[i].Len() != b.Fragments[i].Len() {
				t.Errorf("%q fragment %d: %s/%d vs %s/%d", q, i,
					a.Fragments[i].Root, a.Fragments[i].Len(),
					b.Fragments[i].Root, b.Fragments[i].Len())
			}
		}
	}
}

// The Q3 result is unchanged when written with explicit predicates that
// mirror the plain semantics.
func TestPredicateEquivalentToPlainWhenUnrestrictive(t *testing.T) {
	e := FromTree(reference.Publications())
	plain, err := e.Search(context.Background(), Request{Query: reference.Q2})
	if err != nil {
		t.Fatal(err)
	}
	// ":liu :keyword" is plain syntax through the colon parser.
	pred, err := e.Search(context.Background(), Request{Query: ":liu :keyword"})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Fragments) != len(pred.Fragments) {
		t.Fatalf("fragment counts differ: %d vs %d", len(plain.Fragments), len(pred.Fragments))
	}
	for i := range plain.Fragments {
		if plain.Fragments[i].Root != pred.Fragments[i].Root {
			t.Errorf("fragment %d roots differ", i)
		}
		if !strings.HasPrefix(plain.Fragments[i].ASCII(), pred.Fragments[i].ASCII()[:10]) {
			t.Errorf("fragment %d rendering differs", i)
		}
	}
}
