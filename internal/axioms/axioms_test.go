package axioms

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"xks"
	"xks/internal/dewey"
	"xks/internal/paperdata"
	"xks/internal/xmltree"
)

func TestDataMonotonicityOnPaperInstance(t *testing.T) {
	tree := paperdata.Publications()
	sub := xmltree.E{Label: "article", Kids: []xmltree.E{
		{Label: "title", Text: "Another Liu keyword paper"},
	}}
	v, err := CheckDataMonotonicity(tree, dewey.MustParse("0.2"), sub, paperdata.Q2, xks.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Holds {
		t.Errorf("%s failed: %s", v.Property, v.Detail)
	}
}

func TestDataConsistencyOnPaperInstance(t *testing.T) {
	tree := paperdata.Publications()
	sub := xmltree.E{Label: "article", Kids: []xmltree.E{
		{Label: "title", Text: "Liu on keyword search"},
	}}
	v, err := CheckDataConsistency(tree, dewey.MustParse("0.2"), sub, paperdata.Q2, xks.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Holds {
		t.Errorf("%s failed: %s", v.Property, v.Detail)
	}
}

func TestQueryMonotonicityOnPaperInstance(t *testing.T) {
	tree := paperdata.Publications()
	v, err := CheckQueryMonotonicity(tree, "keyword", "liu", xks.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Holds {
		t.Errorf("%s failed: %s", v.Property, v.Detail)
	}
}

func TestQueryConsistencyOnPaperInstance(t *testing.T) {
	tree := paperdata.Publications()
	v, err := CheckQueryConsistency(tree, "keyword", "liu", xks.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Holds {
		t.Errorf("%s failed: %s", v.Property, v.Detail)
	}
}

func TestCheckAll(t *testing.T) {
	tree := paperdata.Team()
	sub := xmltree.E{Label: "player", Kids: []xmltree.E{
		{Label: "name", Text: "Gay"},
		{Label: "position", Text: "forward"},
	}}
	vs, err := CheckAll(tree, dewey.MustParse("0.1"), sub, paperdata.Q4, "gassol", xks.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 4 {
		t.Fatalf("verdicts = %d", len(vs))
	}
	for _, v := range vs {
		if !v.Holds {
			t.Errorf("%s failed: %s", v.Property, v.Detail)
		}
	}
}

// Randomized trees: labels and words drawn from small pools so collisions
// are common and the pruning rules all fire.
func randomTree(rng *rand.Rand) *xmltree.Tree {
	labels := []string{"a", "b", "c"}
	words := []string{"alpha", "beta", "gamma", "delta"}
	var gen func(depth int) xmltree.E
	gen = func(depth int) xmltree.E {
		e := xmltree.E{Label: labels[rng.Intn(len(labels))]}
		if rng.Intn(2) == 0 {
			e.Text = words[rng.Intn(len(words))] + " " + words[rng.Intn(len(words))]
		}
		if depth < 3 {
			for i := 0; i < rng.Intn(3); i++ {
				e.Kids = append(e.Kids, gen(depth+1))
			}
		}
		return e
	}
	root := xmltree.E{Label: "root"}
	for i := 0; i < 2+rng.Intn(3); i++ {
		root.Kids = append(root.Kids, gen(1))
	}
	return xmltree.Build(root)
}

func randomParent(rng *rand.Rand, tree *xmltree.Tree) dewey.Code {
	nodes := tree.Nodes()
	return nodes[rng.Intn(len(nodes))].Code
}

func randomSubtree(rng *rand.Rand) xmltree.E {
	words := []string{"alpha", "beta", "gamma", "delta"}
	e := xmltree.E{Label: "x", Text: words[rng.Intn(len(words))]}
	if rng.Intn(2) == 0 {
		e.Kids = append(e.Kids, xmltree.E{Label: "y", Text: words[rng.Intn(len(words))]})
	}
	return e
}

// The four properties hold across randomized trees, insertion points and
// query extensions (§4.3(2) of the paper).
func TestAxiomsRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	queries := []string{"alpha", "alpha beta", "gamma delta"}
	extras := []string{"beta", "gamma", "delta"}
	trials := 0
	for i := 0; i < 300; i++ {
		tree := randomTree(rng)
		query := queries[rng.Intn(len(queries))]
		extra := extras[rng.Intn(len(extras))]
		// Skip trees where the query matches nothing (vacuous).
		engine := xks.FromTree(tree)
		res, err := engine.Search(context.Background(), xks.NewRequest(query, xks.Options{}))
		if err != nil || len(res.Fragments) == 0 {
			continue
		}
		trials++
		vs, err := CheckAll(tree, randomParent(rng, tree), randomSubtree(rng), query, extra, xks.Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		for _, v := range vs {
			if !v.Holds {
				var doc strings.Builder
				xmltree.WriteXML(&doc, tree.Root) // a Builder's writes cannot fail
				t.Fatalf("trial %d: %s failed: %s\n%s", i, v.Property, v.Detail, doc.String())
			}
		}
	}
	if trials < 50 {
		t.Fatalf("only %d meaningful trials", trials)
	}
}

// The same properties checked under the MaxMatch baseline, which the paper
// proved satisfies them as well.
func TestAxiomsRandomizedMaxMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	opts := xks.Options{Algorithm: xks.MaxMatch}
	trials := 0
	for i := 0; i < 150; i++ {
		tree := randomTree(rng)
		engine := xks.FromTree(tree)
		res, err := engine.Search(context.Background(), xks.NewRequest("alpha beta", opts))
		if err != nil || len(res.Fragments) == 0 {
			continue
		}
		trials++
		vs, err := CheckAll(tree, randomParent(rng, tree), randomSubtree(rng), "alpha beta", "gamma", opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range vs {
			if !v.Holds {
				t.Fatalf("trial %d: %s failed under MaxMatch: %s", i, v.Property, v.Detail)
			}
		}
	}
	if trials < 20 {
		t.Fatalf("only %d meaningful trials", trials)
	}
}

func TestVerdictFormatting(t *testing.T) {
	v := fail("p", "value %d", 42)
	if v.Holds || v.Detail != "value 42" {
		t.Errorf("fail verdict = %+v", v)
	}
	if s := fmt.Sprintf("%+v", ok("p")); s == "" {
		t.Error("empty verdict formatting")
	}
}

func TestCheckersPropagateErrors(t *testing.T) {
	tree := paperdata.Team()
	// Insertion under a nonexistent parent.
	if _, err := CheckDataMonotonicity(tree, dewey.MustParse("9.9"), xmltree.E{Label: "x"}, "position", xks.Options{}); err == nil {
		t.Error("bad parent should error")
	}
	// Unsearchable query.
	if _, err := CheckQueryMonotonicity(tree, "the", "of", xks.Options{}); err == nil {
		t.Error("stop-word query should error")
	}
}
