package xks_test

// The four axiomatic properties of Liu & Chen (VLDB 2008) that §4.3(2) of
// the paper claims for ValidRTF:
//
//	data monotonicity    — adding a node never decreases the number of
//	                       query results;
//	query monotonicity   — adding a query keyword never increases the
//	                       number of query results;
//	data consistency     — after a data insertion, every additional result
//	                       subtree contains the new node;
//	query consistency    — after adding a keyword, every additional result
//	                       subtree contains a match to it.
//
// The checkers run a search before and after a mutation and return a
// structured verdict; the property-based tests drive them with randomized
// trees, insertions and keyword extensions.

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"xks"
	"xks/internal/dewey"
	"xks/internal/reference"
	"xks/internal/xmltree"
)

// verdict reports one property check.
type verdict struct {
	Property string
	Holds    bool
	Detail   string
}

func ok(property string) verdict { return verdict{Property: property, Holds: true} }

func fail(property, format string, args ...interface{}) verdict {
	return verdict{Property: property, Holds: false, Detail: fmt.Sprintf(format, args...)}
}

// resultSets extracts the kept-node sets of every fragment, keyed by
// fragment root.
func resultSets(res *xks.Result) map[string]map[string]bool {
	out := make(map[string]map[string]bool, len(res.Fragments))
	for _, f := range res.Fragments {
		set := make(map[string]bool, len(f.Nodes))
		for _, n := range f.Nodes {
			set[n.Dewey] = true
		}
		out[f.Root] = set
	}
	return out
}

// checkDataMonotonicity verifies that a search over the extended tree
// (after inserting a subtree under parent) yields at least as many results
// as over the base tree.
func checkDataMonotonicity(base *xmltree.Tree, parent dewey.Code, sub xmltree.E, req xks.Request) (verdict, error) {
	const prop = "data monotonicity"
	before, after, _, err := searchAround(base, parent, sub, req)
	if err != nil {
		return verdict{}, err
	}
	if len(after.Fragments) < len(before.Fragments) {
		return fail(prop, "results dropped from %d to %d after insertion", len(before.Fragments), len(after.Fragments)), nil
	}
	return ok(prop), nil
}

// checkDataConsistency verifies that every additional result subtree after
// a data insertion contains the newly inserted node (identified by its
// Dewey code in the extended tree).
func checkDataConsistency(base *xmltree.Tree, parent dewey.Code, sub xmltree.E, req xks.Request) (verdict, error) {
	const prop = "data consistency"
	before, after, inserted, err := searchAround(base, parent, sub, req)
	if err != nil {
		return verdict{}, err
	}
	beforeSets := resultSets(before)
	insertedPrefix := inserted.String()
	// "Each additional subtree which becomes (part of) a query result
	// should contain the newly inserted node": we check every result whose
	// root did not exist before the insertion. Results with pre-existing
	// roots may legitimately shrink or rebalance when the insertion
	// creates a deeper interesting LCA that absorbs their keyword nodes.
	for _, f := range after.Fragments {
		if _, existed := beforeSets[f.Root]; existed {
			continue
		}
		found := false
		for _, n := range f.Nodes {
			if n.Dewey == insertedPrefix || strings.HasPrefix(n.Dewey, insertedPrefix+".") {
				found = true
				break
			}
		}
		if !found {
			return fail(prop, "new result at %s does not contain inserted node %s", f.Root, insertedPrefix), nil
		}
	}
	return ok(prop), nil
}

// searchAround runs the request on the base tree and on a clone with sub
// inserted under parent, returning both results and the inserted node's
// code in the extended tree.
func searchAround(base *xmltree.Tree, parent dewey.Code, sub xmltree.E, req xks.Request) (*xks.Result, *xks.Result, dewey.Code, error) {
	before, err := xks.FromTree(base).Search(context.Background(), req)
	if err != nil {
		return nil, nil, nil, err
	}
	extended := base.Clone()
	node := xmltree.Build(sub).Root
	if err := extended.AppendChild(parent, node); err != nil {
		return nil, nil, nil, err
	}
	after, err := xks.FromTree(extended).Search(context.Background(), req)
	if err != nil {
		return nil, nil, nil, err
	}
	return before, after, node.Code, nil
}

// searchExtended runs the request, then the request with extraKeyword
// appended to its query.
func searchExtended(tree *xmltree.Tree, req xks.Request, extraKeyword string) (*xks.Result, *xks.Result, error) {
	engine := xks.FromTree(tree)
	before, err := engine.Search(context.Background(), req)
	if err != nil {
		return nil, nil, err
	}
	req.Query += " " + extraKeyword
	after, err := engine.Search(context.Background(), req)
	if err != nil {
		return nil, nil, err
	}
	return before, after, nil
}

// checkQueryMonotonicity verifies that extending the query with one more
// keyword yields at most as many results.
func checkQueryMonotonicity(tree *xmltree.Tree, req xks.Request, extraKeyword string) (verdict, error) {
	const prop = "query monotonicity"
	before, after, err := searchExtended(tree, req, extraKeyword)
	if err != nil {
		return verdict{}, err
	}
	if len(after.Fragments) > len(before.Fragments) {
		return fail(prop, "results grew from %d to %d after adding %q", len(before.Fragments), len(after.Fragments), extraKeyword), nil
	}
	return ok(prop), nil
}

// checkQueryConsistency verifies that every additional result subtree after
// adding a keyword contains a match to the new keyword.
func checkQueryConsistency(tree *xmltree.Tree, req xks.Request, extraKeyword string) (verdict, error) {
	const prop = "query consistency"
	before, after, err := searchExtended(tree, req, extraKeyword)
	if err != nil {
		return verdict{}, err
	}
	beforeSets := resultSets(before)
	norm := strings.ToLower(strings.TrimSpace(extraKeyword))
	for _, f := range after.Fragments {
		if old, existed := beforeSets[f.Root]; existed && isSubset(f, old) {
			continue // shrunk or unchanged version of an old result
		}
		found := false
		for i := range f.Nodes {
			if slices.Contains(f.NodeMatched(i), norm) {
				found = true
				break
			}
		}
		if !found {
			return fail(prop, "new result at %s has no match for %q", f.Root, extraKeyword), nil
		}
	}
	return ok(prop), nil
}

func isSubset(f *xks.Fragment, old map[string]bool) bool {
	for _, n := range f.Nodes {
		if !old[n.Dewey] {
			return false
		}
	}
	return true
}

// checkAll runs the four properties with the given mutation parameters and
// returns all verdicts.
func checkAll(base *xmltree.Tree, parent dewey.Code, sub xmltree.E, req xks.Request, extraKeyword string) ([]verdict, error) {
	var out []verdict
	v, err := checkDataMonotonicity(base, parent, sub, req)
	if err != nil {
		return nil, err
	}
	out = append(out, v)
	v, err = checkDataConsistency(base, parent, sub, req)
	if err != nil {
		return nil, err
	}
	out = append(out, v)
	v, err = checkQueryMonotonicity(base, req, extraKeyword)
	if err != nil {
		return nil, err
	}
	out = append(out, v)
	v, err = checkQueryConsistency(base, req, extraKeyword)
	if err != nil {
		return nil, err
	}
	out = append(out, v)
	return out, nil
}

// The four properties of Liu & Chen that ValidRTF satisfies, shown by
// mutating a document and a query and watching the result set respond.
func Example_axioms() {
	ctx := context.Background()
	tree := reference.Team()
	engine := xks.FromTree(tree)

	// Baseline: Q4 = "Grizzlies position".
	res, err := engine.Search(ctx, xks.Request{Query: reference.Q4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("baseline %q: %d fragment(s)\n", reference.Q4, len(res.Fragments))
	fmt.Print(res.Fragments[0].ASCII())

	// Data monotonicity + consistency: add a fourth player.
	newPlayer := xmltree.E{Label: "player", Kids: []xmltree.E{
		{Label: "name", Text: "Conley"},
		{Label: "position", Text: "guard"},
	}}
	extended := tree.Clone()
	if err := extended.AppendChild(dewey.MustParse("0.1"), xmltree.Build(newPlayer).Root); err != nil {
		log.Fatal(err)
	}
	after, err := xks.FromTree(extended).Search(ctx, xks.Request{Query: reference.Q4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nafter inserting a player: %d fragment(s) (was %d) — data monotonicity\n",
		len(after.Fragments), len(res.Fragments))

	// Query monotonicity: extend the query.
	narrower, err := engine.Search(ctx, xks.Request{Query: reference.Q4 + " gassol"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after adding keyword \"gassol\": %d fragment(s) (was %d) — query monotonicity\n",
		len(narrower.Fragments), len(res.Fragments))

	// Run all four formal checkers.
	verdicts, err := checkAll(tree, dewey.MustParse("0.1"), newPlayer,
		xks.Request{Query: reference.Q4}, "gassol")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nformal checks:")
	for _, v := range verdicts {
		status := "PASS"
		if !v.Holds {
			status = "FAIL: " + v.Detail
		}
		fmt.Printf("  %-20s %s\n", v.Property, status)
	}
	// Output:
	// baseline "Grizzlies position": 1 fragment(s)
	// 0 (team)
	//   0.0 (name) "Grizzlies"
	//   0.1 (players)
	//     0.1.0 (player)
	//       0.1.0.1 (position) "forward"
	//     0.1.1 (player)
	//       0.1.1.1 (position) "guard"
	//
	// after inserting a player: 1 fragment(s) (was 1) — data monotonicity
	// after adding keyword "gassol": 1 fragment(s) (was 1) — query monotonicity
	//
	// formal checks:
	//   data monotonicity    PASS
	//   data consistency     PASS
	//   query monotonicity   PASS
	//   query consistency    PASS
}

func TestDataMonotonicityOnPaperInstance(t *testing.T) {
	tree := reference.Publications()
	sub := xmltree.E{Label: "article", Kids: []xmltree.E{
		{Label: "title", Text: "Another Liu keyword paper"},
	}}
	v, err := checkDataMonotonicity(tree, dewey.MustParse("0.2"), sub, xks.Request{Query: reference.Q2})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Holds {
		t.Errorf("%s failed: %s", v.Property, v.Detail)
	}
}

func TestDataConsistencyOnPaperInstance(t *testing.T) {
	tree := reference.Publications()
	sub := xmltree.E{Label: "article", Kids: []xmltree.E{
		{Label: "title", Text: "Liu on keyword search"},
	}}
	v, err := checkDataConsistency(tree, dewey.MustParse("0.2"), sub, xks.Request{Query: reference.Q2})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Holds {
		t.Errorf("%s failed: %s", v.Property, v.Detail)
	}
}

func TestQueryMonotonicityOnPaperInstance(t *testing.T) {
	tree := reference.Publications()
	v, err := checkQueryMonotonicity(tree, xks.Request{Query: "keyword"}, "liu")
	if err != nil {
		t.Fatal(err)
	}
	if !v.Holds {
		t.Errorf("%s failed: %s", v.Property, v.Detail)
	}
}

func TestQueryConsistencyOnPaperInstance(t *testing.T) {
	tree := reference.Publications()
	v, err := checkQueryConsistency(tree, xks.Request{Query: "keyword"}, "liu")
	if err != nil {
		t.Fatal(err)
	}
	if !v.Holds {
		t.Errorf("%s failed: %s", v.Property, v.Detail)
	}
}

func TestCheckAll(t *testing.T) {
	tree := reference.Team()
	sub := xmltree.E{Label: "player", Kids: []xmltree.E{
		{Label: "name", Text: "Gay"},
		{Label: "position", Text: "forward"},
	}}
	vs, err := checkAll(tree, dewey.MustParse("0.1"), sub, xks.Request{Query: reference.Q4}, "gassol")
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
func randomAxiomTree(rng *rand.Rand) *xmltree.Tree {
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
		tree := randomAxiomTree(rng)
		req := xks.Request{Query: queries[rng.Intn(len(queries))]}
		extra := extras[rng.Intn(len(extras))]
		// Skip trees where the query matches nothing (vacuous).
		res, err := xks.FromTree(tree).Search(context.Background(), req)
		if err != nil || len(res.Fragments) == 0 {
			continue
		}
		trials++
		vs, err := checkAll(tree, randomParent(rng, tree), randomSubtree(rng), req, extra)
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
	req := xks.Request{Query: "alpha beta", Algorithm: xks.MaxMatch}
	trials := 0
	for i := 0; i < 150; i++ {
		tree := randomAxiomTree(rng)
		res, err := xks.FromTree(tree).Search(context.Background(), req)
		if err != nil || len(res.Fragments) == 0 {
			continue
		}
		trials++
		vs, err := checkAll(tree, randomParent(rng, tree), randomSubtree(rng), req, "gamma")
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
	tree := reference.Team()
	// Insertion under a nonexistent parent.
	if _, err := checkDataMonotonicity(tree, dewey.MustParse("9.9"), xmltree.E{Label: "x"}, xks.Request{Query: "position"}); err == nil {
		t.Error("bad parent should error")
	}
	// Unsearchable query.
	if _, err := checkQueryMonotonicity(tree, xks.Request{Query: "the"}, "of"); err == nil {
		t.Error("stop-word query should error")
	}
}
