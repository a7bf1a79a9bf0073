// Package axioms checks the four axiomatic properties of Liu & Chen (VLDB
// 2008) that §4.3(2) of the paper claims for ValidRTF:
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
// The checkers run a search engine before and after a mutation and return a
// structured verdict; the property-based tests drive them with randomized
// trees, insertions and keyword extensions.
package axioms

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"xks"
	"xks/internal/dewey"
	"xks/internal/xmltree"
)

// Verdict reports one property check.
type Verdict struct {
	Property string
	Holds    bool
	Detail   string
}

func ok(property string) Verdict { return Verdict{Property: property, Holds: true} }

func fail(property, format string, args ...interface{}) Verdict {
	return Verdict{Property: property, Holds: false, Detail: fmt.Sprintf(format, args...)}
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

// CheckDataMonotonicity verifies that a search over the extended tree
// (after inserting a subtree under parent) yields at least as many results
// as over the base tree.
func CheckDataMonotonicity(base *xmltree.Tree, parent dewey.Code, sub xmltree.E, query string, opts xks.Options) (Verdict, error) {
	const prop = "data monotonicity"
	before, after, _, err := searchAround(base, parent, sub, query, opts)
	if err != nil {
		return Verdict{}, err
	}
	if len(after.Fragments) < len(before.Fragments) {
		return fail(prop, "results dropped from %d to %d after insertion", len(before.Fragments), len(after.Fragments)), nil
	}
	return ok(prop), nil
}

// CheckDataConsistency verifies that every additional result subtree after
// a data insertion contains the newly inserted node (identified by its
// Dewey code in the extended tree).
func CheckDataConsistency(base *xmltree.Tree, parent dewey.Code, sub xmltree.E, query string, opts xks.Options) (Verdict, error) {
	const prop = "data consistency"
	before, after, inserted, err := searchAround(base, parent, sub, query, opts)
	if err != nil {
		return Verdict{}, err
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

// searchAround runs the query on the base tree and on a clone with sub
// inserted under parent, returning both results and the inserted node's
// code in the extended tree.
func searchAround(base *xmltree.Tree, parent dewey.Code, sub xmltree.E, query string, opts xks.Options) (*xks.Result, *xks.Result, dewey.Code, error) {
	before, err := xks.FromTree(base).Search(context.Background(), xks.NewRequest(query, opts))
	if err != nil {
		return nil, nil, nil, err
	}
	extended := base.Clone()
	node, err := extended.AddChild(parent, sub)
	if err != nil {
		return nil, nil, nil, err
	}
	after, err := xks.FromTree(extended).Search(context.Background(), xks.NewRequest(query, opts))
	if err != nil {
		return nil, nil, nil, err
	}
	return before, after, node.Code, nil
}

// CheckQueryMonotonicity verifies that extending the query with one more
// keyword yields at most as many results.
func CheckQueryMonotonicity(tree *xmltree.Tree, query, extraKeyword string, opts xks.Options) (Verdict, error) {
	const prop = "query monotonicity"
	engine := xks.FromTree(tree)
	before, err := engine.Search(context.Background(), xks.NewRequest(query, opts))
	if err != nil {
		return Verdict{}, err
	}
	after, err := engine.Search(context.Background(), xks.NewRequest(query+" "+extraKeyword, opts))
	if err != nil {
		return Verdict{}, err
	}
	if len(after.Fragments) > len(before.Fragments) {
		return fail(prop, "results grew from %d to %d after adding %q", len(before.Fragments), len(after.Fragments), extraKeyword), nil
	}
	return ok(prop), nil
}

// CheckQueryConsistency verifies that every additional result subtree after
// adding a keyword contains a match to the new keyword.
func CheckQueryConsistency(tree *xmltree.Tree, query, extraKeyword string, opts xks.Options) (Verdict, error) {
	const prop = "query consistency"
	engine := xks.FromTree(tree)
	before, err := engine.Search(context.Background(), xks.NewRequest(query, opts))
	if err != nil {
		return Verdict{}, err
	}
	after, err := engine.Search(context.Background(), xks.NewRequest(query+" "+extraKeyword, opts))
	if err != nil {
		return Verdict{}, err
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

// CheckAll runs the four properties with the given mutation parameters and
// returns all verdicts.
func CheckAll(base *xmltree.Tree, parent dewey.Code, sub xmltree.E, query, extraKeyword string, opts xks.Options) ([]Verdict, error) {
	var out []Verdict
	v, err := CheckDataMonotonicity(base, parent, sub, query, opts)
	if err != nil {
		return nil, err
	}
	out = append(out, v)
	v, err = CheckDataConsistency(base, parent, sub, query, opts)
	if err != nil {
		return nil, err
	}
	out = append(out, v)
	v, err = CheckQueryMonotonicity(base, query, extraKeyword, opts)
	if err != nil {
		return nil, err
	}
	out = append(out, v)
	v, err = CheckQueryConsistency(base, query, extraKeyword, opts)
	if err != nil {
		return nil, err
	}
	out = append(out, v)
	return out, nil
}
