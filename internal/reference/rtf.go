// Relaxed Tightest Fragments (Definition 2 of the paper) on Dewey codes: one
// fragment per interesting LCA node, holding the keyword nodes dispatched to
// it and all path nodes between them and the root.
//
// Build is the paper's getRTF: every keyword node is dispatched to the
// deepest interesting LCA that is its ancestor-or-self ("the last RTF in the
// pre-order LCA list whose root is an ancestor of or the same as the node");
// keyword nodes with no such ancestor do not join any fragment. Fragments
// whose keyword nodes fail to cover the whole query are discarded, mirroring
// the semantics of the Indexed Stack getLCA stage. rtf.BuildIDsPlanned is
// its ID form.
//
// BruteForce implements Definitions 1 and 2 literally (enumerating the
// extended keyword node combination set ECTQ and filtering it by the three
// RTF rules). It is exponential and exists to anchor Build to the formal
// semantics on small instances, such as the paper's Examples 3–4.

package reference

import (
	"slices"

	"xks/internal/dewey"
)

// RTF is one relaxed tightest fragment: its root (an interesting LCA node)
// and the keyword nodes dispatched to it, in pre-order, each carrying the
// bitmask of query keywords it matches.
type RTF struct {
	Root         dewey.Code
	KeywordNodes []Event
}

// PathNodes returns all Dewey codes of the fragment: the root, the keyword
// nodes and every node on a path between them, pre-order sorted without
// duplicates.
func (r *RTF) PathNodes() []dewey.Code {
	seen := map[string]dewey.Code{}
	add := func(c dewey.Code) {
		k := Key(c)
		if _, ok := seen[k]; !ok {
			seen[k] = c
		}
	}
	add(r.Root)
	for _, ev := range r.KeywordNodes {
		for l := len(r.Root); l <= len(ev.Code); l++ {
			add(slices.Clone(ev.Code[:l]))
		}
	}
	out := make([]dewey.Code, 0, len(seen))
	for _, c := range seen {
		out = append(out, c)
	}
	dewey.Sort(out)
	return out
}

// Mask returns the union of the keyword masks of the fragment's keyword
// nodes.
func (r *RTF) Mask() uint64 {
	var m uint64
	for _, ev := range r.KeywordNodes {
		m |= ev.Mask
	}
	return m
}

// IsSLCA reports whether the fragment's root is a smallest LCA, i.e. has no
// interesting LCA below it among the given pre-order-sorted roots.
func (r *RTF) IsSLCA(allRoots []dewey.Code) bool {
	i := SearchGE(allRoots, r.Root)
	// r.Root itself is at position i; a descendant root, if any, follows it.
	if i+1 < len(allRoots) && IsAncestor(r.Root, allRoots[i+1]) {
		return false
	}
	return true
}

// Build runs the getRTF stage: given the pre-order-sorted interesting LCA
// nodes and the keyword posting lists D1..Dk, it dispatches every keyword
// node to the deepest LCA node that is its ancestor-or-self and returns one
// RTF per LCA node whose dispatched nodes cover the whole query, in
// pre-order of their roots.
func Build(lcas []dewey.Code, sets [][]dewey.Code) []*RTF {
	if len(lcas) == 0 {
		return nil
	}
	events := MergeSets(sets)
	full := fullMask(len(sets))

	byRoot := make(map[string]*RTF, len(lcas))
	out := make([]*RTF, 0, len(lcas))
	for _, a := range lcas {
		r := &RTF{Root: a}
		byRoot[Key(a)] = r
		out = append(out, r)
	}

	// Merge pass: walk events in pre-order keeping the stack of LCA nodes
	// whose subtree contains the current event; the stack top is the
	// deepest, i.e. the dispatch target.
	var stack []dewey.Code
	j := 0
	for _, ev := range events {
		for j < len(lcas) && dewey.Compare(lcas[j], ev.Code) <= 0 {
			for len(stack) > 0 && !IsAncestorOrSelf(stack[len(stack)-1], lcas[j]) {
				stack = stack[:len(stack)-1]
			}
			stack = append(stack, lcas[j])
			j++
		}
		for len(stack) > 0 && !IsAncestorOrSelf(stack[len(stack)-1], ev.Code) {
			stack = stack[:len(stack)-1]
		}
		if len(stack) == 0 {
			continue // keyword node outside every interesting LCA subtree
		}
		r := byRoot[Key(stack[len(stack)-1])]
		r.KeywordNodes = append(r.KeywordNodes, ev)
	}

	kept := out[:0]
	for _, r := range out {
		if r.Mask() == full {
			kept = append(kept, r)
		}
	}
	return kept
}

// BruteForce enumerates the extended keyword node combination set ECTQ
// (Definition 1) over the posting lists and filters it with the three rules
// of Definition 2, returning the surviving partitions as RTFs sorted by
// root. Exponential in the posting list sizes.
func BruteForce(sets [][]dewey.Code) []*RTF {
	k := len(sets)
	if k == 0 {
		return nil
	}
	for _, s := range sets {
		if len(s) == 0 {
			return nil
		}
	}

	combos := enumerateECTQ(sets)
	// Rules 1 and 3 are per-combination predicates. Rule 2 (completeness /
	// maximality) must be read relative to them: a combination is an RTF
	// when it is maximal, by node-set inclusion with the same LCA, among
	// the combinations satisfying rules 1 and 3. (Read literally, rule 2
	// would reject the paper's own Example 4 partition {n,t,a}, since
	// extending it with the ref node keeps the LCA — but that extension
	// itself violates rules 1 and 3, so it cannot disqualify {n,t,a}.)
	type cand struct {
		v   []dewey.Code
		lca dewey.Code
		set map[string]bool
	}
	var eligible []cand
	for _, v := range combos {
		if !passesRules1And3(v, sets) {
			continue
		}
		set := map[string]bool{}
		for _, c := range v {
			set[Key(c)] = true
		}
		eligible = append(eligible, cand{v: v, lca: LCAAll(v...), set: set})
	}
	var out []*RTF
	for i, c := range eligible {
		maximal := true
		for j, d := range eligible {
			if i == j || !dewey.Equal(c.lca, d.lca) || len(d.v) <= len(c.v) {
				continue
			}
			subset := true
			for _, x := range c.v {
				if !d.set[Key(x)] {
					subset = false
					break
				}
			}
			if subset {
				maximal = false
				break
			}
		}
		if maximal {
			out = append(out, comboToRTF(c.v, sets))
		}
	}
	sortRTFs(out)
	return out
}

// EnumerateECTQ exposes the ECTQ enumeration of Definition 1: each element
// is a distinct union of per-keyword nonempty subsets, pre-order sorted.
func EnumerateECTQ(sets [][]dewey.Code) [][]dewey.Code {
	combos := enumerateECTQ(sets)
	out := make([][]dewey.Code, len(combos))
	for i, c := range combos {
		out[i] = c
	}
	return out
}

func enumerateECTQ(sets [][]dewey.Code) [][]dewey.Code {
	k := len(sets)
	seen := map[string][]dewey.Code{}
	var order []string

	choice := make([][]dewey.Code, k)
	var rec func(i int)
	rec = func(i int) {
		if i == k {
			var union []dewey.Code
			um := map[string]dewey.Code{}
			for _, sub := range choice {
				for _, c := range sub {
					um[Key(c)] = c
				}
			}
			for _, c := range um {
				union = append(union, c)
			}
			dewey.Sort(union)
			key := ""
			for _, c := range union {
				key += Key(c) + "|"
			}
			if _, dup := seen[key]; !dup {
				seen[key] = union
				order = append(order, key)
			}
			return
		}
		n := len(sets[i])
		for bits := 1; bits < (1 << uint(n)); bits++ {
			var sub []dewey.Code
			for b := 0; b < n; b++ {
				if bits&(1<<uint(b)) != 0 {
					sub = append(sub, sets[i][b])
				}
			}
			choice[i] = sub
			rec(i + 1)
		}
	}
	rec(0)

	out := make([][]dewey.Code, 0, len(order))
	for _, key := range order {
		out = append(out, seen[key])
	}
	return out
}

// projection returns V ∩ Di.
func projection(v []dewey.Code, di []dewey.Code) []dewey.Code {
	inDi := map[string]bool{}
	for _, c := range di {
		inDi[Key(c)] = true
	}
	var out []dewey.Code
	for _, c := range v {
		if inDi[Key(c)] {
			out = append(out, c)
		}
	}
	return out
}

// nonEmptySubsets enumerates the nonempty subsets of list.
func nonEmptySubsets(list []dewey.Code) [][]dewey.Code {
	n := len(list)
	out := make([][]dewey.Code, 0, (1<<uint(n))-1)
	for bits := 1; bits < (1 << uint(n)); bits++ {
		var sub []dewey.Code
		for b := 0; b < n; b++ {
			if bits&(1<<uint(b)) != 0 {
				sub = append(sub, list[b])
			}
		}
		out = append(out, sub)
	}
	return out
}

func lcaOfSubsets(subs ...[]dewey.Code) dewey.Code {
	var all []dewey.Code
	for _, s := range subs {
		all = append(all, s...)
	}
	return LCAAll(all...)
}

// passesRules1And3 checks conditions 1 and 3 of Definition 2 for the
// combination v (condition 2 is the relative maximality handled by
// BruteForce itself).
func passesRules1And3(v []dewey.Code, sets [][]dewey.Code) bool {
	k := len(sets)
	a := LCAAll(v...)
	if a == nil {
		return false
	}
	proj := make([][]dewey.Code, k)
	for i := range sets {
		proj[i] = projection(v, sets[i])
		if len(proj[i]) == 0 {
			return false // does not cover keyword i at all
		}
	}

	// Rule 1: every covering sub-combination of v has LCA a.
	subChoices := make([][][]dewey.Code, k)
	for i := range proj {
		subChoices[i] = nonEmptySubsets(proj[i])
	}
	ok := true
	forEachProduct(subChoices, func(pick [][]dewey.Code) bool {
		if !dewey.Equal(lcaOfSubsets(pick...), a) {
			ok = false
			return false
		}
		return true
	})
	if !ok {
		return false
	}

	// Rule 3: no sub-projection of v can join arbitrary other keyword node
	// subsets to form a combination whose LCA is a proper descendant of a.
	allChoices := make([][][]dewey.Code, k)
	for i := range sets {
		allChoices[i] = nonEmptySubsets(sets[i])
	}
	for i := range sets {
		for _, vPrime := range nonEmptySubsets(proj[i]) {
			violated := false
			replaced := make([][][]dewey.Code, k)
			copy(replaced, allChoices)
			replaced[i] = [][]dewey.Code{vPrime}
			forEachProduct(replaced, func(pick [][]dewey.Code) bool {
				l := lcaOfSubsets(pick...)
				if l != nil && IsAncestor(a, l) {
					violated = true
					return false
				}
				return true
			})
			if violated {
				return false
			}
		}
	}
	return true
}

// forEachProduct invokes fn for every element of the cartesian product of
// the choice lists; fn returning false aborts the enumeration.
func forEachProduct(choices [][][]dewey.Code, fn func([][]dewey.Code) bool) {
	pick := make([][]dewey.Code, len(choices))
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(choices) {
			return fn(pick)
		}
		for _, c := range choices[i] {
			pick[i] = c
			if !rec(i + 1) {
				return false
			}
		}
		return true
	}
	rec(0)
}

func comboToRTF(v []dewey.Code, sets [][]dewey.Code) *RTF {
	root := LCAAll(v...)
	r := &RTF{Root: root}
	for _, c := range v {
		var mask uint64
		for i, s := range sets {
			for _, x := range s {
				if dewey.Equal(x, c) {
					mask |= 1 << uint(i)
					break
				}
			}
		}
		r.KeywordNodes = append(r.KeywordNodes, Event{Code: c, Mask: mask})
	}
	return r
}

func sortRTFs(rs []*RTF) {
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && dewey.Compare(rs[j-1].Root, rs[j].Root) > 0; j-- {
			rs[j-1], rs[j] = rs[j], rs[j-1]
		}
	}
}
