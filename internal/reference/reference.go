// Package reference holds the Dewey-code forms of the paper's pipeline that
// the tests compare the production stages against: getLCA (the merged
// keyword stream, Indexed Lookup Eager and Scan Eager SLCA, the ELCA stack
// merge, and the naive ELCA/SLCA definitions), getRTF (Build, and
// Definitions 1–2 enumerated literally by BruteForce) and the XRank-style
// fragment score, plus KeywordSets, which states a query as those forms
// read it. Every production stage has exactly one implementation, on
// node IDs, in internal/lca, internal/rtf, internal/prune and internal/rank;
// these are the formal models it is held to.
//
// Only _test.go files import this package: CI fails when it appears among
// the dependencies of any non-test package of the module, and its lines are
// left out of the production line count. Of the pipeline's own packages it
// imports only internal/index (for KeywordSets, the tests' one source of
// Dewey-code posting sets), so the tests of every package the index does
// not depend on can reach it.
package reference

import (
	"slices"

	"xks/internal/dewey"
)

// fullMask is lca.FullMask, which this package cannot import: the low k
// bits set, "all keywords".
func fullMask(k int) uint64 {
	if k <= 0 {
		return 0
	}
	if k >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(k)) - 1
}

// Event is one node of the merged keyword-node stream: a Dewey code plus
// the bitmask of query keywords it matches.
type Event struct {
	Code dewey.Code
	Mask uint64
}

// MergeSets merges the posting lists D1..Dk into a single pre-order stream
// of Events, OR-ing the masks of equal codes (a node can match several
// keywords). Input lists must be pre-order sorted.
func MergeSets(sets [][]dewey.Code) []Event {
	k := len(sets)
	total := 0
	for _, s := range sets {
		total += len(s)
	}
	out := make([]Event, 0, total)
	pos := make([]int, k)
	for {
		best := -1
		for i := 0; i < k; i++ {
			if pos[i] >= len(sets[i]) {
				continue
			}
			if best < 0 || dewey.Compare(sets[i][pos[i]], sets[best][pos[best]]) < 0 {
				best = i
			}
		}
		if best < 0 {
			break
		}
		c := sets[best][pos[best]]
		var mask uint64
		for i := 0; i < k; i++ {
			if pos[i] < len(sets[i]) && dewey.Equal(sets[i][pos[i]], c) {
				mask |= 1 << uint(i)
				pos[i]++
			}
		}
		out = append(out, Event{Code: c, Mask: mask})
	}
	return out
}

// SLCA computes the smallest LCA set with the Indexed Lookup Eager
// strategy: for every node of the smallest list, chain-LCA it with the
// closest node of every other list, then remove non-minimal candidates.
// Input lists must be pre-order sorted. The result is pre-order sorted.
func SLCA(sets [][]dewey.Code) []dewey.Code {
	if len(sets) == 0 {
		return nil
	}
	for _, s := range sets {
		if len(s) == 0 {
			return nil
		}
	}
	smallest := 0
	for i, s := range sets {
		if len(s) < len(sets[smallest]) {
			smallest = i
		}
	}
	candidates := make([]dewey.Code, 0, len(sets[smallest]))
	for _, v := range sets[smallest] {
		x := v
		ok := true
		for i, s := range sets {
			if i == smallest {
				continue
			}
			u := closest(s, x)
			x = LCA(x, u)
			if x == nil {
				ok = false
				break
			}
		}
		if ok {
			candidates = append(candidates, x)
		}
	}
	dewey.Sort(candidates)
	candidates = Dedup(candidates)
	return removeAncestors(candidates)
}

// closest returns the node of the pre-order-sorted list whose LCA with x is
// deepest: one of the two neighbours of x in pre-order.
func closest(list []dewey.Code, x dewey.Code) dewey.Code {
	i := SearchGE(list, x)
	var lm, rm dewey.Code
	if i < len(list) {
		rm = list[i]
	}
	if i > 0 {
		lm = list[i-1]
	}
	switch {
	case lm == nil:
		return rm
	case rm == nil:
		return lm
	}
	if dewey.CommonPrefixLen(lm, x) >= dewey.CommonPrefixLen(rm, x) {
		return lm
	}
	return rm
}

// removeAncestors keeps only the nodes that have no proper descendant in
// the pre-order-sorted, deduplicated list.
func removeAncestors(sorted []dewey.Code) []dewey.Code {
	out := sorted[:0]
	for i, c := range sorted {
		// In pre-order, a descendant of c (if any) appears at the next
		// distinct position.
		if i+1 < len(sorted) && IsAncestor(c, sorted[i+1]) {
			continue
		}
		out = append(out, c)
	}
	return out
}

// SLCAScanEager computes the smallest LCA set with the Scan Eager strategy
// of Xu & Papakonstantinou (SIGMOD 2005): a single merge scan over all
// posting lists in document order, emitting a candidate whenever the
// running LCA window closes, then removing non-minimal candidates.
func SLCAScanEager(sets [][]dewey.Code) []dewey.Code {
	if len(sets) == 0 {
		return nil
	}
	for _, s := range sets {
		if len(s) == 0 {
			return nil
		}
	}
	events := MergeSets(sets)

	// Sliding window over the merged stream: maintain, for each keyword,
	// the most recent occurrence; when all keywords have been seen, the
	// LCA of the current "closest" occurrence set is a candidate. A
	// linear scan with per-keyword last-seen codes reproduces Scan Eager's
	// behaviour without the original paper's cursor bookkeeping.
	last := make([]dewey.Code, len(sets))
	var candidates []dewey.Code
	for _, ev := range events {
		for i := range sets {
			if ev.Mask&(1<<uint(i)) != 0 {
				last[i] = ev.Code
			}
		}
		ready := true
		var acc dewey.Code
		for i := range last {
			if last[i] == nil {
				ready = false
				break
			}
			if acc == nil {
				acc = slices.Clone(last[i])
			} else {
				acc = LCA(acc, last[i])
			}
		}
		if ready && acc != nil {
			candidates = append(candidates, acc)
		}
	}
	if len(candidates) == 0 {
		return nil
	}
	dewey.Sort(candidates)
	candidates = Dedup(candidates)
	return removeAncestors(candidates)
}

// ELCAStackMerge computes the interesting LCA set in one pass over the
// merged keyword-node stream, maintaining a stack of Dewey components with
// keyword masks. A popped path node with a full residual mask is an ELCA;
// non-full masks propagate to the parent, full ones do not (the exclusion
// semantics). It plays the Indexed Stack algorithm of [12] (same output,
// verified against ELCANaive), and lca.ELCAStackDispatch is its ID form.
func ELCAStackMerge(sets [][]dewey.Code) []dewey.Code {
	k := len(sets)
	if k == 0 {
		return nil
	}
	for _, s := range sets {
		if len(s) == 0 {
			return nil
		}
	}
	full := fullMask(k)
	events := MergeSets(sets)

	// Each stack level carries two masks: residual (witnesses not absorbed
	// by an all-containing descendant — the ELCA test) and subtree (all
	// keywords anywhere below — the all-containing test). An all-containing
	// node absorbs its residual: nothing propagates past it, whether or not
	// it was itself reported as an ELCA.
	var (
		comps    []uint32
		residual []uint64
		subtree  []uint64
		result   []dewey.Code
	)
	pop := func(toLen int) {
		for len(comps) > toLen {
			top := len(comps) - 1
			if residual[top] == full {
				code := make(dewey.Code, len(comps))
				copy(code, comps)
				result = append(result, code)
			}
			if top >= 1 {
				subtree[top-1] |= subtree[top]
				if subtree[top] != full {
					residual[top-1] |= residual[top]
				}
			}
			comps = comps[:top]
			residual = residual[:top]
			subtree = subtree[:top]
		}
	}
	for _, ev := range events {
		l := 0
		for l < len(comps) && l < len(ev.Code) && comps[l] == ev.Code[l] {
			l++
		}
		pop(l)
		for i := l; i < len(ev.Code); i++ {
			comps = append(comps, ev.Code[i])
			residual = append(residual, 0)
			subtree = append(subtree, 0)
		}
		residual[len(residual)-1] |= ev.Mask
		subtree[len(subtree)-1] |= ev.Mask
	}
	pop(0)
	dewey.Sort(result)
	return result
}
