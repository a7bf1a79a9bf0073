// Package lca computes the LCA-based node sets that drive XML keyword
// search: SLCAs (smallest LCAs, Xu & Papakonstantinou SIGMOD 2005) and the
// paper's "interesting LCA nodes" — the ELCA semantics of the Indexed Stack
// algorithm (Xu & Papakonstantinou, EDBT 2008) used by ValidRTF's getLCA
// stage.
//
// Definitions, over keyword-node posting lists D1..Dk (pre-order sorted
// Dewey codes):
//
//   - A node v "contains all keywords" when for every i some node of Di is a
//     descendant-or-self of v.
//   - SLCA(D1..Dk): the all-containing nodes none of whose descendants is
//     all-containing.
//   - ELCA(D1..Dk) (the interesting LCAs): the nodes v such that for every
//     keyword i there is a witness x ∈ Di under v that is not under any
//     all-containing proper descendant of v. Equivalently: grouping every
//     keyword node by its lowest all-containing ancestor-or-self, v is an
//     ELCA exactly when its group covers all keywords.
//
// Three interchangeable ELCA implementations are provided and
// cross-validated by tests: ELCAStackMerge (single pass with a Dewey stack
// over the merged posting lists — the default, playing the role of the
// Indexed Stack algorithm), ELCAIndexedDispatch (SLCA + binary-search
// dispatch) and ELCANaive (direct definition; reference for tests).
package lca

import "xks/internal/dewey"

// FullMask returns the bitmask with the low k bits set: "all keywords".
func FullMask(k int) uint64 {
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
			x = dewey.LCA(x, u)
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
	candidates = dewey.Dedup(candidates)
	return removeAncestors(candidates)
}

// closest returns the node of the pre-order-sorted list whose LCA with x is
// deepest: one of the two neighbours of x in pre-order.
func closest(list []dewey.Code, x dewey.Code) dewey.Code {
	i := dewey.SearchGE(list, x)
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
		if i+1 < len(sorted) && c.IsAncestorOf(sorted[i+1]) {
			continue
		}
		out = append(out, c)
	}
	return out
}

// ELCAStackMerge computes the interesting LCA set in one pass over the
// merged keyword-node stream, maintaining a stack of Dewey components with
// keyword masks. A popped path node with a full residual mask is an ELCA;
// non-full masks propagate to the parent, full ones do not (the exclusion
// semantics). This is the production algorithm, standing in for the Indexed
// Stack algorithm of [12] (same output, verified against ELCANaive).
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
	full := FullMask(k)
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

// ELCAIndexedDispatch computes the interesting LCA set by first computing
// the SLCAs, then dispatching every keyword node to its lowest
// all-containing ancestor-or-self (a node is all-containing exactly when it
// is an ancestor-or-self of some SLCA) and keeping the dispatch targets
// whose groups cover all keywords.
func ELCAIndexedDispatch(sets [][]dewey.Code) []dewey.Code {
	k := len(sets)
	slcas := SLCA(sets)
	if len(slcas) == 0 {
		return nil
	}
	full := FullMask(k)
	groups := make(map[string]uint64)
	var order []dewey.Code
	for i, s := range sets {
		bit := uint64(1) << uint(i)
		for _, x := range s {
			p := LowestAllContaining(slcas, x)
			if p == nil {
				continue
			}
			key := p.Key()
			if _, seen := groups[key]; !seen {
				order = append(order, p)
			}
			groups[key] |= bit
		}
	}
	var out []dewey.Code
	for _, p := range order {
		if groups[p.Key()] == full {
			out = append(out, p)
		}
	}
	dewey.Sort(out)
	return out
}

// LowestAllContaining returns the deepest prefix of x that is an
// ancestor-or-self of some SLCA in the pre-order-sorted slcas list, or nil
// if none exists (only possible when slcas is empty, since the root covers
// everything). The result aliases x (a prefix sub-slice).
func LowestAllContaining(slcas []dewey.Code, x dewey.Code) dewey.Code {
	for l := len(x); l >= 1; l-- {
		p := x[:l]
		if coversSomeSLCA(slcas, p) {
			return p
		}
	}
	return nil
}

// coversSomeSLCA reports whether p is an ancestor-or-self of some SLCA.
func coversSomeSLCA(slcas []dewey.Code, p dewey.Code) bool {
	i := dewey.SearchGE(slcas, p)
	return i < len(slcas) && p.IsAncestorOrSelf(slcas[i])
}
