// Package lca computes the LCA-based node sets that drive XML keyword
// search: SLCAs (smallest LCAs, Xu & Papakonstantinou SIGMOD 2005) and the
// paper's "interesting LCA nodes" — the ELCA semantics of the Indexed Stack
// algorithm (Xu & Papakonstantinou, EDBT 2008) used by ValidRTF's getLCA
// stage.
//
// Definitions, over keyword-node posting lists D1..Dk (pre-order sorted):
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
// Each semantics has one implementation, on node IDs (ids.go): ELCA roots
// come from the stack merge ELCAStackDispatch, SLCA roots from the galloping
// Indexed Lookup Eager kernel. Their Dewey-code forms and the naive
// definitions live in internal/reference, which only tests import.
package lca

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
