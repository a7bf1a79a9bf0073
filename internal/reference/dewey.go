package reference

import "xks/internal/dewey"

// LCAAll returns the lowest common ancestor of all given codes. With no
// arguments it returns nil; with one it returns that code itself. The
// result aliases the first code (a prefix sub-slice).
func LCAAll(codes ...dewey.Code) dewey.Code {
	if len(codes) == 0 {
		return nil
	}
	acc := codes[0]
	for _, c := range codes[1:] {
		acc = dewey.LCA(acc, c)
		if acc == nil {
			return nil
		}
	}
	return acc
}

// SearchGE returns the index of the first code in the pre-order-sorted slice
// cs that is >= c, or len(cs) if all codes precede c.
func SearchGE(cs []dewey.Code, c dewey.Code) int {
	lo, hi := 0, len(cs)
	for lo < hi {
		mid := (lo + hi) / 2
		if dewey.Compare(cs[mid], c) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Dedup removes duplicate codes from a pre-order-sorted slice, in place,
// returning the shortened slice.
func Dedup(cs []dewey.Code) []dewey.Code {
	if len(cs) == 0 {
		return cs
	}
	out := cs[:1]
	for _, c := range cs[1:] {
		if !dewey.Equal(out[len(out)-1], c) {
			out = append(out, c)
		}
	}
	return out
}
