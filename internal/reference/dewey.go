package reference

import "xks/internal/dewey"

// LCA returns the lowest common ancestor of a and b: their longest common
// prefix, aliasing a. It is nil when either code is nil or the codes share
// no root.
func LCA(a, b dewey.Code) dewey.Code {
	if i := dewey.CommonPrefixLen(a, b); i > 0 {
		return a[:i]
	}
	return nil
}

// IsAncestor reports whether a is a proper ancestor of b (a ≺a b in the
// paper's notation): a strict prefix of b.
func IsAncestor(a, b dewey.Code) bool {
	return len(a) < len(b) && dewey.CommonPrefixLen(a, b) == len(a)
}

// IsAncestorOrSelf reports whether a is an ancestor of b or equal to b.
func IsAncestorOrSelf(a, b dewey.Code) bool {
	return len(a) <= len(b) && dewey.CommonPrefixLen(a, b) == len(a)
}

// Key returns a compact string usable as a map key: two codes have equal
// keys exactly when dewey.Equal reports true, and keys sort in pre-order
// (each component is big-endian fixed width).
func Key(c dewey.Code) string {
	b := make([]byte, 0, len(c)*4)
	for _, v := range c {
		b = append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	}
	return string(b)
}

// LCAAll returns the lowest common ancestor of all given codes. With no
// arguments it returns nil; with one it returns that code itself. The
// result aliases the first code (a prefix sub-slice).
func LCAAll(codes ...dewey.Code) dewey.Code {
	if len(codes) == 0 {
		return nil
	}
	acc := codes[0]
	for _, c := range codes[1:] {
		acc = LCA(acc, c)
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
