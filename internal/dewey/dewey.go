// Package dewey implements Dewey codes for XML trees.
//
// A Dewey code identifies a node by the path of child ordinals from the
// root, e.g. "0.2.0.1" (Tatarinov & Viglas, SIGMOD 2002). Dewey codes are
// compatible with pre-order document numbering: node u precedes node v in a
// pre-order left-to-right depth-first traversal exactly when
// Compare(u, v) < 0. The code of an ancestor is a proper prefix of the code
// of each of its descendants, which makes ancestor tests and lowest common
// ancestor computation (longest common prefix) cheap. This is the node
// identity used throughout the ValidRTF reproduction.
package dewey

import (
	"fmt"
	"strconv"
	"strings"
)

// Code is a Dewey code: the sequence of child ordinals on the path from the
// root to a node. The root itself is conventionally Code{0}. The zero value
// (nil) is not a valid node code; it compares before every valid code and is
// an ancestor of nothing.
type Code []uint32

// Parse converts the textual form "0.2.0.1" into a Code.
func Parse(s string) (Code, error) {
	if s == "" {
		return nil, fmt.Errorf("dewey: empty code")
	}
	parts := strings.Split(s, ".")
	c := make(Code, len(parts))
	for i, p := range parts {
		n, err := strconv.ParseUint(p, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("dewey: bad component %q in %q: %v", p, s, err)
		}
		c[i] = uint32(n)
	}
	return c, nil
}

// MustParse is Parse that panics on malformed input. It is intended for
// tests and package-level literals.
func MustParse(s string) Code {
	c, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return c
}

// String renders the code in the dotted form used in the paper, e.g.
// "0.2.0.1". The nil code renders as "ε". Rendered into one presized byte
// buffer (components are almost always short), since the fragment assembly
// hot path stringifies every kept node.
func (c Code) String() string {
	if len(c) == 0 {
		return "ε"
	}
	return string(c.AppendString(make([]byte, 0, len(c)*3)))
}

// AppendString appends the dotted form of c to b and returns the extended
// buffer, letting callers that stringify many codes (fragment assembly)
// reuse one scratch buffer — a single retained allocation per string.
func (c Code) AppendString(b []byte) []byte {
	for i, v := range c {
		if i > 0 {
			b = append(b, '.')
		}
		b = strconv.AppendUint(b, uint64(v), 10)
	}
	return b
}

// StringLen returns len(c.String()) of a non-empty code without rendering
// it, for callers that size one buffer for many codes.
func (c Code) StringLen() int {
	n := len(c) - 1 // the dots
	for _, v := range c {
		n++
		for ; v >= 10; v /= 10 {
			n++
		}
	}
	return n
}

// Level reports the depth of the node: the root (Code{0}) is level 0.
func (c Code) Level() int {
	if len(c) == 0 {
		return -1
	}
	return len(c) - 1
}

// Compare orders codes in pre-order (document order): component-wise
// numeric, with a prefix ordering before its extensions. It returns -1, 0 or
// +1.
func Compare(a, b Code) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// Equal reports whether a and b denote the same node.
func Equal(a, b Code) bool { return Compare(a, b) == 0 }

// Child returns the code of the i-th child of c.
func (c Code) Child(i uint32) Code {
	out := make(Code, len(c)+1)
	copy(out, c)
	out[len(c)] = i
	return out
}

// CommonPrefixLen returns the number of leading components a and b share.
func CommonPrefixLen(a, b Code) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// Sort orders a slice of codes in pre-order, in place.
func Sort(cs []Code) {
	sortCodes(cs)
}

func sortCodes(cs []Code) {
	// Insertion sort for tiny slices, quicksort otherwise. Implemented by
	// hand to keep the package dependency-free and allocation-free.
	if len(cs) < 12 {
		for i := 1; i < len(cs); i++ {
			for j := i; j > 0 && Compare(cs[j-1], cs[j]) > 0; j-- {
				cs[j-1], cs[j] = cs[j], cs[j-1]
			}
		}
		return
	}
	pivot := cs[len(cs)/2]
	lo, hi := 0, len(cs)-1
	for lo <= hi {
		for Compare(cs[lo], pivot) < 0 {
			lo++
		}
		for Compare(cs[hi], pivot) > 0 {
			hi--
		}
		if lo <= hi {
			cs[lo], cs[hi] = cs[hi], cs[lo]
			lo++
			hi--
		}
	}
	sortCodes(cs[:hi+1])
	sortCodes(cs[lo:])
}
