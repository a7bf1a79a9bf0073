package reference

// The definitions themselves: quadratic and map-based.

import (
	"slices"

	"xks/internal/dewey"
)

// ELCANaive computes the interesting LCA set straight from the definition.
// It materializes the all-containing predicate for every candidate prefix
// and tests each candidate's witnesses; exponential care is not needed but
// it is O(n²·depth).
func ELCANaive(sets [][]dewey.Code) []dewey.Code {
	k := len(sets)
	if k == 0 {
		return nil
	}
	for _, s := range sets {
		if len(s) == 0 {
			return nil
		}
	}
	// Candidate nodes: every prefix of every keyword node.
	cands := map[string]dewey.Code{}
	for _, s := range sets {
		for _, x := range s {
			for l := 1; l <= len(x); l++ {
				p := x[:l]
				cands[Key(p)] = slices.Clone(p)
			}
		}
	}
	containsAll := func(p dewey.Code) bool {
		for _, s := range sets {
			found := false
			for _, x := range s {
				if IsAncestorOrSelf(p, x) {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	lowestAC := func(x dewey.Code) dewey.Code {
		for l := len(x); l >= 1; l-- {
			if containsAll(x[:l]) {
				return slices.Clone(x[:l])
			}
		}
		return nil
	}
	var out []dewey.Code
	for _, v := range cands {
		if !containsAll(v) {
			continue
		}
		ok := true
		for _, s := range sets {
			witness := false
			for _, x := range s {
				if !IsAncestorOrSelf(v, x) {
					continue
				}
				if la := lowestAC(x); la != nil && dewey.Equal(la, v) {
					witness = true
					break
				}
			}
			if !witness {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, v)
		}
	}
	dewey.Sort(out)
	return out
}

// SLCANaive computes the SLCA set straight from the definition.
func SLCANaive(sets [][]dewey.Code) []dewey.Code {
	k := len(sets)
	if k == 0 {
		return nil
	}
	for _, s := range sets {
		if len(s) == 0 {
			return nil
		}
	}
	cands := map[string]dewey.Code{}
	for _, s := range sets {
		for _, x := range s {
			for l := 1; l <= len(x); l++ {
				p := x[:l]
				cands[Key(p)] = slices.Clone(p)
			}
		}
	}
	containsAll := func(p dewey.Code) bool {
		for _, s := range sets {
			found := false
			for _, x := range s {
				if IsAncestorOrSelf(p, x) {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	var all []dewey.Code
	for _, v := range cands {
		if containsAll(v) {
			all = append(all, v)
		}
	}
	var out []dewey.Code
	for _, v := range all {
		minimal := true
		for _, u := range all {
			if IsAncestor(v, u) {
				minimal = false
				break
			}
		}
		if minimal {
			out = append(out, v)
		}
	}
	dewey.Sort(out)
	return out
}
