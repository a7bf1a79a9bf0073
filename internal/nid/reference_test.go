package nid_test

import (
	"math/rand"
	"testing"

	"xks/internal/dewey"
	"xks/internal/nid"
	"xks/internal/reference"
)

// TestTableAgainstDeweyReference fuzzes LCA/ancestor operations against the
// Dewey-code references.
func TestTableAgainstDeweyReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		var all []dewey.Code
		n := 2 + rng.Intn(20)
		for i := 0; i < n; i++ {
			depth := 1 + rng.Intn(5)
			c := make(dewey.Code, depth)
			c[0] = 0
			for j := 1; j < depth; j++ {
				c[j] = uint32(rng.Intn(3))
			}
			all = append(all, c)
		}
		tab := nid.FromCodes(all)
		for i := 0; i < tab.Len(); i++ {
			for j := 0; j < tab.Len(); j++ {
				a, b := nid.ID(i), nid.ID(j)
				ca, cb := tab.Code(a), tab.Code(b)
				if got, want := tab.IsAncestorOrSelf(a, b), reference.IsAncestorOrSelf(ca, cb); got != want {
					t.Fatalf("IsAncestorOrSelf(%s, %s) = %v, want %v", ca, cb, got, want)
				}
				if got, want := tab.IsAncestorOf(a, b), reference.IsAncestor(ca, cb); got != want {
					t.Fatalf("IsAncestorOf(%s, %s) = %v, want %v", ca, cb, got, want)
				}
				wantLCA := reference.LCA(ca, cb)
				gotID := tab.LCA(a, b)
				if gotID == nid.None {
					if wantLCA != nil {
						t.Fatalf("LCA(%s, %s) = None, want %s", ca, cb, wantLCA)
					}
					continue
				}
				if !dewey.Equal(tab.Code(gotID), wantLCA) {
					t.Fatalf("LCA(%s, %s) = %s, want %s", ca, cb, tab.Code(gotID), wantLCA)
				}
				if tab.LCADepth(a, b) != int32(len(wantLCA)-1) {
					t.Fatalf("LCADepth(%s, %s) = %d, want %d", ca, cb, tab.LCADepth(a, b), len(wantLCA)-1)
				}
			}
		}
	}
}
