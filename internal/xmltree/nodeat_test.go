package xmltree_test

import (
	"testing"

	"xks/internal/datagen"
	"xks/internal/dewey"
	"xks/internal/xmltree"
)

// NodeAt walks a code's child ordinals from the root: it finds every node
// of random generated trees by its code, and nothing for a code that names
// no node.
func TestNodeAtWalksOrdinals(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		for _, tr := range []*xmltree.Tree{
			datagen.DBLP(datagen.DBLPConfig{Seed: seed, NumRecords: 40}),
			datagen.XMark(datagen.XMarkConfig{Seed: seed, Items: 30}),
		} {
			n := 0
			tr.Walk(func(node *xmltree.Node) bool {
				n++
				if got := tr.NodeAt(node.Code); got != node {
					t.Fatalf("seed %d: NodeAt(%s) = %v, want %v", seed, node.Code, got, node)
				}
				// One past the last child names no node.
				if got := tr.NodeAt(node.Code.Child(uint32(len(node.Children)))); got != nil {
					t.Fatalf("seed %d: NodeAt past %s's children = %v, want nil", seed, node.Code, got)
				}
				return true
			})
			if n != tr.Size() {
				t.Fatalf("seed %d: walked %d nodes, Size() = %d", seed, n, tr.Size())
			}
		}
	}

	tr := datagen.DBLP(datagen.DBLPConfig{Seed: 1, NumRecords: 5})
	for _, c := range []dewey.Code{nil, {}, {1}, {2, 0}, {0, 5}, {0, 0, 1 << 31}} {
		if got := tr.NodeAt(c); got != nil {
			t.Errorf("NodeAt(%v) = %v, want nil", []uint32(c), got)
		}
	}
	if got := (&xmltree.Tree{}).NodeAt(dewey.Code{0}); got != nil {
		t.Errorf("empty tree: NodeAt(0) = %v, want nil", got)
	}
}
