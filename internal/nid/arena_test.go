package nid

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"xks/internal/dewey"
)

// arenaTable is the node table as it was before the ordinal column: per
// node its parent, its depth and the offset of its Dewey code in one shared
// arena. It stays here as the reference the parent/depth/ordinal table is
// checked against, operation by operation.
type arenaTable struct {
	parent []ID
	depth  []int32
	off    []uint32
	arena  []uint32
}

func (t *arenaTable) code(i ID) dewey.Code {
	o := t.off[i]
	return dewey.Code(t.arena[o : o+uint32(t.depth[i])+1])
}

func (t *arenaTable) push(parent ID, c dewey.Code) {
	t.parent = append(t.parent, parent)
	t.depth = append(t.depth, int32(len(c)-1))
	t.off = append(t.off, uint32(len(t.arena)))
	t.arena = append(t.arena, c...)
}

// arenaFromCodes is the arena builder's Add over the sorted, deduplicated
// ancestor closure of codes.
func arenaFromCodes(codes []dewey.Code) *arenaTable {
	sorted := slices.Clone(codes)
	dewey.Sort(sorted)
	t := &arenaTable{}
	var prev dewey.Code
	var path []ID
	for _, c := range sorted {
		if dewey.Equal(prev, c) {
			continue
		}
		for l := dewey.CommonPrefixLen(prev, c) + 1; l <= len(c); l++ {
			parent := None
			if l >= 2 {
				parent = path[l-2]
			}
			path = append(path[:l-1], ID(len(t.parent)))
			t.push(parent, c[:l])
		}
		prev = c
	}
	return t
}

// arenaFromDepths is the arena builder's Push and its second pass: each
// node's code is its parent's plus the count of its earlier siblings.
func arenaFromDepths(depths []int) *arenaTable {
	t := &arenaTable{}
	var path []ID
	kids := map[ID]uint32{}
	for _, d := range depths {
		parent := None
		if d > 0 {
			parent = path[d-1]
		}
		var c dewey.Code
		if parent != None {
			c = slices.Clone(t.code(parent))
		}
		path = append(path[:d], ID(len(t.parent)))
		t.push(parent, append(c, kids[parent]))
		kids[parent]++
	}
	return t
}

func (t *arenaTable) find(c dewey.Code) (ID, bool) {
	lo, hi := 0, len(t.parent)
	for lo < hi {
		mid := (lo + hi) / 2
		if dewey.Compare(t.code(ID(mid)), c) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(t.parent) && dewey.Equal(t.code(ID(lo)), c) {
		return ID(lo), true
	}
	return None, false
}

func (t *arenaTable) ancestorAt(i ID, d int32) ID {
	if d < 0 || d > t.depth[i] {
		return None
	}
	a, ok := t.find(t.code(i)[:d+1])
	if !ok {
		return None
	}
	return a
}

// subtreeEnd is a linear scan for the first node outside i's subtree.
func (t *arenaTable) subtreeEnd(i ID) ID {
	j := i + 1
	for int(j) < len(t.parent) && t.ancestorAt(j, t.depth[i]) == i {
		j++
	}
	return j
}

func (t *arenaTable) lca(a, b ID) ID {
	n := dewey.CommonPrefixLen(t.code(a), t.code(b))
	if n == 0 {
		return None
	}
	return t.ancestorAt(a, int32(n-1))
}

func (t *arenaTable) truncate(n int) *arenaTable {
	return &arenaTable{parent: t.parent[:n:n], depth: t.depth[:n:n], off: t.off[:n:n], arena: t.arena}
}

func (t *arenaTable) extend(codes []dewey.Code) *arenaTable {
	nt := &arenaTable{parent: slices.Clip(t.parent), depth: slices.Clip(t.depth), off: slices.Clip(t.off), arena: slices.Clip(t.arena)}
	for _, c := range codes {
		parent := None
		if len(c) > 1 {
			parent, _ = nt.find(c[:len(c)-1])
		}
		nt.push(parent, c)
	}
	return nt
}

// randomSparseCodes returns n codes under up to three roots, with sparse
// ordinals: a code's components skip values, so a node's ordinal is seldom
// its sibling count.
func randomSparseCodes(rng *rand.Rand, n int) []dewey.Code {
	out := make([]dewey.Code, n)
	for i := range out {
		c := make(dewey.Code, 1+rng.Intn(6))
		for d := range c {
			c[d] = uint32(rng.Intn(4)) * uint32(1+rng.Intn(3))
		}
		c[0] = uint32(rng.Intn(3)) * 2
		out[i] = c
	}
	return out
}

// randomDepths returns a pre-order depth sequence of n nodes under one root.
func randomDepths(rng *rand.Rand, n int) []int {
	out := []int{0}
	for len(out) < n {
		out = append(out, 1+rng.Intn(out[len(out)-1]+1))
	}
	return out
}

// agree fails unless got answers every table operation as want does:
// codes (Code, AppendCode, Ordinal), parents, depths, Find of present and
// absent codes, AncestorAt, SubtreeEnd and LCA.
func agree(t *testing.T, name string, got *Table, want *arenaTable, rng *rand.Rand) {
	t.Helper()
	if got.Len() != len(want.parent) {
		t.Fatalf("%s: Len %d, want %d", name, got.Len(), len(want.parent))
	}
	prefix := dewey.Code{7, 7}
	for i := range ID(got.Len()) {
		c := want.code(i)
		if g := got.Code(i); !dewey.Equal(g, c) {
			t.Fatalf("%s: Code(%d) = %s, want %s", name, i, g, c)
		}
		if g := got.AppendCode(slices.Clip(prefix), i); !dewey.Equal(g[:2], prefix) || !dewey.Equal(g[2:], c) {
			t.Fatalf("%s: AppendCode(7.7, %d) = %s", name, i, g)
		}
		if got.Ordinal(i) != c[len(c)-1] || got.Parent(i) != want.parent[i] || got.Depth(i) != want.depth[i] {
			t.Fatalf("%s: node %d (%s): ordinal %d parent %d depth %d, want parent %d depth %d", name, i, c,
				got.Ordinal(i), got.Parent(i), got.Depth(i), want.parent[i], want.depth[i])
		}
		if id, ok := got.Find(c); !ok || id != i {
			t.Fatalf("%s: Find(%s) = %d, %v, want %d", name, c, id, ok, i)
		}
		if g, w := got.SubtreeEnd(i), want.subtreeEnd(i); g != w {
			t.Fatalf("%s: SubtreeEnd(%d) = %d, want %d", name, i, g, w)
		}
		for d := int32(-1); d <= want.depth[i]+1; d++ {
			if g, w := got.AncestorAt(i, d), want.ancestorAt(i, d); g != w {
				t.Fatalf("%s: AncestorAt(%s, %d) = %d, want %d", name, c, d, g, w)
			}
		}
		j := ID(rng.Intn(got.Len()))
		if g, w := got.LCA(i, j), want.lca(i, j); g != w {
			t.Fatalf("%s: LCA(%d, %d) = %d, want %d", name, i, j, g, w)
		}
	}
	for range 20 {
		c := randomSparseCodes(rng, 1)[0]
		gid, gok := got.Find(c)
		wid, wok := want.find(c)
		if gid != wid || gok != wok {
			t.Fatalf("%s: Find(%s) = %d, %v, want %d, %v", name, c, gid, gok, wid, wok)
		}
	}
}

// tailCodes returns the codes of sub's nodes grafted under parent of want
// as ExtendUnder grafts them: sub's roots numbered after parent's last
// child.
func tailCodes(want *arenaTable, parent ID, sub *arenaTable) []dewey.Code {
	var at dewey.Code
	level := 0
	if parent != None {
		at, level = want.code(parent), int(want.depth[parent])+1
	}
	next := uint32(0)
	if last := ID(len(want.parent) - 1); last >= 0 && last != parent {
		next = want.code(last)[level] + 1
	}
	out := make([]dewey.Code, len(sub.parent))
	for j := range out {
		s := sub.code(ID(j))
		c := append(slices.Clone(at), next+s[0])
		out[j] = append(c, s[1:]...)
	}
	return out
}

// TestTableAgainstArenaTable: on random ancestor-closed code sets — from
// FromCodes (sparse ordinals, several roots) and from Push — the
// parent/depth/ordinal table agrees with the arena table on every
// operation, and so do its truncations, its Extend by codes and its
// ordinal-form ExtendUnder.
func TestTableAgainstArenaTable(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	for trial := range 150 {
		var got *Table
		var want *arenaTable
		if trial%2 == 0 {
			codes := randomSparseCodes(rng, 1+rng.Intn(40))
			got, want = FromCodes(codes), arenaFromCodes(codes)
		} else {
			depths := randomDepths(rng, 1+rng.Intn(40))
			b := NewBuilder(rng.Intn(len(depths) + 1))
			for _, d := range depths {
				b.Push(d)
			}
			got, want = b.Table(), arenaFromDepths(depths)
		}
		name := fmt.Sprintf("trial %d", trial)
		agree(t, name, got, want, rng)

		n := rng.Intn(got.Len() + 1)
		view, err := got.Truncate(n)
		if err != nil {
			t.Fatal(err)
		}
		agree(t, name+" truncated", view, want.truncate(n), rng)

		// A tail graft under a node of the rightmost spine, or as new roots.
		spine := []ID{None}
		for a := ID(got.Len() - 1); a != None; a = got.Parent(a) {
			spine = append(spine, a)
		}
		parent := spine[rng.Intn(len(spine))]
		subCodes := randomSparseCodes(rng, 1+rng.Intn(8))
		for _, c := range subCodes {
			c[0] = 0 // one root, numbered from the parent's next ordinal
		}
		subRef := arenaFromCodes(subCodes)
		codes := tailCodes(want, parent, subRef)
		extWant := want.extend(codes)
		byCodes, ids, err := got.Extend(codes)
		if err != nil {
			t.Fatalf("%s: Extend(%v): %v", name, codes, err)
		}
		if len(ids) != len(codes) || (len(ids) > 0 && ids[0] != ID(got.Len())) {
			t.Fatalf("%s: Extend assigned %v", name, ids)
		}
		agree(t, name+" extended by codes", byCodes, extWant, rng)
		byOrdinals, err := got.ExtendUnder(parent, FromCodes(subCodes))
		if err != nil {
			t.Fatalf("%s: ExtendUnder(%d): %v", name, parent, err)
		}
		agree(t, name+" extended under a parent", byOrdinals, extWant, rng)
		agree(t, name+" after the extends", got, want, rng)
	}
}

// TestExtendUnderRejects: a parent off the rightmost spine, a node landing
// past MaxDepth and an ordinal past the uint32 range fail the extend.
func TestExtendUnderRejects(t *testing.T) {
	base := FromCodes(codes("0.0.1", "0.4294967295"))
	leaf := FromCodes(codes("0"))
	if _, err := base.ExtendUnder(1, leaf); err == nil {
		t.Error("extended under a node whose subtree does not end the table")
	}
	if _, err := base.ExtendUnder(0, leaf); err == nil {
		t.Error("numbered a child past the uint32 range")
	}
	if _, err := base.ExtendUnder(ID(base.Len()), leaf); err == nil {
		t.Error("extended under a node past the table")
	}
	b := NewBuilder(0)
	for d := range MaxDepth + 1 {
		b.Push(d)
	}
	deep := b.Table()
	if _, err := deep.ExtendUnder(ID(deep.Len()-1), leaf); err == nil {
		t.Errorf("placed a node at depth %d", MaxDepth+1)
	}
	if ext, err := deep.ExtendUnder(ID(deep.Len()-2), leaf); err != nil || ext.Depth(ID(deep.Len())) != MaxDepth {
		t.Errorf("a node at depth %d: %v", MaxDepth, err)
	}
}
