// Package nid compiles a document's Dewey-coded node set into a flat node
// table with dense document-order (pre-order) int32 IDs — the node-ID layer
// under the query pipeline.
//
// A Table stores, per node, its parent ID, its depth and the offset of its
// Dewey code inside a single shared []uint32 arena. Posting lists over IDs
// cost 4 bytes per entry (instead of a 24-byte slice header plus backing
// array per dewey.Code), pre-order comparison is integer comparison, and
// LCA/ancestor tests are short parent-chain walks that allocate nothing.
// Code(id) returns the node's Dewey code as a zero-copy sub-slice of the
// arena, so converting back to dewey.Code at the public API boundary is
// free. The design follows the node-numbering used by the Indexed Stack /
// DIL-style XML keyword systems (Xu & Papakonstantinou EDBT 2008, XRank).
//
// A Table is never mutated after it is built: a tail append derives a new
// table with Extend (snapshot.go), which shares the old one's backing arrays
// and leaves every existing ID where it was.
package nid

import (
	"fmt"

	"xks/internal/dewey"
)

// ID is a dense pre-order node identifier within one document's Table.
type ID int32

// None is the null ID (no parent, no node).
const None ID = -1

// Table is the flat node table: parallel parent/depth/offset columns over a
// shared Dewey arena. Node IDs are dense and assigned in pre-order, so
// id(a) < id(b) exactly when a precedes b in document order.
type Table struct {
	parent []ID
	depth  []int32 // root is depth 0; code length is depth+1
	off    []uint32
	arena  []uint32
}

// Len returns the number of nodes in the table.
func (t *Table) Len() int { return len(t.parent) }

// Code returns the node's Dewey code as a zero-copy sub-slice of the arena.
// Callers must not modify it.
func (t *Table) Code(i ID) dewey.Code {
	o := t.off[i]
	return dewey.Code(t.arena[o : o+uint32(t.depth[i])+1])
}

// Parent returns the node's parent ID, or None for a root.
func (t *Table) Parent(i ID) ID { return t.parent[i] }

// Depth returns the node's depth (root = 0).
func (t *Table) Depth(i ID) int32 { return t.depth[i] }

// AncestorAt returns the ancestor-or-self of i at depth d, or None when d
// exceeds the node's depth or the parent chain ends early.
func (t *Table) AncestorAt(i ID, d int32) ID {
	if d < 0 {
		return None
	}
	for i != None && t.depth[i] > d {
		i = t.parent[i]
	}
	if i == None || t.depth[i] != d {
		return None
	}
	return i
}

// IsAncestorOrSelf reports whether a is an ancestor of b or b itself.
func (t *Table) IsAncestorOrSelf(a, b ID) bool {
	return t.AncestorAt(b, t.depth[a]) == a
}

// IsAncestorOf reports whether a is a proper ancestor of b.
func (t *Table) IsAncestorOf(a, b ID) bool {
	return a != b && t.IsAncestorOrSelf(a, b)
}

// SubtreeEnd returns the ID one past the last descendant of i: because IDs
// are assigned in pre-order, i's subtree occupies exactly the contiguous
// range [i, SubtreeEnd(i)). Found by galloping, then binary search, over the
// monotone predicate "is no longer inside i's subtree", so a small subtree
// costs a few ancestor tests however large the document is.
func (t *Table) SubtreeEnd(i ID) ID {
	lo, hi := int(i)+1, len(t.parent) // [i, lo) is inside; hi is outside, or the end
	for step := 1; lo+step <= hi; step *= 2 {
		if !t.IsAncestorOrSelf(i, ID(lo+step-1)) {
			hi = lo + step - 1
			break
		}
		lo += step
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if t.IsAncestorOrSelf(i, ID(mid)) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return ID(lo)
}

// LCA returns the lowest common ancestor of a and b (a or b itself when one
// contains the other), or None when the nodes sit under distinct roots.
func (t *Table) LCA(a, b ID) ID {
	for t.depth[a] > t.depth[b] {
		a = t.parent[a]
	}
	for t.depth[b] > t.depth[a] {
		b = t.parent[b]
	}
	for a != b {
		a, b = t.parent[a], t.parent[b]
		if a == None || b == None {
			return None
		}
	}
	return a
}

// LCADepth returns the depth of LCA(a, b), or -1 when there is none.
func (t *Table) LCADepth(a, b ID) int32 {
	l := t.LCA(a, b)
	if l == None {
		return -1
	}
	return t.depth[l]
}

// Find locates the node with the given Dewey code by binary search over the
// pre-order table.
func (t *Table) Find(c dewey.Code) (ID, bool) {
	i := t.searchGE(c)
	if i < len(t.parent) && dewey.Equal(t.Code(ID(i)), c) {
		return ID(i), true
	}
	return None, false
}

// searchGE returns the index of the first node whose code is >= c.
func (t *Table) searchGE(c dewey.Code) int {
	lo, hi := 0, len(t.parent)
	for lo < hi {
		mid := (lo + hi) / 2
		if dewey.Compare(t.Code(ID(mid)), c) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Builder assembles a Table from codes fed in pre-order. Missing ancestors
// are synthesized, so any pre-order code stream yields an ancestor-closed
// table. Adding a code equal to the previous one returns the existing ID.
type Builder struct {
	t    Table
	prev dewey.Code
	path []ID // path[d] = ID of the current rightmost node at depth d
}

// NewBuilder returns a Builder with capacity hints for n nodes.
func NewBuilder(n int) *Builder {
	if n < 0 {
		n = 0
	}
	return &Builder{t: Table{
		parent: make([]ID, 0, n),
		depth:  make([]int32, 0, n),
		off:    make([]uint32, 0, n),
	}}
}

// Add appends the node with code c, synthesizing any ancestors not yet
// present, and returns its ID. Codes must arrive in pre-order (equal to or
// after the previously added code); Add panics otherwise, since a
// mis-ordered stream would silently break the dense-ID invariant.
func (b *Builder) Add(c dewey.Code) ID {
	if len(c) == 0 {
		return None
	}
	cmp := dewey.Compare(b.prev, c)
	if cmp > 0 {
		panic("nid: Builder.Add called with out-of-order code " + c.String())
	}
	if cmp == 0 {
		return ID(len(b.t.parent) - 1)
	}
	cp := dewey.CommonPrefixLen(b.prev, c)
	for l := cp + 1; l <= len(c); l++ {
		id := ID(len(b.t.parent))
		parent := None
		if l >= 2 {
			parent = b.path[l-2]
		}
		b.t.parent = append(b.t.parent, parent)
		b.t.depth = append(b.t.depth, int32(l-1))
		b.t.off = append(b.t.off, uint32(len(b.t.arena)))
		b.t.arena = append(b.t.arena, c[:l]...)
		if len(b.path) < l {
			b.path = append(b.path, id)
		} else {
			b.path[l-1] = id
		}
	}
	b.prev = b.t.Code(ID(len(b.t.parent) - 1))
	return ID(len(b.t.parent) - 1)
}

// Table finalizes and returns the built table. The Builder must not be used
// afterwards.
func (b *Builder) Table() *Table { return &b.t }

// Columns exposes the table's parallel columns and the shared Dewey arena
// for serialization (the store's v3 writer persists them verbatim). The
// slices are the table's own backing arrays; callers must not modify them.
func (t *Table) Columns() (parent []ID, depth []int32, off, arena []uint32) {
	return t.parent, t.depth, t.off, t.arena
}

// FromColumns adopts pre-built columns without copying — the store's v3
// zero-copy load path, where the slices view an mmap-ed (or heap-loaded)
// file section. It validates the structural invariants every table
// operation relies on for memory safety — column lengths agree, parents
// precede their children with depth parent+1, roots sit at depth 0, and
// every code window stays inside the arena — so a table built from
// CRC-valid but adversarial bytes can return wrong answers, never index
// out of bounds. Deeper semantic invariants (pre-order code ordering) are
// not checked; they cost a full scan and only affect result correctness.
func FromColumns(parent []ID, depth []int32, off, arena []uint32) (*Table, error) {
	n := len(parent)
	if len(depth) != n || len(off) != n {
		return nil, fmt.Errorf("nid: column lengths disagree: parent %d, depth %d, off %d", n, len(depth), len(off))
	}
	for i := 0; i < n; i++ {
		p := parent[i]
		switch {
		case p == None:
			if depth[i] != 0 {
				return nil, fmt.Errorf("nid: root node %d has depth %d", i, depth[i])
			}
		case p < 0 || int(p) >= i:
			return nil, fmt.Errorf("nid: node %d has invalid parent %d", i, p)
		case depth[i] != depth[p]+1:
			return nil, fmt.Errorf("nid: node %d depth %d under parent depth %d", i, depth[i], depth[p])
		}
		end := uint64(off[i]) + uint64(depth[i]) + 1
		if end > uint64(len(arena)) {
			return nil, fmt.Errorf("nid: node %d code window [%d,%d) exceeds arena length %d", i, off[i], end, len(arena))
		}
	}
	return &Table{parent: parent, depth: depth, off: off, arena: arena}, nil
}

// FromCodes builds a Table from an arbitrary set of codes: the input is
// copied, sorted, deduplicated and ancestor-closed. The returned table
// never aliases the caller's slices.
func FromCodes(codes []dewey.Code) *Table {
	sorted := make([]dewey.Code, len(codes))
	copy(sorted, codes)
	dewey.Sort(sorted)
	b := NewBuilder(len(sorted))
	for _, c := range sorted {
		b.Add(c)
	}
	return b.Table()
}
