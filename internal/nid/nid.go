// Package nid compiles a document's Dewey-coded node set into a flat node
// table with dense document-order (pre-order) int32 IDs — the node-ID layer
// under the query pipeline.
//
// A Table stores three columns per node: its parent ID (int32), its depth
// (uint16) and its ordinal (uint32), the last component of its Dewey code —
// 10 bytes a node. Posting lists over IDs cost 4 bytes per entry (instead
// of a 24-byte slice header plus backing array per dewey.Code), pre-order
// comparison is integer comparison, and LCA/ancestor tests are short
// parent-chain walks that allocate nothing. A node's Dewey code is derived
// on demand: AppendCode walks the parent chain into the caller's buffer,
// one ordinal a level, and Find binary-searches the pre-order IDs against
// codes built that way. The paper's algorithms only compare codes and take
// their prefixes, which parents and depths answer. The design follows the
// node numbering of the Indexed Stack / DIL-style XML keyword systems (Xu &
// Papakonstantinou EDBT 2008, XRank), where a node is its pre-order number
// and its Dewey label is derived from it.
//
// A Table is never mutated after it is built: a tail append derives a new
// table with ExtendUnder (or Extend, snapshot.go), which shares the old
// one's backing arrays and leaves every existing ID where it was.
package nid

import (
	"fmt"
	"math"
	"slices"

	"xks/internal/dewey"
)

// ID is a dense pre-order node identifier within one document's Table.
type ID int32

// None is the null ID (no parent, no node).
const None ID = -1

// MaxDepth is the deepest node a Table holds (the root is at depth 0): the
// depth column is a uint16. Builders panic past it, ExtendUnder and
// FromColumns refuse it, and the document readers (xmltree.Scan,
// index.Analyze) refuse a document that nests deeper with an error.
const MaxDepth = math.MaxUint16

// Table is the flat node table: parallel parent, depth and ordinal columns.
// Node IDs are dense and assigned in pre-order, so id(a) < id(b) exactly
// when a precedes b in document order.
type Table struct {
	parent  []ID
	depth   []uint16 // root is depth 0; code length is depth+1
	ordinal []uint32 // the last component of the node's Dewey code
}

// Len returns the number of nodes in the table.
func (t *Table) Len() int { return len(t.parent) }

// AppendCode appends the node's Dewey code to dst, walked from the node up
// its parent chain, and returns the extended slice. It allocates only when
// dst lacks room for depth+1 components.
func (t *Table) AppendCode(dst dewey.Code, i ID) dewey.Code {
	n := len(dst)
	d := int(t.depth[i])
	dst = slices.Grow(dst, d+1)[:n+d+1]
	for k := n + d; k >= n; k-- {
		dst[k] = t.ordinal[i]
		i = t.parent[i]
	}
	return dst
}

// Code returns the node's Dewey code in a fresh slice (AppendCode to nil).
func (t *Table) Code(i ID) dewey.Code { return t.AppendCode(nil, i) }

// Codes returns the codes of the given nodes, each a capacity-capped slice
// of one buffer sized for them all.
func (t *Table) Codes(ids []ID) []dewey.Code {
	size := 0
	for _, id := range ids {
		size += int(t.depth[id]) + 1
	}
	flat, out := make(dewey.Code, 0, size), make([]dewey.Code, len(ids))
	for i, id := range ids {
		start := len(flat)
		flat = t.AppendCode(flat, id)
		out[i] = flat[start:len(flat):len(flat)]
	}
	return out
}

// Ordinal returns the last component of the node's Dewey code: its
// position among its parent's children, or among the roots.
func (t *Table) Ordinal(i ID) uint32 { return t.ordinal[i] }

// Parent returns the node's parent ID, or None for a root.
func (t *Table) Parent(i ID) ID { return t.parent[i] }

// Depth returns the node's depth (root = 0).
func (t *Table) Depth(i ID) int32 { return int32(t.depth[i]) }

// AncestorAt returns the ancestor-or-self of i at depth d, or None when d
// exceeds the node's depth or the parent chain ends early.
func (t *Table) AncestorAt(i ID, d int32) ID {
	if d < 0 {
		return None
	}
	for i != None && int32(t.depth[i]) > d {
		i = t.parent[i]
	}
	if i == None || int32(t.depth[i]) != d {
		return None
	}
	return i
}

// IsAncestorOrSelf reports whether a is an ancestor of b or b itself.
func (t *Table) IsAncestorOrSelf(a, b ID) bool {
	return t.AncestorAt(b, int32(t.depth[a])) == a
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
	return int32(t.depth[l])
}

// Find locates the node with the given Dewey code by binary search over the
// pre-order IDs, each probed node's code built from its parent chain into
// one stack buffer: O(log n · depth), allocating nothing for codes of up to
// 32 levels.
func (t *Table) Find(c dewey.Code) (ID, bool) {
	var stack [32]uint32
	buf := dewey.Code(stack[:0])
	lo, hi := 0, len(t.parent)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if buf = t.AppendCode(buf[:0], ID(mid)); dewey.Compare(buf, c) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(t.parent) && int(t.depth[lo]) == len(c)-1 && dewey.Equal(t.AppendCode(buf[:0], ID(lo)), c) {
		return ID(lo), true
	}
	return None, false
}

// Builder assembles a Table from nodes fed in pre-order, either as Dewey
// codes (Add) or as depths (Push), not both. Add synthesizes missing
// ancestors, so any pre-order code stream yields an ancestor-closed table;
// adding a code equal to the previous one returns the existing ID.
type Builder struct {
	t    Table
	prev dewey.Code // the code Add added last
	path []ID       // path[d] = ID of the current rightmost node at depth d
	next []uint32   // next[d] = the ordinal Push gives the next node at depth d
}

// NewBuilder returns a Builder with capacity hints for n nodes.
func NewBuilder(n int) *Builder {
	n = max(n, 0)
	return &Builder{t: Table{
		parent:  make([]ID, 0, n),
		depth:   make([]uint16, 0, n),
		ordinal: make([]uint32, 0, n),
	}}
}

// Push appends the next node in pre-order at the given depth — 0 for a
// root, at most one below the previous node's, at most MaxDepth — and
// returns its ID. Its parent is the last node pushed one level up, and its
// ordinal the count of the nodes pushed before it under that parent.
func (b *Builder) Push(depth int) ID {
	if depth < 0 || depth > len(b.path) || depth > MaxDepth {
		panic(fmt.Sprintf("nid: Builder.Push at depth %d after a node at depth %d", depth, len(b.path)-1))
	}
	id, parent := ID(len(b.t.parent)), None
	if depth > 0 {
		parent = b.path[depth-1]
	}
	if depth == len(b.next) {
		b.next = append(b.next, 0)
	}
	ord := b.next[depth]
	b.path = append(b.path[:depth], id)
	b.next = append(b.next[:depth], ord+1)
	b.t.append(parent, depth, ord)
	return id
}

// append adds one row at the tail.
func (t *Table) append(parent ID, depth int, ordinal uint32) {
	t.parent = append(t.parent, parent)
	t.depth = append(t.depth, uint16(depth))
	t.ordinal = append(t.ordinal, ordinal)
}

// Add appends the node with code c, synthesizing any ancestors not yet
// present, and returns its ID; every node takes its own code's last
// component as its ordinal, so a sparse code set round-trips. Codes must
// arrive in pre-order (equal to or after the previously added code) and be
// at most MaxDepth+1 long; Add panics otherwise, since a mis-ordered stream
// would silently break the dense-ID invariant.
func (b *Builder) Add(c dewey.Code) ID {
	if len(c) == 0 {
		return None
	}
	if len(c)-1 > MaxDepth {
		panic(fmt.Sprintf("nid: Builder.Add of a code %d levels deep", len(c)))
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
		b.t.append(parent, l-1, c[l-1])
		b.path = append(b.path[:l-1], id)
	}
	b.prev = append(b.prev[:0], c...)
	return ID(len(b.t.parent) - 1)
}

// Table finalizes and returns the built table, its columns capacity-capped
// so that a store holding it is never written by an Extend. The Builder
// must not be used afterwards.
func (b *Builder) Table() *Table {
	t := &b.t
	if cap(t.parent) > len(t.parent) { // the hint was not the node count
		t.parent, t.depth, t.ordinal = slices.Clone(t.parent), slices.Clone(t.depth), slices.Clone(t.ordinal)
	}
	t.parent, t.depth, t.ordinal = slices.Clip(t.parent), slices.Clip(t.depth), slices.Clip(t.ordinal)
	return t
}

// Columns exposes the table's parallel columns for serialization (the
// store's writer persists them verbatim). The slices are the table's own
// backing arrays; callers must not modify them.
func (t *Table) Columns() (parent []ID, depth []uint16, ordinal []uint32) {
	return t.parent, t.depth, t.ordinal
}

// FromColumns adopts pre-built columns without copying — the store's
// zero-copy load path, where the slices view an mmap-ed (or heap-loaded)
// file section. It validates the structural invariants every table
// operation relies on for memory safety — column lengths agree, parents
// precede their children with depth parent+1 (summed in int, so a child
// of a node at MaxDepth cannot wrap to 0), roots sit at depth 0 — so a
// table built from CRC-valid but adversarial bytes can return wrong
// answers, never index out of bounds. Deeper semantic invariants (sibling
// ordinals ascending in pre-order) are not checked; they cost a full scan
// and only affect result correctness.
func FromColumns(parent []ID, depth []uint16, ordinal []uint32) (*Table, error) {
	n := len(parent)
	if len(depth) != n || len(ordinal) != n {
		return nil, fmt.Errorf("nid: column lengths disagree: parent %d, depth %d, ordinal %d", n, len(depth), len(ordinal))
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
		case int(depth[i]) != int(depth[p])+1:
			return nil, fmt.Errorf("nid: node %d depth %d under parent depth %d", i, depth[i], depth[p])
		}
	}
	return &Table{parent: parent, depth: depth, ordinal: ordinal}, nil
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
