package nid

// Snapshot-oriented table operations. The delta-index write path extends a
// table at its tail on shared backing arrays (ExtendUnder, Extend), and
// snapshot reads view a length-bounded prefix of a later header (Truncate).
// Together they give cheap structural sharing: one append allocates only
// the appended rows, and every previously published header — or any prefix
// view of one — stays a valid immutable table, because rows below a
// header's length are never rewritten. The engine's source tables, a head's segment list and the
// merged posting lists grow by the same rule; internal/delta's package
// comment states it once (who may extend, why a pinned reader is safe).

import (
	"fmt"
	"math"

	"xks/internal/dewey"
)

// Truncate returns a view of the table restricted to its first n nodes.
// The view shares backing arrays with t: because IDs are assigned in
// pre-order and the extends only add rows at the tail, the first n rows of
// any later header describe exactly the nodes the table held when its
// length was n. Truncate(t.Len()) returns t itself.
func (t *Table) Truncate(n int) (*Table, error) {
	if n < 0 || n > len(t.parent) {
		return nil, fmt.Errorf("nid: truncate length %d outside [0, %d]", n, len(t.parent))
	}
	if n == len(t.parent) {
		return t, nil
	}
	// Full slice expressions cap the views at their length so an append
	// through a view can never write into a longer header's rows.
	return &Table{parent: t.parent[:n:n], depth: t.depth[:n:n], ordinal: t.ordinal[:n:n]}, nil
}

// ExtendUnder returns a new Table header with sub's nodes appended at the
// tail, in sub's pre-order, sub's roots becoming the last children of
// parent (or the last roots, when parent is None): the rightmost-spine
// append, which needs parent's subtree to end the table so that no
// existing ID moves. Each of sub's roots takes the ordinal after parent's
// last child plus its own ordinal; every other node keeps its ordinal and
// its depth below its root. A node that would land deeper than MaxDepth,
// or an ordinal past the uint32 range, fails the extend.
//
// The returned header shares backing arrays with t where capacity allows,
// under the rules Extend states.
func (t *Table) ExtendUnder(parent ID, sub *Table) (*Table, error) {
	n := len(t.parent)
	if parent < None || int(parent) >= n {
		return nil, fmt.Errorf("nid: extend under node %d of a %d-node table", parent, n)
	}
	if parent != None && t.SubtreeEnd(parent) != ID(n) {
		return nil, fmt.Errorf("nid: extend under node %d, whose subtree does not end the table", parent)
	}
	base, next := 0, uint64(0)
	if parent != None {
		base = int(t.depth[parent]) + 1
	}
	if last := ID(n - 1); n > 0 && last != parent {
		next = uint64(t.ordinal[t.AncestorAt(last, int32(base))]) + 1
	}
	nt := &Table{parent: t.parent, depth: t.depth, ordinal: t.ordinal}
	for j, p := range sub.parent {
		d, ord := base+int(sub.depth[j]), uint64(sub.ordinal[j])
		if p == None {
			p, ord = parent, next+ord
		} else {
			p += ID(n)
		}
		if d > MaxDepth {
			return nil, fmt.Errorf("nid: extend places a node at depth %d, past %d", d, MaxDepth)
		}
		if ord > math.MaxUint32 {
			return nil, fmt.Errorf("nid: extend numbers a child %d, past the uint32 range", ord)
		}
		nt.append(p, d, uint32(ord))
	}
	return nt, nil
}

// Extend returns a new Table header with the given codes appended at the
// tail, assigning them the next dense pre-order IDs, and reports the IDs
// assigned: each code's parent, its length and its last component become
// the row. Codes must arrive in strict pre-order and the first must sort
// after the table's current last code — the rightmost-spine append
// invariant: a subtree appended as the last child of a node P with
// SubtreeEnd(P) == Len() lands entirely at the tail, so no existing ID
// moves. Each code's parent (the code minus its last component) must
// already be present, in t or earlier in codes.
//
// The returned header shares backing arrays with t where capacity allows.
// t itself, and every earlier header or Truncate view, remains a valid
// immutable snapshot. Callers must serialize Extend calls and always
// extend the newest header; readers of older headers must not read past
// their own length (every Table method honors this by construction).
func (t *Table) Extend(codes []dewey.Code) (*Table, []ID, error) {
	if len(codes) == 0 {
		return t, nil, nil
	}
	nt := &Table{parent: t.parent, depth: t.depth, ordinal: t.ordinal}
	var prev dewey.Code
	if n := len(t.parent); n > 0 {
		prev = t.Code(ID(n - 1))
	}
	ids := make([]ID, 0, len(codes))
	for _, c := range codes {
		if len(c) == 0 || len(c)-1 > MaxDepth {
			return nil, nil, fmt.Errorf("nid: extend with a code %d levels deep", len(c))
		}
		if dewey.Compare(prev, c) >= 0 {
			return nil, nil, fmt.Errorf("nid: extend code %s does not follow %s in pre-order", c.String(), prev.String())
		}
		parent := None
		if len(c) > 1 {
			p, ok := nt.Find(c[:len(c)-1])
			if !ok {
				return nil, nil, fmt.Errorf("nid: extend code %s has no parent in table", c.String())
			}
			parent = p
		}
		ids = append(ids, ID(len(nt.parent)))
		nt.append(parent, len(c)-1, c[len(c)-1])
		prev = append(prev[:0], c...)
	}
	return nt, ids, nil
}
