package nid

// Snapshot-oriented table operations. The delta-index write path extends a
// table at its tail on shared backing arrays (Extend), and snapshot reads
// view a length-bounded prefix of a later header (Truncate). Together they
// give cheap structural sharing: one append allocates only the appended
// rows, and every previously published header — or any prefix view of one —
// stays a valid immutable table, because rows below a header's length are
// never rewritten. The engine's source tables, a head's segment list and the
// merged posting lists grow by the same rule; internal/delta's package
// comment states it once (who may extend, why a pinned reader is safe).

import (
	"fmt"

	"xks/internal/dewey"
)

// Truncate returns a view of the table restricted to its first n nodes.
// The view shares backing arrays with t: because IDs are assigned in
// pre-order and Extend only adds rows at the tail, the first n rows of any
// later header describe exactly the nodes the table held when its length
// was n. Truncate(t.Len()) returns t itself.
func (t *Table) Truncate(n int) (*Table, error) {
	if n < 0 || n > len(t.parent) {
		return nil, fmt.Errorf("nid: truncate length %d outside [0, %d]", n, len(t.parent))
	}
	if n == len(t.parent) {
		return t, nil
	}
	// Full slice expressions cap the views at their length so an append
	// through a view can never write into a longer header's rows.
	return &Table{
		parent: t.parent[:n:n],
		depth:  t.depth[:n:n],
		off:    t.off[:n:n],
		arena:  t.arena,
	}, nil
}

// Extend returns a new Table header with the given codes appended at the
// tail, assigning them the next dense pre-order IDs, and reports the IDs
// assigned. Codes must arrive in strict pre-order and the first must sort
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
	nt := &Table{parent: t.parent, depth: t.depth, off: t.off, arena: t.arena}
	var prev dewey.Code
	if n := len(t.parent); n > 0 {
		prev = t.Code(ID(n - 1))
	}
	ids := make([]ID, 0, len(codes))
	for _, c := range codes {
		if len(c) == 0 {
			return nil, nil, fmt.Errorf("nid: extend with empty code")
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
		nt.off = append(nt.off, uint32(len(nt.arena)))
		nt.arena = append(nt.arena, c...)
		nt.parent = append(nt.parent, parent)
		nt.depth = append(nt.depth, int32(len(c)-1))
		// prev may view the pre-reallocation arena after the next append;
		// that memory is immutable, so the comparison stays valid.
		prev = nt.Code(ID(len(nt.parent) - 1))
	}
	return nt, ids, nil
}
