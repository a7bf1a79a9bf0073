// ID-based variants of the getLCA stage: the production hot path runs on
// dense node IDs (internal/nid), LCA/ancestor tests are parent-chain walks on
// the node table, and a stage allocates nothing but its result, which it
// appends to the caller's slice. ELCA roots come from one stack pass over the
// streamed k-way loser-tree merge, which given a sink is getRTF's dispatch as
// well, so an ELCA request merges its posting lists once. SLCA roots come
// from one kernel, whatever strategy was requested: Indexed Lookup Eager
// driven by the smallest list S₁, with a forward-only galloping cursor per
// other list instead of a binary search over the whole list per probe — cost
// O(|S₁|·(k−1)·(log gap + depth)). The Dewey-code forms in internal/reference
// are what the tests check them against.

package lca

import (
	"context"
	"slices"

	"xks/internal/nid"
	"xks/internal/trace"
)

// ctxCheckInterval is the number of merge events (or outer iterations)
// between context checks in the ctx-aware stage variants: frequent enough
// that cancellation lands within microseconds on real posting lists, sparse
// enough that the check never shows up in profiles.
const ctxCheckInterval = 4096

// IDEvent is one node of the merged keyword-node stream in ID form: the
// node plus the bitmask of query keywords it matches.
type IDEvent struct {
	ID   nid.ID
	Mask uint64
}

// mergeSentinel orders after every valid ID (IDs are int32).
const mergeSentinel = int64(1) << 40

// Merger streams the pre-order merge of k ID posting lists, OR-ing the
// masks of equal IDs — the DIL-style merged stream of XRank, without
// materializing it. It is a classic loser tree over the (sentinel-padded)
// lists: each Next pops the winner and replays one leaf-to-root path,
// O(log k) comparisons per event, by pure slice indexing.
type Merger struct {
	lists [][]nid.ID
	pos   []int
	bit   []uint64 // nil = bit[s] is 1<<s; else per-leaf mask bit (ordered merge)
	loser []int32  // internal nodes 1..n-1: loser of the match played there
	win   int32    // current overall winner (list index)
	n     int      // number of leaves (power of two >= len(lists))
}

// NewMergerOrdered builds a merger whose loser-tree leaves hold the lists in
// the given order (order[leaf] = original list index — the planner's
// rarest-first permutation) while every emitted event still carries the
// original-order mask bits. Because Next coalesces all lists heading the
// same ID into one OR-ed event, the merged stream is identical for every
// leaf permutation (property-tested); the order only decides which source
// wins tournament ties. nil order means query order.
func NewMergerOrdered(lists [][]nid.ID, order []int) *Merger {
	k := len(lists)
	n := 1
	for n < k {
		n *= 2
	}
	m := &Merger{
		lists: lists,
		pos:   make([]int, k),
		loser: make([]int32, n),
		n:     n,
	}
	if order != nil && len(order) == k {
		permuted := make([][]nid.ID, k)
		bit := make([]uint64, k)
		for leaf, src := range order {
			permuted[leaf] = lists[src]
			bit[leaf] = 1 << uint(src)
		}
		m.lists = permuted
		m.bit = bit
	}
	m.rebuild()
	return m
}

// rebuild replays the full tournament bottom-up from the current positions;
// win[i] is the winner of the subtree rooted at internal node i, loser[i]
// the loser of its match. O(n); allocation-free for k <= 64 (the query
// layer's term cap, since masks are uint64).
func (m *Merger) rebuild() {
	var buf [128]int32
	win := buf[:]
	if 2*m.n > len(buf) {
		win = make([]int32, 2*m.n)
	}
	for s := 0; s < m.n; s++ {
		win[m.n+s] = int32(s)
	}
	for i := m.n - 1; i >= 1; i-- {
		a, b := win[2*i], win[2*i+1]
		if m.less(a, b) {
			win[i], m.loser[i] = a, b
		} else {
			win[i], m.loser[i] = b, a
		}
	}
	m.win = win[1]
}

// SkipTo advances every list past all IDs below target (galloping from its
// position) and replays the tournament, so the next event is the first with
// ID >= target. The common case — the current winner already sits at or past
// target — returns without touching the tree, so callers can invoke it
// unconditionally.
func (m *Merger) SkipTo(target nid.ID) {
	if m.key(m.win) >= int64(target) {
		return
	}
	for s, list := range m.lists {
		m.pos[s] = gallopGE(list, m.pos[s], target)
	}
	m.rebuild()
}

// key returns the list's current head as an int64, or the sentinel when the
// list (or padding leaf) is exhausted.
func (m *Merger) key(s int32) int64 {
	if int(s) >= len(m.lists) || m.pos[s] >= len(m.lists[s]) {
		return mergeSentinel
	}
	return int64(m.lists[s][m.pos[s]])
}

// less orders lists by current key, ties by list index (which keeps the
// merge deterministic; equal keys are coalesced by Next either way).
func (m *Merger) less(a, b int32) bool {
	ka, kb := m.key(a), m.key(b)
	return ka < kb || (ka == kb && a < b)
}

// advance pops the current winner's head and replays its path to the root.
func (m *Merger) advance() {
	s := m.win
	m.pos[s]++
	cur := s
	for i := (m.n + int(s)) / 2; i >= 1; i /= 2 {
		if m.less(m.loser[i], cur) {
			m.loser[i], cur = cur, m.loser[i]
		}
	}
	m.win = cur
}

// Next returns the next event of the merged stream: the smallest unseen ID
// with the OR of the masks of every list it heads. ok is false when the
// stream is exhausted.
func (m *Merger) Next() (ev IDEvent, ok bool) {
	k := m.key(m.win)
	if k == mergeSentinel {
		return IDEvent{}, false
	}
	ev.ID = nid.ID(k)
	if m.bit != nil {
		for m.key(m.win) == k {
			ev.Mask |= m.bit[m.win]
			m.advance()
		}
	} else {
		for m.key(m.win) == k {
			ev.Mask |= 1 << uint(m.win)
			m.advance()
		}
	}
	return ev, true
}

// ELCAStackMergeIDsOrderedCtx is ELCAStackDispatch without a sink: the ELCA
// roots alone.
func ELCAStackMergeIDsOrderedCtx(ctx context.Context, t *nid.Table, sets [][]nid.ID, order []int) ([]nid.ID, error) {
	return ELCAStackDispatch(ctx, nil, t, sets, order, nil, nil)
}

// SLCAScanMergeIDsCtx is SLCAIDsCtx under the signature of the retired
// scan-merge strategy: the galloping kernel reads only the neighbourhoods of
// the smallest list's nodes, so it beats a full merge scan at every skew, and
// its output is independent of the merge order, which it ignores.
func SLCAScanMergeIDsCtx(ctx context.Context, t *nid.Table, sets [][]nid.ID, _ []int) ([]nid.ID, error) {
	return AppendSLCAIDs(ctx, nil, t, sets)
}

// elcaEntry is one path node on the ELCA stack: the keywords its subtree
// holds, the ones its residual (the subtree minus every all-keyword child
// subtree) holds, and where its subtree's pending events start.
type elcaEntry struct {
	id                nid.ID
	mark              int
	residual, subtree uint64
}

// ELCAStackDispatch is the ELCA stack kernel: one pass over the streamed
// merge of the posting lists, keeping the stack of path nodes from the root
// to the current event, appending the ELCAs to dst in pre-order.
//
// Given a sink it is getRTF's dispatch too. A keyword node belongs to its
// deepest ELCA ancestor-or-self, and the stack pops deepest first, so when an
// ELCA pops, its RTF events are exactly the events pushed since it was
// pushed: deeper ELCAs have taken theirs, and a non-ELCA entry leaves its own
// to its parent. Each ELCA's run goes to sink as it pops — in post-order, as
// a capacity-capped slice of buf that stays valid as long as buf. Pending
// events fill buf from the bottom and each run is copied to the top, below
// the one before, so buf must hold Σ|Dᵢ| events and never needs more. A nil
// sink writes no events.
//
// ctx is consulted every ctxCheckInterval events, abandoning the merge with
// ctx.Err(), and its span gets the merge's counters. order is the planner's
// loser-tree leaf order (nil = query order); the output is independent of it.
func ELCAStackDispatch(ctx context.Context, dst []nid.ID, t *nid.Table, sets [][]nid.ID, order []int, buf []IDEvent, sink func(root nid.ID, events []IDEvent)) ([]nid.ID, error) {
	k := len(sets)
	if k == 0 {
		return dst, nil
	}
	rarest := 0
	for i, s := range sets {
		if len(s) == 0 {
			return dst, nil
		}
		if len(s) < len(sets[rarest]) {
			rarest = i
		}
	}
	full := FullMask(k)
	m := NewMergerOrdered(sets, order)
	var (
		stack []elcaEntry // stack[d] = path node at depth d
		// Each ELCA holds a witness of every keyword that no other ELCA's
		// residual holds, so there are at most |D_rarest| of them.
		result     = slices.Grow(dst, len(sets[rarest]))
		base       = len(dst)
		pending    = 0        // buf[:pending]: events no ELCA has taken yet
		top        = len(buf) // buf[top:]: the runs handed to sink
		dispatched = 0
	)
	pop := func(toLen int) {
		for len(stack) > toLen {
			d := len(stack) - 1
			e := stack[d]
			if e.residual == full {
				result = append(result, e.id)
				if sink != nil {
					run := buf[e.mark:pending]
					top -= len(run)
					copy(buf[top:], run)
					sink(e.id, buf[top:top+len(run):top+len(run)])
					dispatched += len(run)
					pending = e.mark
				}
			}
			if d >= 1 {
				stack[d-1].subtree |= e.subtree
				if e.subtree != full {
					stack[d-1].residual |= e.residual
				}
			}
			stack = stack[:d]
		}
	}
	events := 0
	for ; ; events++ {
		if events%ctxCheckInterval == ctxCheckInterval-1 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		ev, ok := m.Next()
		if !ok {
			break
		}
		l := 0
		if len(stack) > 0 {
			l = int(t.LCADepth(stack[len(stack)-1].id, ev.ID)) + 1
		}
		pop(l)
		d := int(t.Depth(ev.ID))
		for len(stack) <= d {
			stack = append(stack, elcaEntry{mark: pending})
		}
		for i, cur := d, ev.ID; i >= l; i-- {
			stack[i].id = cur
			cur = t.Parent(cur)
		}
		stack[d].residual |= ev.Mask
		stack[d].subtree |= ev.Mask
		if sink != nil {
			buf[pending] = ev
			pending++
		}
	}
	pop(0)
	slices.Sort(result[base:])
	if sp := trace.SpanFromContext(ctx); sp != nil {
		sp.SetInt("mergeEvents", int64(events))
		sp.SetInt("roots", int64(len(result)-base))
		if sink != nil {
			sp.SetInt("dispatchedEvents", int64(dispatched))
			sp.SetInt("coveringRTFs", int64(len(result)-base))
		}
	}
	return result, nil
}

// SLCAIDsCtx is the ID form of reference.SLCA (Indexed Lookup Eager): for
// every node of the smallest list, chain-LCA it with the closest node of
// every other list, keeping only minimal candidates. Identical output modulo
// representation. It checks for cancellation periodically over the
// smallest-list scan, mirroring ELCAStackDispatch.
func SLCAIDsCtx(ctx context.Context, t *nid.Table, sets [][]nid.ID) ([]nid.ID, error) {
	return AppendSLCAIDs(ctx, nil, t, sets)
}

// AppendSLCAIDs is the SLCA kernel, appending the roots to dst (a nil ctx is
// never checked). For each node v of the smallest list, in pre-order, a
// forward-only galloping cursor per other list Sᵢ finds v's
// pre-order successor in Sᵢ (and so its predecessor), and x = lca(x, u)
// chains with the deeper LCA of the two. x stays an ancestor-or-self of v,
// and the LCA of x with any u is the shallower of x and lca(v, u), whose
// depth peaks at v's two neighbours; so this is exactly ILE's
// x = lca(x, closest(Sᵢ, x)) chain. Candidates arrive in the order of their
// v, so a candidate either sits at or before the last kept root — then it is
// that root's ancestor-or-self and not smallest, and since x only climbs the
// chain stops as soon as it gets there — or after it, replacing it when it is
// a descendant. The kept list stays sorted without a sort.
func AppendSLCAIDs(ctx context.Context, dst []nid.ID, t *nid.Table, sets [][]nid.ID) ([]nid.ID, error) {
	if len(sets) == 0 {
		return dst, nil
	}
	smallest := 0
	for i, s := range sets {
		if len(s) == 0 {
			return dst, nil
		}
		if len(s) < len(sets[smallest]) {
			smallest = i
		}
	}
	var posBuf [8]int
	pos := posBuf[:]
	if len(sets) > len(posBuf) {
		pos = make([]int, len(sets))
	}
	rarest := sets[smallest]
	out, base := slices.Grow(dst, len(rarest)), len(dst)
	for n, v := range rarest {
		if ctx != nil && n%ctxCheckInterval == ctxCheckInterval-1 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		x := v
		floor := nid.None // x at or above the last kept root is not smallest
		if len(out) > base {
			floor = out[len(out)-1]
		}
		for i, s := range sets {
			if i == smallest {
				continue
			}
			p := gallopGE(s, pos[i], v)
			pos[i] = p
			// Ancestors-or-self of x order by depth in pre-order, and None
			// sorts below every node, so max picks the deeper LCA.
			u := nid.None
			if p < len(s) {
				u = t.LCA(x, s[p])
			}
			if u != x && p > 0 {
				u = max(u, t.LCA(x, s[p-1]))
			}
			if x = u; x <= floor {
				break
			}
		}
		switch {
		case x <= floor: // not smallest, or no common ancestor at all
		case floor != nid.None && t.IsAncestorOf(floor, x):
			out[len(out)-1] = x
		default:
			out = append(out, x)
		}
	}
	if sp := trace.SpanFromContext(ctx); sp != nil {
		sp.SetInt("mergeEvents", int64(len(rarest)))
		sp.SetInt("roots", int64(len(out)-base))
	}
	return out, nil
}

// gallopGE returns the index of the first node of s at or after lo that is
// >= v: doubling steps from lo, then a binary search inside the last step.
func gallopGE(s []nid.ID, lo int, v nid.ID) int {
	if lo >= len(s) || s[lo] >= v {
		return lo
	}
	step := 1
	for lo+step < len(s) && s[lo+step] < v {
		lo += step
		step *= 2
	}
	hi := min(lo+step, len(s))
	for lo++; lo < hi; {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
