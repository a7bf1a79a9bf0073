// ID-based variants of the getLCA stage: the production hot path runs on
// dense node IDs (internal/nid), LCA/ancestor tests are parent-chain walks on
// the node table, and a stage allocates nothing but its result, which it
// appends to the caller's slice. The k posting lists are merged by Merge, a
// windowed keyword-mask merge: postings are OR-ed into a per-ID mask array
// and read back in ID order through a one-bit-per-ID summary, so a window
// costs O(Σ|Dᵢ| + span/64) and compares nothing. ELCA roots come from one
// stack pass over the merge of the lists' whole span, which given a sink is
// getRTF's dispatch as well, so an ELCA request merges its posting lists
// once. SLCA roots come from one kernel, whatever strategy was requested:
// Indexed Lookup Eager driven by the smallest list S₁, with a forward-only
// galloping cursor per other list instead of a binary search over the whole
// list per probe — cost O(|S₁|·(k−1)·(log gap + depth)). The Dewey-code forms
// in internal/reference are what the tests check them against.

package lca

import (
	"context"
	"math/bits"
	"slices"
	"sync"

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

// Merge is the merged keyword-node stream of k sorted ID lists (at most 64;
// list i sets mask bit i), read one ID window at a time: the DIL-style
// merged stream of XRank, without comparisons. A window is loaded a chunk
// of at most chunkIDs IDs at a time, each chunk starting at the window's
// next posting: its postings are OR-ed into a per-ID mask array and their
// IDs marked in a summary bitset of one bit per ID, and Next reads the
// marked IDs back in ID order, clearing each entry as it goes. A window
// costs its postings plus one summary word per 64 IDs of the chunks it
// loads, whatever k is. The arrays come from a pool, are all zero between
// uses (a window left unread is cleared by the next Window or by Release,
// so an abandoned merge hands back clean memory) and hold chunkIDs masks
// whatever the document's size.
type Merge struct {
	lists    [][]nid.ID
	pos, end []int    // per list: the window's postings not yet loaded
	masks    []uint64 // masks[id-base]: the bits of the lists holding id
	seen     []uint64 // bit j of seen[w] is set when masks[64w+j] is nonzero
	base, hi nid.ID   // the loaded chunk's first ID, and the window's end
	w, nw    int      // summary words read, and the chunk's summary words
	word     uint64   // the unread bits of summary word w-1
}

// chunkIDs is the most IDs a merge loads at once, so its mask array stays
// 32 KB: small enough to stay in cache, and wide enough that a chunk's
// fixed cost, a look at each list's next posting, is spread over thousands
// of IDs.
const chunkIDs = 1 << 12

var merges = sync.Pool{New: func() any {
	return &Merge{masks: make([]uint64, chunkIDs), seen: make([]uint64, chunkIDs/64)}
}}

// NewMerge returns a pooled merge over lists, before its first window.
// Release hands it back.
func NewMerge(lists [][]nid.ID) *Merge {
	m := merges.Get().(*Merge)
	m.reset(lists)
	return m
}

// reset retargets the merge to lists, dropping what the current window left
// unread.
func (m *Merge) reset(lists [][]nid.ID) {
	m.drain()
	m.lists = lists
	m.pos = slices.Grow(m.pos[:0], len(lists))[:len(lists)]
	m.end = slices.Grow(m.end[:0], len(lists))[:len(lists)]
	clear(m.pos)
}

// Release clears what the merge left unread and returns it to the pool. The
// merge must not be used after.
func (m *Merge) Release() {
	m.reset(nil)
	merges.Put(m)
}

// Window starts the window of IDs [lo, hi). Windows must ascend and not
// overlap: each list gallops forward from where the previous window left it,
// so IDs below the previous window's hi are never read again. Events the
// previous window left unread are dropped.
func (m *Merge) Window(lo, hi nid.ID) {
	m.drain()
	m.hi = hi
	for i, list := range m.lists {
		p := gallopGE(list, m.pos[i], lo)
		m.pos[i], m.end[i] = p, gallopGE(list, p, hi)
	}
}

// load loads the window's next chunk, starting at its first posting not yet
// loaded; false when none is left.
func (m *Merge) load() bool {
	base := m.hi
	for i, list := range m.lists {
		if m.pos[i] < m.end[i] {
			base = min(base, list[m.pos[i]])
		}
	}
	if base == m.hi {
		return false
	}
	span := min(int(m.hi-base), chunkIDs)
	cut := base + nid.ID(span)
	for i, list := range m.lists {
		p, bit := m.pos[i], uint64(1)<<uint(i)
		for ; p < m.end[i] && list[p] < cut; p++ {
			x := int(list[p] - base)
			m.masks[x] |= bit
			m.seen[x>>6] |= 1 << uint(x&63)
		}
		m.pos[i] = p
	}
	m.base, m.w, m.nw = base, 0, (span+63)>>6
	return true
}

// Next returns the window's next event: the smallest unread ID with the OR
// of the mask bits of the lists holding it. ok is false when the window is
// exhausted.
func (m *Merge) Next() (ev IDEvent, ok bool) {
	for m.word == 0 {
		if m.w == m.nw && !m.load() {
			return IDEvent{}, false
		}
		m.word, m.seen[m.w] = m.seen[m.w], 0
		m.w++
	}
	x := (m.w-1)<<6 | bits.TrailingZeros64(m.word)
	m.word &= m.word - 1
	ev = IDEvent{ID: m.base + nid.ID(x), Mask: m.masks[x]}
	m.masks[x] = 0
	return ev, true
}

// drain clears what the loaded chunk left unread and ends the window.
func (m *Merge) drain() {
	clear(m.end[:len(m.lists)])
	for _, ok := m.Next(); ok; _, ok = m.Next() {
	}
}

// ELCAStackMergeIDsOrderedCtx is ELCAStackDispatch without a sink: the ELCA
// roots alone. The merge order it takes is the planner's, which the merge
// does not need: its stream is the same for every order.
func ELCAStackMergeIDsOrderedCtx(ctx context.Context, t *nid.Table, sets [][]nid.ID, _ []int) ([]nid.ID, error) {
	return ELCAStackDispatch(ctx, nil, t, sets, nil, nil)
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

// ELCAStackDispatch is the ELCA stack kernel: one pass over the merge of the
// posting lists (one Merge window over their whole span), keeping the stack
// of path nodes from the root to the current event, appending the ELCAs to
// dst in pre-order.
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
// ctx.Err(), and its span gets the merge's counters.
func ELCAStackDispatch(ctx context.Context, dst []nid.ID, t *nid.Table, sets [][]nid.ID, buf []IDEvent, sink func(root nid.ID, events []IDEvent)) ([]nid.ID, error) {
	k := len(sets)
	if k == 0 {
		return dst, nil
	}
	rarest, lo, hi := 0, nid.ID(t.Len()), nid.ID(0)
	for i, s := range sets {
		if len(s) == 0 {
			return dst, nil
		}
		if len(s) < len(sets[rarest]) {
			rarest = i
		}
		lo, hi = min(lo, s[0]), max(hi, s[len(s)-1])
	}
	m := NewMerge(sets)
	defer m.Release()
	m.Window(lo, hi+1)
	full := FullMask(k)
	var (
		stackBuf [32]elcaEntry
		stack    = stackBuf[:0] // stack[d] = path node at depth d
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
