// Package rtf is the getRTF stage on dense node IDs: it gives every Relaxed
// Tightest Fragment (Definition 2 of the paper) its keyword nodes — each one
// dispatched to the deepest interesting LCA that is its ancestor-or-self, a
// fragment kept only when its nodes cover the whole query.
//
// What requests run: an ELCA request's stack merge dispatches in its own
// pass (lca.ELCAStackDispatch); SLCA roots, which never nest, take their
// subtree windows of the posting lists (DispatchWindows); a ranked SLCA page
// folds each dispatched event into its root's score without keeping it
// (AppendScores); and a bounded page hydrates the events of the few
// fragments it returns (EventsFor).
//
// BuildIDsPlanned is getRTF as a pass of its own: no request runs it, so it
// is the tests' reference for the producers above and what the bench
// harness replays, with BuildScoredIDsCtx, AppendScores' filtering form.
// Its dispatch loop serves AppendScores and EventsFor's nested windows. The
// Dewey-code Build and the literal Definitions 1–2 enumeration it is checked
// against live in internal/reference.
package rtf

import (
	"context"

	"xks/internal/lca"
	"xks/internal/nid"
	"xks/internal/trace"
)

// ctxCheckInterval is the number of dispatched merge events between context
// checks in BuildIDsPlanned, mirroring the interval of the lca stage.
const ctxCheckInterval = 4096

// IDRTF is one relaxed tightest fragment in ID form: its root (an
// interesting LCA node) and the keyword nodes dispatched to it, in
// pre-order, each carrying the bitmask of query keywords it matches.
type IDRTF struct {
	Root         nid.ID
	KeywordNodes []lca.IDEvent
}

// Mask returns the union of the keyword masks of the fragment's keyword
// nodes.
func (r *IDRTF) Mask() uint64 {
	var m uint64
	for _, ev := range r.KeywordNodes {
		m |= ev.Mask
	}
	return m
}

// BuildIDsPlanned is the ID form of reference.Build: given the sorted
// interesting LCA nodes and the ID posting lists D1..Dk, it dispatches every
// keyword node to the deepest LCA node that is its ancestor-or-self and
// returns one IDRTF per LCA node whose dispatched nodes cover the whole
// query, in pre-order of their roots. Identical output modulo
// representation. It checks for cancellation periodically inside the
// dispatch pass — every ctxCheckInterval merged events it consults ctx and
// abandons the build mid-stream with ctx.Err() when the context is done —
// and with the planner's merge order feeding the loser tree (nil = query
// order) and, when skip is set, subtree galloping:
// whenever an event lands outside every interesting LCA subtree, all merge
// sources jump directly to the next LCA root instead of draining the gap
// event by event. Both knobs are output-neutral (property-tested): skipped
// events dispatch nowhere, and the coalesced merge stream is independent of
// leaf order.
func BuildIDsPlanned(ctx context.Context, t *nid.Table, lcas []nid.ID, sets [][]nid.ID, order []int, skip bool) ([]*IDRTF, error) {
	if len(lcas) == 0 {
		return nil, nil
	}
	rtfs := make([]IDRTF, len(lcas))
	for i, a := range lcas {
		rtfs[i].Root = a
	}
	total, err := dispatch(ctx, t, lcas, sets, order, skip, func(i int, ev lca.IDEvent) {
		rtfs[i].KeywordNodes = append(rtfs[i].KeywordNodes, ev)
	})
	if err != nil {
		return nil, err
	}
	full := lca.FullMask(len(sets))
	var kept []*IDRTF
	for i := range rtfs {
		if rtfs[i].Mask() == full {
			kept = append(kept, &rtfs[i])
		}
	}
	if sp := trace.SpanFromContext(ctx); sp != nil {
		sp.SetInt("dispatchedEvents", int64(total))
		sp.SetInt("coveringRTFs", int64(len(kept)))
		sp.SetInt("partialRTFs", int64(len(rtfs)-len(kept)))
	}
	return kept, nil
}

// dispatch walks the streamed merge of the posting lists in pre-order,
// keeping the stack of LCA nodes whose subtree contains the current event;
// the stack top is the deepest, i.e. the dispatch target. It reports the
// number of dispatched events. A nil ctx disables cancellation checks.
func dispatch(ctx context.Context, t *nid.Table, lcas []nid.ID, sets [][]nid.ID, order []int, skip bool, emit func(int, lca.IDEvent)) (int, error) {
	m := lca.NewMergerOrdered(sets, order)
	var stackBuf [12]int32
	stack := stackBuf[:0] // indices into lcas
	j, total := 0, 0
	for n := 0; ; n++ {
		if ctx != nil && n%ctxCheckInterval == ctxCheckInterval-1 {
			if err := ctx.Err(); err != nil {
				return total, err
			}
		}
		ev, ok := m.Next()
		if !ok {
			break
		}
		for j < len(lcas) && lcas[j] <= ev.ID {
			for len(stack) > 0 && !t.IsAncestorOrSelf(lcas[stack[len(stack)-1]], lcas[j]) {
				stack = stack[:len(stack)-1]
			}
			stack = append(stack, int32(j))
			j++
		}
		for len(stack) > 0 && !t.IsAncestorOrSelf(lcas[stack[len(stack)-1]], ev.ID) {
			stack = stack[:len(stack)-1]
		}
		if len(stack) == 0 {
			// Keyword node outside every interesting LCA subtree. Safe to
			// skip ahead: every root pushed so far was popped, and a popped
			// root's contiguous pre-order subtree ends at or before the
			// event that popped it, so no event below the next unseen root
			// can dispatch anywhere.
			if skip {
				if j >= len(lcas) {
					break
				}
				m.SkipTo(lcas[j])
			}
			continue
		}
		emit(int(stack[len(stack)-1]), ev)
		total++
	}
	return total, nil
}
