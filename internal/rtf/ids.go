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
// Every producer here reads the posting lists through lca.Merge, one
// outermost root's subtree window at a time, each list galloping to the
// window: a window costs its postings plus one summary word per 64 IDs of
// its span, O(Σ|Dᵢ ∩ window| + window/64) with no comparison between lists,
// and a keyword node outside every root's subtree is skipped, never merged.
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
// abandons the build mid-stream with ctx.Err() when the context is done.
// The planner's merge order and skip flag, which the harness passes, steer
// nothing: the merge's stream is the same for every order, and the dispatch
// reads only the roots' subtree windows.
func BuildIDsPlanned(ctx context.Context, t *nid.Table, lcas []nid.ID, sets [][]nid.ID, _ []int, _ bool) ([]*IDRTF, error) {
	if len(lcas) == 0 {
		return nil, nil
	}
	rtfs := make([]IDRTF, len(lcas))
	for i, a := range lcas {
		rtfs[i].Root = a
	}
	total, err := dispatch(ctx, t, lcas, sets, func(i int, ev lca.IDEvent) {
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

// dispatch merges the posting lists one outermost root's subtree window at a
// time — a keyword node outside every root's subtree dispatches nowhere, so
// no other posting is read — keeping the stack of roots whose subtree
// contains the current event; the stack top is the deepest, i.e. the
// dispatch target. It reports the number of dispatched events. A nil ctx
// disables cancellation checks.
func dispatch(ctx context.Context, t *nid.Table, lcas []nid.ID, sets [][]nid.ID, emit func(int, lca.IDEvent)) (int, error) {
	m := lca.NewMerge(sets)
	defer m.Release()
	var stackBuf [12]int32
	total, n := 0, 0
	for j := 0; j < len(lcas); {
		end := t.SubtreeEnd(lcas[j])
		m.Window(lcas[j], end)
		stack := append(stackBuf[:0], int32(j)) // indices into lcas
		j++
		for ; ; n++ {
			if ctx != nil && n%ctxCheckInterval == ctxCheckInterval-1 {
				if err := ctx.Err(); err != nil {
					return total, err
				}
			}
			ev, ok := m.Next()
			if !ok {
				break
			}
			// The window's root, stack[0], is an ancestor-or-self of every
			// event and root in it, so it is never popped or tested.
			for j < len(lcas) && lcas[j] <= ev.ID {
				for len(stack) > 1 && !t.IsAncestorOrSelf(lcas[stack[len(stack)-1]], lcas[j]) {
					stack = stack[:len(stack)-1]
				}
				stack = append(stack, int32(j))
				j++
			}
			for len(stack) > 1 && !t.IsAncestorOrSelf(lcas[stack[len(stack)-1]], ev.ID) {
				stack = stack[:len(stack)-1]
			}
			emit(int(stack[len(stack)-1]), ev)
			total++
		}
		for j < len(lcas) && lcas[j] < end {
			j++ // a nested root after the window's last event gets nothing
		}
	}
	return total, nil
}
