// Events only for the page: searches that will materialize only a few
// selected candidates don't need each candidate's keyword-event list.
// Ranked ones need its score, so AppendScores folds every dispatched
// event straight into per-root score accumulators (bit-identical to scoring
// the materialized list, see rank.IncrementalScorer); unranked ones need
// nothing beyond the roots. EventsFor then reconstructs the event list
// lazily for the candidates that actually get materialized. Its fast path —
// a subtree window holding no other root, so every SLCA and most ELCAs —
// merges the posting lists' window slices into one exactly-sized slice, with
// no Merger, no window headers on the heap and no append growth.
// DispatchWindows is the same fast path over every root of an unlimited SLCA
// request, writing all the windows into one buffer.

package rtf

import (
	"context"
	"slices"
	"sort"

	"xks/internal/lca"
	"xks/internal/nid"
	"xks/internal/rank"
	"xks/internal/trace"
)

// ScoredID is the no-events form of IDRTF: a covering root and its score.
type ScoredID struct {
	Root  nid.ID
	Score float64
}

// BuildScoredIDsCtx runs one planned dispatch pass over the posting lists
// and returns, in pre-order, every root whose dispatched nodes cover the
// whole query, scored as if its event list had been materialized and passed
// to Scorer.ScoreIDs (the same incremental fold, events in the same order).
// It is AppendScores keeping the covering roots.
func BuildScoredIDsCtx(ctx context.Context, t *nid.Table, lcas []nid.ID, sets [][]nid.ID, sc *rank.IncrementalScorer, order []int, skip bool) ([]ScoredID, error) {
	var s ScoreScratch
	scores, err := AppendScores(ctx, make([]float64, 0, len(lcas)), &s, t, lcas, sets, sc, order, skip)
	if err != nil {
		return nil, err
	}
	full := lca.FullMask(len(sets))
	kept := make([]ScoredID, 0, len(lcas))
	for i, score := range scores {
		if s.masks[i] == full {
			kept = append(kept, ScoredID{Root: lcas[i], Score: score})
		}
	}
	return kept, nil
}

// ScoreScratch is AppendScores' reusable working memory, aligned with the
// roots it scores: per root the scorer's accumulators, best[0:K] and
// extra[K:2K], and the mask of the keywords its dispatched nodes cover. The
// zero value is ready to use.
type ScoreScratch struct {
	acc   []float64
	masks []uint64
}

// AppendScores is the scoring dispatch pass of a ranked SLCA page: it appends
// to dst one score per root of lcas, aligned with lcas, folding every
// dispatched event straight into its root's accumulators in s, so it
// allocates nothing per event or, once s has grown, per root. A root whose
// dispatched nodes miss a keyword (no LCA root does) scores what it got.
func AppendScores(ctx context.Context, dst []float64, s *ScoreScratch, t *nid.Table, lcas []nid.ID, sets [][]nid.ID, sc *rank.IncrementalScorer, order []int, skip bool) ([]float64, error) {
	if len(lcas) == 0 {
		return dst, nil
	}
	k := sc.K()
	s.acc = slices.Grow(s.acc[:0], 2*k*len(lcas))[:2*k*len(lcas)]
	s.masks = slices.Grow(s.masks[:0], len(lcas))[:len(lcas)]
	clear(s.acc)
	clear(s.masks)
	total, err := dispatch(ctx, t, lcas, sets, order, skip, func(i int, ev lca.IDEvent) {
		s.masks[i] |= ev.Mask
		off := 2 * k * i
		sc.Update(s.acc[off:off+k], s.acc[off+k:off+2*k], int(t.Depth(ev.ID)-t.Depth(lcas[i])), ev.Mask)
	})
	if err != nil {
		return dst, err
	}
	full, covering := lca.FullMask(len(sets)), 0
	for i, m := range s.masks {
		if m == full {
			covering++
		}
		off := 2 * k * i
		dst = append(dst, sc.Finish(s.acc[off:off+k], s.acc[off+k:off+2*k]))
	}
	if sp := trace.SpanFromContext(ctx); sp != nil {
		sp.SetInt("dispatchedEvents", int64(total))
		sp.SetInt("coveringRTFs", int64(covering))
		sp.SetInt("partialRTFs", int64(len(lcas)-covering))
	}
	return dst, nil
}

// EventsFor reconstructs the keyword-event list of the RTF rooted at root,
// exactly as buildIDs would have dispatched it: allRoots must be the full
// pre-order interesting-LCA list of the same query (including non-covering
// roots — deeper partial roots steal events from their ancestors), and sets
// the query's posting lists. Only the contiguous pre-order window of root's
// subtree is read, so hydrating one selected candidate costs the subtree,
// not the document. A window that holds no other root (every SLCA, most
// ELCAs) dispatches all its keyword nodes to root, so its events are the
// window's coalesced merge (mergeWindow); a window with nested roots replays
// the dispatch inside it.
func EventsFor(t *nid.Table, root nid.ID, allRoots []nid.ID, sets [][]nid.ID) []lca.IDEvent {
	return AppendEventsFor(nil, t, root, allRoots, sets)
}

// AppendEventsFor is EventsFor appending the events to dst, so a caller that
// hydrates many candidates reuses one buffer.
func AppendEventsFor(dst []lca.IDEvent, t *nid.Table, root nid.ID, allRoots []nid.ID, sets [][]nid.ID) []lca.IDEvent {
	end := t.SubtreeEnd(root)
	lo := sort.Search(len(allRoots), func(i int) bool { return allRoots[i] >= root })
	if lo == len(allRoots) || allRoots[lo] != root {
		return dst
	}
	hi := lo + sort.Search(len(allRoots)-lo, func(i int) bool { return allRoots[lo+i] >= end })
	var buf [8][]nid.ID
	win, n := buf[:0], 0
	for _, s := range sets {
		a := sort.Search(len(s), func(j int) bool { return s[j] >= root })
		b := a + sort.Search(len(s)-a, func(j int) bool { return s[a+j] >= end })
		win, n = append(win, s[a:b]), n+b-a
	}
	if hi == lo+1 {
		return mergeWindow(slices.Grow(dst, n), win, end)
	}
	// Roots outside [root, end) can't be dispatch targets for events inside
	// it: any other ancestor-or-self of such an event is an ancestor of
	// root, hence shallower than root itself.
	dispatch(nil, t, allRoots[lo:hi], slices.Clone(win), nil, false, func(i int, ev lca.IDEvent) {
		if i == 0 {
			dst = append(dst, ev)
		}
	})
	return dst
}

// DispatchWindows is getRTF over roots that never nest, such as every SLCA
// answer: no root's subtree holds another, so a root's keyword events are its
// whole subtree window of the posting lists, merged (mergeWindow) — no
// dispatch stack, no Merger, and only the windows are read. The windows are
// merged in root order into buf, which must hold Σ|Dᵢ| events, and each goes
// to sink as a capacity-capped slice of buf. ctx is consulted every ctxCheckInterval events, and its span
// gets the dispatch counters.
func DispatchWindows(ctx context.Context, t *nid.Table, roots []nid.ID, sets [][]nid.ID, buf []lca.IDEvent, sink func(root nid.ID, events []lca.IDEvent)) error {
	rest := slices.Clone(sets) // each list past the windows merged so far
	win := make([][]nid.ID, len(sets))
	used, check := 0, ctxCheckInterval
	for _, r := range roots {
		if used >= check {
			if err := ctx.Err(); err != nil {
				return err
			}
			check = used + ctxCheckInterval
		}
		end := t.SubtreeEnd(r)
		for i, s := range rest {
			a, _ := slices.BinarySearch(s, r)
			b, _ := slices.BinarySearch(s[a:], end)
			win[i], rest[i] = s[a:a+b], s[a+b:]
		}
		run := mergeWindow(buf[used:used:len(buf)], win, end)
		sink(r, run[:len(run):len(run)])
		used += len(run)
	}
	if sp := trace.SpanFromContext(ctx); sp != nil {
		sp.SetInt("dispatchedEvents", int64(used))
		sp.SetInt("coveringRTFs", int64(len(roots)))
	}
	return nil
}

// mergeWindow appends the merge of the windows (each below end) to dst,
// OR-ing the masks of shared nodes: the merged stream without a Merger (a
// query has a few terms, so scanning the heads beats a loser tree). A dst
// with room for every window ID never grows.
func mergeWindow(dst []lca.IDEvent, win [][]nid.ID, end nid.ID) []lca.IDEvent {
	for {
		next := end
		for _, w := range win {
			if len(w) > 0 && w[0] < next {
				next = w[0]
			}
		}
		if next == end {
			return dst
		}
		var mask uint64
		for i, w := range win {
			if len(w) > 0 && w[0] == next {
				mask |= 1 << uint(i)
				win[i] = w[1:]
			}
		}
		dst = append(dst, lca.IDEvent{ID: next, Mask: mask})
	}
}
