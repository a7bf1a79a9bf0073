package xks

import (
	"context"
	"strconv"
	"strings"
	"sync"

	"xks/internal/concurrent"
	"xks/internal/dewey"
	"xks/internal/exec"
	"xks/internal/fault"
	"xks/internal/lca"
	"xks/internal/nid"
	"xks/internal/rtf"
)

// blockSize is how many selected candidates a collected page (Search,
// Corpus.Search) prunes before assembling them at once. It bounds what a
// retained fragment keeps alive: the backing arrays of its block, or of its
// window of a stream (blockScratch.assemble).
const blockSize = 64

// fill runs the materialization stage over one block of selected candidates
// in result order — the only place fragments are built, so each engine's
// assembled counter counts exactly its selected candidates that became
// fragments. It has two phases:
//
//   - prune, per candidate: the context check (skipped on a salvaged page,
//     which assembles under its spent deadline, bounded by the page size),
//     the chaos harness's materialize injection point, then pruneRTF
//     (exec.Materialize), all under panic isolation — one poisoned candidate
//     degrades into a structured error (a *PanicError wrapping ErrInternal)
//     for this search instead of crashing the process, since materialization
//     runs inside iterator sequences where no http.Server recovery applies.
//     The keep-sets are staged in one pooled buffer.
//   - assemble, once for the pruned prefix (assemble). rest is how many
//     selected candidates follow the block.
//
// A failure at candidate i returns the block's first i fragments with the
// error; no later candidate is pruned.
func (b *blockScratch) fill(ctx context.Context, blk []*exec.Candidate, docs []docRead, salvage bool, rest int) ([]Fragment, error) {
	b.kept, b.pruned, b.events = b.kept[:0], b.pruned[:0], b.events[:0]
	var err error
	for _, c := range blk {
		if !salvage {
			if err = ctx.Err(); err != nil {
				break
			}
		}
		if err = b.prune(ctx, c, &docs[c.Doc]); err != nil {
			break
		}
	}
	if err != nil {
		rest = 0 // the request assembles nothing more
	}
	return b.assemble(docs, rest), err
}

// blockScratch is the pooled staging memory of one request's materialize
// stage, which fills it a block at a time: every pruned candidate's kept IDs
// back to back in kept, the events it hydrated back to back in events, and per
// candidate what assembly needs. The slabs the request's fragments are carved
// from are the request's alone: release drops them.
type blockScratch struct {
	kept   []nid.ID
	events []lca.IDEvent
	rtf    rtf.IDRTF // a hydrated candidate's RTF, as exec.Materialize reads it
	pruned []prunedCand
	slabs  slabs
	path   []int      // assemble's depth stack (see there)
	code   dewey.Code // a fragment root's code, walked from the node table
}

// slabs are the backing arrays a request's fragments are carved from, and
// what the request has assembled so far: fragments, kept nodes, Dewey bytes.
type slabs struct {
	frags  []Fragment
	nodes  []FragmentNode
	ids    []nid.ID
	deweys strings.Builder

	nf, nk, bytes int
}

// carve returns the next n elements of *slab, first replacing it with a
// fresh array of n+more elements when its spare capacity is short of n. The
// elements carved before stay where they are: fragments already handed out
// view them.
func carve[T any](slab *[]T, n, more int) []T {
	s := *slab
	if cap(s)-len(s) < n {
		s = make([]T, 0, n+more)
	}
	*slab = s[:len(s)+n]
	return s[len(s) : len(s)+n : len(s)+n]
}

// prunedCand is one pruned candidate awaiting assembly: its keyword events
// (hydrated if the candidate stage deferred them), and how many nodes it kept
// (its run of blockScratch.kept) of how many visited.
type prunedCand struct {
	c          *exec.Candidate
	events     []lca.IDEvent
	n, visited int
}

var blockPool = sync.Pool{New: func() any { return new(blockScratch) }}

// release clears what would keep a request's candidates or fragments
// reachable from the pool, and hands the block back. It drops the slabs
// outright: the request's fragments may outlive it, and the next request must
// never carve into an array they view.
func (b *blockScratch) release() {
	clear(b.pruned[:cap(b.pruned)])
	b.slabs = slabs{}
	blockPool.Put(b)
}

// prune is fill's prune phase for one candidate of document d.
func (b *blockScratch) prune(ctx context.Context, c *exec.Candidate, d *docRead) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = concurrent.Recovered(r)
		}
	}()
	if err := fault.Inject(ctx, fault.PointMaterialize, d.name); err != nil {
		return err
	}
	r := c.RTF
	if r.KeywordNodes == nil && c.Roots != nil {
		// The candidate stage deferred event materialization
		// (score-without-events); hydrate this selected candidate's event
		// list into the block's buffer by replaying the dispatch inside its
		// subtree window.
		n := len(b.events)
		b.events = rtf.AppendEventsFor(b.events, d.params.Tab, r.Root, c.Roots, d.plan.Sets)
		b.rtf = rtf.IDRTF{Root: r.Root, KeywordNodes: b.events[n:len(b.events):len(b.events)]}
		r = &b.rtf
	}
	n := len(b.kept)
	kept, visited := exec.Materialize(b.kept, r, d.params)
	b.kept = kept
	b.pruned = append(b.pruned, prunedCand{c: c, events: r.KeywordNodes, n: len(kept) - n, visited: visited})
	return nil
}

// assemble is fill's assemble phase: it turns the pruned candidates into
// Fragments carved from the request's slabs — the fragments, their nodes,
// their kept IDs and their Dewey bytes. A slab too short for the block is
// replaced by one sized for the block plus a forecast of the fragments that
// follow in its window, at the request's running average size: the window is
// w = min(the selected candidates not yet assembled, the fragments assembled
// so far, blockSize), so a page's blocks of 64 (whose window is the block) get
// exact-size slabs, and a stream's blocks of one share slabs of 1, 2, 4, …
// fragments. Everything runs on node IDs: a kept node is its Dewey string and
// its keyword mask, from a two-pointer merge of the (sorted) kept IDs and
// keyword events; its label, depth, text and matched keywords are read later,
// by ID, from the view its request pinned (Fragment.NodeLabel and the other
// accessors). A fragment's Root is its first node's Dewey string, the one
// code assembly walks from the node table: the keep-set is ancestor-closed,
// so the root is always kept, first. Because the kept IDs are also in
// pre-order, a node's parent is the last node kept one level up, so a kept
// node's Dewey string is its parent's, a dot and its ordinal: the path stack
// b.path holds, per depth below the root, the string length of the last
// node kept there while the slab is sized, and its index while the strings
// are written.
func (b *blockScratch) assemble(docs []docRead, rest int) []Fragment {
	nf, nk := len(b.pruned), len(b.kept)
	if nf == 0 {
		return nil
	}
	size, off := 0, 0
	for _, p := range b.pruned {
		tab := docs[p.c.Doc].params.Tab
		kept := b.kept[off : off+p.n]
		off += p.n
		root := tab.Depth(kept[0])
		for _, id := range kept {
			n, d := 0, int(tab.Depth(id)-root)
			if d == 0 {
				b.code = tab.AppendCode(b.code[:0], id)
				n = b.code.StringLen()
			} else {
				n = b.path[d-1] + 1 + dewey.Code{tab.Ordinal(id)}.StringLen()
			}
			b.path = append(b.path[:d], n)
			size += n
		}
	}
	sl := &b.slabs
	sl.nf, sl.nk, sl.bytes = sl.nf+nf, sl.nk+nk, sl.bytes+size
	more := min(nf+rest, sl.nf, blockSize) - nf // fragments forecast past the block
	frags := carve(&sl.frags, nf, more)
	nodes := carve(&sl.nodes, nk, sl.nk*more/sl.nf)
	ids := carve(&sl.ids, nk, sl.nk*more/sl.nf)
	copy(ids, b.kept)
	// Dewey strings are slices of the builder's buffer, so it must never
	// reallocate under the strings handed out: a block that does not fit
	// starts a new one.
	deweys := &sl.deweys
	if deweys.Cap()-deweys.Len() < size {
		*deweys = strings.Builder{}
		deweys.Grow(size + sl.bytes*more/sl.nf)
	}
	var scratch [64]byte
	off = 0
	for i, p := range b.pruned {
		d := &docs[p.c.Doc]
		d.eng.assembled.Add(1)
		tab := d.params.Tab
		kept := ids[off : off+p.n : off+p.n]
		fn := nodes[off : off+p.n : off+p.n]
		off += p.n
		events, j, root := p.events, 0, tab.Depth(kept[0])
		for k, id := range kept {
			start := deweys.Len()
			d := int(tab.Depth(id) - root)
			if d == 0 {
				b.code = tab.AppendCode(b.code[:0], id)
				deweys.Write(b.code.AppendString(scratch[:0]))
			} else {
				deweys.WriteString(fn[b.path[d-1]].Dewey)
				deweys.WriteByte('.')
				deweys.Write(strconv.AppendUint(scratch[:0], uint64(tab.Ordinal(id)), 10))
			}
			b.path = append(b.path[:d], k)
			n := &fn[k]
			n.Dewey = deweys.String()[start:]
			for j < len(events) && events[j].ID < id {
				j++
			}
			if j < len(events) && events[j].ID == id {
				n.mask = events[j].Mask
			}
		}
		f := &frags[i]
		f.Root, f.RootLabel, f.IsSLCA, f.Score = fn[0].Dewey, d.v.src.labels.Of(kept[0]), p.c.IsSLCA, p.c.Score
		f.Nodes, f.Pruned = fn, p.visited-p.n
		f.v, f.keptIDs = d.v, kept
	}
	return frags
}
