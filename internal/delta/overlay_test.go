package delta

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"xks/internal/dewey"
	"xks/internal/index"
	"xks/internal/nid"
	"xks/internal/planner"
)

// vocab is small on purpose: every segment touches words earlier segments
// and the base already hold, so merged lists grow from many appends.
var vocab = []string{"alpha", "beta", "gamma", "delta", "eps", "zeta", "eta", "theta"}

// history is the test's own record of what was ever written: the first
// base's postings and every segment in order. A boundary's merged list is
// their plain concatenation — the per-query merge Snapshot.LookupIDs used to
// do, kept here as the oracle.
type history struct {
	base map[string][]nid.ID
	segs []*Segment
}

func (hi *history) lookup(word string, n int) []nid.ID {
	out := slices.Clone(hi.base[word])
	for _, sg := range hi.segs {
		if int(sg.End) <= n {
			out = append(out, sg.Postings[word]...)
		}
	}
	return out
}

// naiveStats is the planner view of head h at n nodes, by walking every
// visible segment's posting map.
func naiveStats(h *Head, n int) (st planner.Stats, segments, deltaPostings int) {
	st = h.Base.Stats()
	for _, sg := range h.Segs {
		if int(sg.End) > n {
			break
		}
		segments++
		for _, ids := range sg.Postings {
			deltaPostings += len(ids)
			for _, id := range ids {
				st.DepthSum += int64(h.Tab.Depth(id))
			}
		}
	}
	st.Postings += deltaPostings
	return st, segments, deltaPostings
}

// grower extends one node table with random records under the root and
// cuts the matching segments.
type grower struct {
	rng  *rand.Rand
	tab  *nid.Table
	next uint32 // ordinal of the root's next child
}

func newGrower(seed int64, records int) (*grower, *index.Index, map[string][]nid.ID) {
	g := &grower{rng: rand.New(rand.NewSource(seed))}
	cs := []dewey.Code{{0}}
	for range records {
		cs = append(cs, g.record()...)
	}
	g.tab = nid.FromCodes(cs)
	postings := map[string][]nid.ID{}
	for id := 1; id < g.tab.Len(); id++ {
		for _, w := range g.words() {
			postings[w] = append(postings[w], nid.ID(id))
		}
	}
	// The index's lists get room to append into, filled with a value no ID
	// has: an overlay that extended a base list in place would leave its IDs
	// there (baseUntouched).
	base := make(map[string][]nid.ID, len(postings))
	for w, ids := range postings {
		base[w] = slices.Clone(ids)
		roomy := slices.Repeat([]nid.ID{nid.None}, len(ids)+64)
		postings[w] = roomy[:copy(roomy, ids)]
	}
	return g, indexOf(g.tab, postings), base
}

func baseUntouched(t *testing.T, base *index.Index) {
	t.Helper()
	for _, w := range vocab {
		list := base.LookupIDs(w)
		for _, id := range list[len(list):cap(list)] {
			if id != nid.None {
				t.Fatalf("the base's array for %q was written past its list: %v", w, list[:cap(list)])
			}
		}
	}
}

// record returns the codes of one new subtree under the root: a child and
// up to three grandchildren.
func (g *grower) record() []dewey.Code {
	top := dewey.Code{0, g.next}
	g.next++
	cs := []dewey.Code{top}
	for k := range g.rng.Intn(4) {
		cs = append(cs, top.Child(uint32(k)))
	}
	return cs
}

func (g *grower) words() []string {
	var ws []string
	for _, w := range vocab {
		if g.rng.Intn(3) == 0 {
			ws = append(ws, w)
		}
	}
	return ws
}

// segment appends one record to the table and returns its segment.
func (g *grower) segment(t testing.TB) *Segment {
	start := nid.ID(g.tab.Len())
	tab, ids, err := g.tab.Extend(g.record())
	if err != nil {
		t.Fatal(err)
	}
	g.tab = tab
	postings := map[string][]nid.ID{}
	for _, id := range ids {
		for _, w := range g.words() {
			postings[w] = append(postings[w], id)
		}
	}
	if g.rng.Intn(4) == 0 { // a word no base and no other segment has
		w := fmt.Sprintf("new%d", start)
		postings[w] = append(postings[w], ids[0])
	}
	sg, err := NewSegment(start, nid.ID(tab.Len()), postings)
	if err != nil {
		t.Fatal(err)
	}
	return sg
}

// TestOverlayMatchesNaiveConcatenation drives seeded random sequences of
// appends and folds over two parallel chains of heads — one derived with
// Append (one overlay per epoch, shared), one written as literals (each head
// replays its own) — and after every step resolves every boundary ever
// published from every head published at or after it. Whatever was appended
// to the shared overlay since, whichever base now holds the postings, each
// view must equal the concatenation.
func TestOverlayMatchesNaiveConcatenation(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		g, base, basePostings := newGrower(seed, 3)
		hi := &history{base: basePostings}
		chained := &Head{Tab: g.tab, Base: base}
		literal := &Head{Tab: g.tab, Base: base}
		heads := []*Head{chained}
		var epoch []*Head // the Append-derived heads since the last fold
		boundaries := []int{g.tab.Len()}
		words := append([]string{"missing"}, vocab...)

		check := func(step int) {
			for _, h := range heads {
				for _, n := range boundaries {
					if n > h.Tab.Len() {
						continue
					}
					s, err := h.At(n, nil)
					if err != nil {
						t.Fatalf("seed %d step %d: head at %d nodes cannot resolve boundary %d: %v", seed, step, h.Tab.Len(), n, err)
					}
					wantStats, wantSegs, wantPostings := naiveStats(h, n)
					if got := s.Stats(); !reflect.DeepEqual(got, wantStats) {
						t.Fatalf("seed %d step %d boundary %d: Stats = %+v, want %+v", seed, step, n, got, wantStats)
					}
					if s.Segments() != wantSegs || s.DeltaPostings() != wantPostings || s.NumNodes() != n {
						t.Fatalf("seed %d step %d boundary %d: Segments %d DeltaPostings %d NumNodes %d, want %d %d %d",
							seed, step, n, s.Segments(), s.DeltaPostings(), s.NumNodes(), wantSegs, wantPostings, n)
					}
					for _, w := range words {
						want := hi.lookup(w, n)
						if got := s.LookupIDs(w); !slices.Equal(got, want) {
							t.Fatalf("seed %d step %d: LookupIDs(%q) at boundary %d from the head at %d nodes (%d segments) = %v, want %v",
								seed, step, w, n, h.Tab.Len(), len(h.Segs), got, want)
						}
						if got := s.Frequency(w); got != len(want) {
							t.Fatalf("seed %d step %d: Frequency(%q) at boundary %d = %d, want %d", seed, step, w, n, got, len(want))
						}
					}
				}
			}
		}

		for step := range 30 {
			if len(epoch) > 0 && g.rng.Intn(6) == 0 {
				// Fold: the same index must come out of both chains, and out of
				// an older head of the epoch whose overlay has moved on.
				old := epoch[g.rng.Intn(len(epoch))]
				epoch = nil
				for _, h := range []*Head{chained, literal, old} {
					folded := Fold(h)
					nonEmpty := 0
					for _, w := range words {
						want := hi.lookup(w, h.Tab.Len())
						if got := folded.LookupIDs(w); !slices.Equal(got, want) {
							t.Fatalf("seed %d step %d: folded LookupIDs(%q) = %v, want %v", seed, step, w, got, want)
						}
					}
					for _, w := range words {
						if len(folded.LookupIDs(w)) > 0 {
							nonEmpty++
						}
					}
					if nonEmpty != folded.NumWords() {
						t.Fatalf("seed %d step %d: folded base lists %d words, %d with postings", seed, step, folded.NumWords(), nonEmpty)
					}
				}
				chained = &Head{Tab: chained.Tab, Base: Fold(chained)}
				literal = &Head{Tab: literal.Tab, Base: Fold(literal)}
			} else {
				sg := g.segment(t)
				hi.segs = append(hi.segs, sg)
				for w := range sg.Postings {
					if !slices.Contains(words, w) {
						words = append(words, w)
					}
				}
				chained = chained.Append(g.tab, sg)
				epoch = append(epoch, chained)
				literal = &Head{Tab: g.tab, Base: literal.Base, Segs: append(slices.Clone(literal.Segs), sg)}
				boundaries = append(boundaries, g.tab.Len())
			}
			heads = append(heads, chained, literal)
			check(step)
		}
		baseUntouched(t, base)
	}
}

// TestOverlayReadersSeeImmutableLists: readers pin a snapshot, copy what it
// serves, and keep re-reading it — from the snapshot and from the same
// boundary resolved again on whatever head is newest — while one writer lands
// 500 segments and folds every 50. Every re-read must equal the first, and
// every list a fold handed to a base must be capped and still hold, at the
// end, exactly what it held when it was handed over.
func TestOverlayReadersSeeImmutableLists(t *testing.T) {
	g, base, _ := newGrower(42, 50)
	var current atomic.Pointer[Head]
	current.Store(&Head{Tab: g.tab, Base: base})

	var wg sync.WaitGroup
	done := make(chan struct{})
	for r := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; ; round++ {
				select {
				case <-done:
					return
				default:
				}
				h := current.Load()
				n := h.Tab.Len()
				pinned, err := h.At(n, nil)
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				first := make([][]nid.ID, len(vocab))
				for i, w := range vocab {
					first[i] = slices.Clone(pinned.LookupIDs(w))
				}
				for range 20 {
					again, err := current.Load().At(n, nil)
					if err != nil {
						t.Errorf("reader %d: boundary %d lost: %v", r, n, err)
						return
					}
					for i, w := range vocab {
						if got := pinned.LookupIDs(w); !slices.Equal(got, first[i]) {
							t.Errorf("reader %d: pinned %q changed under it: %v, first %v", r, w, got, first[i])
							return
						}
						if got := again.LookupIDs(w); !slices.Equal(got, first[i]) {
							t.Errorf("reader %d: %q at boundary %d from a later head = %v, first %v", r, w, n, got, first[i])
							return
						}
					}
				}
			}
		}()
	}

	type handed struct{ list, was []nid.ID }
	var folds []handed
	h := current.Load()
	for i := 1; i <= 500; i++ {
		sg := g.segment(t)
		h = h.Append(g.tab, sg)
		current.Store(h)
		if i%50 == 0 {
			folded := Fold(h)
			for _, w := range vocab {
				list := folded.LookupIDs(w)
				if cap(list) != len(list) {
					t.Errorf("fold %d handed %q to the base with room to append: len %d cap %d", i/50, w, len(list), cap(list))
				}
				folds = append(folds, handed{list, slices.Clone(list)})
			}
			h = &Head{Tab: h.Tab, Base: folded}
			current.Store(h)
		}
	}
	close(done)
	wg.Wait()
	for _, f := range folds {
		if !slices.Equal(f.list, f.was) {
			t.Fatalf("a list handed to a folded base was written afterwards: %v, was %v", f.list, f.was)
		}
	}
	baseUntouched(t, base)
}
