package delta

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"xks/internal/dewey"
	"xks/internal/index"
	"xks/internal/nid"
	"xks/internal/planner"
)

func codes(ss ...string) []dewey.Code {
	out := make([]dewey.Code, len(ss))
	for i, s := range ss {
		out[i] = dewey.MustParse(s)
	}
	return out
}

func ids(ns ...nid.ID) []nid.ID { return ns }

// indexOf indexes postings over tab, its statistics summed from the lists.
func indexOf(tab *nid.Table, postings map[string][]nid.ID) *index.Index {
	var st planner.Stats
	for _, ids := range postings {
		st.Postings += len(ids)
		for _, id := range ids {
			st.DepthSum += int64(tab.Depth(id))
		}
	}
	return new(index.Index).With(tab, postings, st)
}

// testHead builds a 3-node base ("0", "0.0", "0.1") with base postings and
// two tail segments extending the table to 7 nodes.
func testHead(t *testing.T) *Head {
	t.Helper()
	baseTab := nid.FromCodes(codes("0", "0.0", "0.1"))
	base := indexOf(baseTab, map[string][]nid.ID{
		"alpha": ids(1),
		"beta":  ids(1, 2),
	})
	tab, _, err := baseTab.Extend(codes("0.2", "0.2.0"))
	if err != nil {
		t.Fatal(err)
	}
	seg1, err := NewSegment(3, 5, map[string][]nid.ID{
		"alpha": ids(4),
		"gamma": ids(3, 4),
	})
	if err != nil {
		t.Fatal(err)
	}
	tab, _, err = tab.Extend(codes("0.3", "0.3.0"))
	if err != nil {
		t.Fatal(err)
	}
	seg2, err := NewSegment(5, 7, map[string][]nid.ID{
		"beta": ids(6),
	})
	if err != nil {
		t.Fatal(err)
	}
	return &Head{Tab: tab, Base: base, Segs: []*Segment{seg1, seg2}}
}

// TestVersionPacking: a version token packs nothing but the node count — a
// head's is its table length, a snapshot's the count it was resolved at —
// and a fold leaves it unchanged.
func TestVersionPacking(t *testing.T) {
	h := testHead(t)
	if v := h.Version(); v != uint64(h.Tab.Len()) || v != 7 {
		t.Errorf("head version = %d, want its table length 7 (%d)", v, h.Tab.Len())
	}
	for _, n := range []int{3, 5, 7} {
		s, err := h.At(n, nil)
		if err != nil {
			t.Fatal(err)
		}
		if s.Version() != uint64(n) {
			t.Errorf("snapshot at %d nodes has version %d", n, s.Version())
		}
		s.Release()
	}
	folded := &Head{Tab: h.Tab, Base: Fold(h)}
	if folded.Version() != h.Version() {
		t.Errorf("fold moved the version %d -> %d", h.Version(), folded.Version())
	}
}

func TestNewSegmentValidation(t *testing.T) {
	cases := map[string]struct {
		start, end nid.ID
		postings   map[string][]nid.ID
	}{
		"inverted range":  {5, 3, nil},
		"posting below":   {3, 5, map[string][]nid.ID{"w": ids(2)}},
		"posting at end":  {3, 5, map[string][]nid.ID{"w": ids(5)}},
		"not ascending":   {3, 6, map[string][]nid.ID{"w": ids(4, 3)}},
		"duplicate entry": {3, 6, map[string][]nid.ID{"w": ids(4, 4)}},
	}
	for name, c := range cases {
		if _, err := NewSegment(c.start, c.end, c.postings); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	sg, err := NewSegment(3, 6, map[string][]nid.ID{"a": ids(3, 5), "b": ids(4)})
	if err != nil {
		t.Fatal(err)
	}
	if sg.Count != 3 {
		t.Errorf("Count = %d, want 3", sg.Count)
	}
}

func TestHeadAtBoundaries(t *testing.T) {
	h := testHead(t)
	var c Counters
	// Every published boundary resolves: 3 (base), 5 (base+seg1), 7 (all).
	for _, n := range []int{3, 5, 7} {
		s, err := h.At(n, &c)
		if err != nil {
			t.Fatalf("At(%d): %v", n, err)
		}
		if s.NumNodes() != n || s.Table().Len() != n {
			t.Errorf("At(%d): NumNodes=%d Len=%d", n, s.NumNodes(), s.Table().Len())
		}
		s.Release()
	}
	// Splitting a segment fails; so do out-of-range counts.
	for _, n := range []int{4, 6, -1, 8} {
		if _, err := h.At(n, &c); !errors.Is(err, ErrNoSnapshot) {
			t.Errorf("At(%d): err = %v, want ErrNoSnapshot", n, err)
		}
	}
	if got := c.Pinned(); got != 0 {
		t.Errorf("pinned = %d after releasing everything", got)
	}
}

func TestSnapshotMergesBaseAndSegments(t *testing.T) {
	h := testHead(t)
	full, err := h.At(7, nil)
	if err != nil {
		t.Fatal(err)
	}
	checks := map[string][]nid.ID{
		"alpha":   ids(1, 4),
		"beta":    ids(1, 2, 6),
		"gamma":   ids(3, 4),
		"missing": nil,
	}
	for w, want := range checks {
		got := full.LookupIDs(w)
		if len(got) != len(want) {
			t.Fatalf("LookupIDs(%q) = %v, want %v", w, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("LookupIDs(%q) = %v, want %v", w, got, want)
			}
		}
		if f := full.Frequency(w); f != len(want) {
			t.Errorf("Frequency(%q) = %d, want %d", w, f, len(want))
		}
	}
	if full.Segments() != 2 || full.DeltaPostings() != 4 {
		t.Errorf("Segments=%d DeltaPostings=%d, want 2/4", full.Segments(), full.DeltaPostings())
	}

	// A mid-history snapshot sees only segment 1.
	mid, err := h.At(5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := mid.LookupIDs("beta"); len(got) != 2 {
		t.Errorf("mid beta = %v, want the base pair only", got)
	}
	if got := mid.LookupIDs("gamma"); len(got) != 2 {
		t.Errorf("mid gamma = %v", got)
	}

	// The no-delta hot path returns the base's shared slice untouched.
	baseOnly, err := h.At(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	shared := h.Base.LookupIDs("beta")
	if got := baseOnly.LookupIDs("beta"); len(got) != 2 || &got[0] != &shared[0] {
		t.Error("base-only snapshot did not share the base posting slice")
	}
	if st := baseOnly.Stats(); !reflect.DeepEqual(st, h.Base.Stats()) {
		t.Errorf("base-only Stats = %+v, want the base's own", st)
	}
}

// TestSnapshotStatsOverlayDelta: a snapshot's statistics are the base's
// plus exactly the visible segments' — the same whether the head was
// written as a literal (its segments replayed) or derived with Append — and
// a fold's base carries the full head's.
func TestSnapshotStatsOverlayDelta(t *testing.T) {
	h := testHead(t)
	if base := h.Base.Stats(); base != (planner.Stats{Postings: 3, DepthSum: 3}) {
		t.Fatalf("base Stats = %+v, want 3 postings at depth 1", base)
	}
	// Segment 1: alpha 0.2.0, gamma 0.2 and 0.2.0; segment 2: beta 0.3.0.
	want := map[int]planner.Stats{
		3: {Postings: 3, DepthSum: 3},
		5: {Postings: 6, DepthSum: 8},
		7: {Postings: 7, DepthSum: 10},
	}
	mid, err := h.Tab.Truncate(5)
	if err != nil {
		t.Fatal(err)
	}
	chained := (&Head{Tab: h.Base.Table(), Base: h.Base}).Append(mid, h.Segs[0]).Append(h.Tab, h.Segs[1])
	for _, head := range []*Head{h, chained} {
		for n, w := range want {
			s, err := head.At(n, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := s.Stats(); got != w {
				t.Errorf("%d-segment head at %d nodes: Stats = %+v, want %+v", len(head.Segs), n, got, w)
			}
		}
		if got := Fold(head).Stats(); got != want[7] {
			t.Errorf("folded Stats = %+v, want %+v", got, want[7])
		}
	}
}

// TestFoldMatchesSnapshot: the compacted base serves exactly what the
// pre-compaction head's full snapshot served, word for word, and shares
// untouched posting slices with the old base.
func TestFoldMatchesSnapshot(t *testing.T) {
	h := testHead(t)
	before, err := h.At(7, nil)
	if err != nil {
		t.Fatal(err)
	}
	folded := Fold(h)
	if folded.NumNodes() != 7 || folded.Table().Len() != 7 {
		t.Fatalf("folded NumNodes=%d Len=%d, want 7/7", folded.NumNodes(), folded.Table().Len())
	}
	for _, w := range []string{"alpha", "beta", "gamma"} {
		want, got := before.LookupIDs(w), folded.LookupIDs(w)
		if len(want) != len(got) {
			t.Fatalf("folded %q = %v, want %v", w, got, want)
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("folded %q = %v, want %v", w, got, want)
			}
		}
	}
	// The old base is untouched and still serves its own view.
	if got := h.Base.LookupIDs("beta"); len(got) != 2 {
		t.Errorf("old base mutated: beta = %v", got)
	}

	// A post-compaction head can still resolve pre-compaction boundaries:
	// the base list is cut at the snapshot's node count.
	compacted := &Head{Tab: h.Tab, Base: folded}
	old, err := compacted.At(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := old.LookupIDs("beta"); len(got) != 2 || got[1] != 2 {
		t.Errorf("pre-compaction view through folded base: beta = %v", got)
	}
	if got := old.LookupIDs("gamma"); len(got) != 0 {
		t.Errorf("pre-compaction view sees post-cut postings: gamma = %v", got)
	}
	if f := old.Frequency("alpha"); f != 1 {
		t.Errorf("pre-compaction Frequency(alpha) = %d, want 1", f)
	}
	if old.NumNodes() != 3 {
		t.Errorf("pre-compaction NumNodes = %d, want 3", old.NumNodes())
	}

	// Folding a segment-free head is the identity.
	if again := Fold(compacted); again != folded {
		t.Error("Fold without segments did not return the base itself")
	}
}

func TestCountersPinAndCompaction(t *testing.T) {
	var c Counters
	h := testHead(t)
	s1, err := h.At(7, &c)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := h.At(3, &c)
	if err != nil {
		t.Fatal(err)
	}
	if c.Pinned() != 2 {
		t.Fatalf("pinned = %d, want 2", c.Pinned())
	}
	s1.Release()
	s1.Release() // idempotent
	if c.Pinned() != 1 {
		t.Fatalf("pinned = %d after one release, want 1", c.Pinned())
	}
	s2.Release()
	if c.Pinned() != 0 {
		t.Fatalf("pinned = %d, want 0", c.Pinned())
	}
	c.RecordCompaction(1500 * time.Millisecond)
	c.RecordCompaction(500 * time.Millisecond)
	if c.Compactions() != 2 {
		t.Errorf("compactions = %d", c.Compactions())
	}
	if got := c.CompactionSeconds(); got < 1.99 || got > 2.01 {
		t.Errorf("compaction seconds = %f, want 2", got)
	}
}
