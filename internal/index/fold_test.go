package index_test

import (
	"slices"
	"testing"

	"xks/internal/delta"
	"xks/internal/dewey"
	"xks/internal/nid"
	"xks/internal/reference"
	"xks/internal/store"
)

// TestStatsDecodeNothing: an index over a store's compressed lists, and
// one With derives from it, answer Stats without decoding a list.
func TestStatsDecodeNothing(t *testing.T) {
	base := store.Shred(reference.Publications(), nil).BuildIndex()
	want := base.Stats()
	with := base.With(base.Table(), map[string][]nid.ID{"zebra": {3}}, want)
	if got := with.Stats(); got != want || want.Postings == 0 {
		t.Fatalf("With Stats = %+v, want the given %+v", got, want)
	}
	if base.DecodedLists() != 0 || with.DecodedLists() != 0 {
		t.Fatalf("Stats decoded %d and %d lists, want 0", base.DecodedLists(), with.DecodedLists())
	}
}

// TestFoldOverStoreDecodesTouchedListsOnly: folding delta segments into a
// base built over a store's compressed lists decodes the lists of the words
// the segments touched, the overlay's first touch, and no other: every
// untouched list is shared with the base, still compressed, and decodes on
// its first lookup through either index, once.
func TestFoldOverStoreDecodesTouchedListsOnly(t *testing.T) {
	base := store.Shred(reference.Publications(), nil).BuildIndex()
	h := &delta.Head{Tab: base.Table(), Base: base}
	touched := []string{"xml", "keyword"}
	for _, rec := range [][]dewey.Code{
		{{0, 3}, {0, 3, 0}},
		{{0, 4}},
	} {
		start := nid.ID(h.Tab.Len())
		tab, _, err := h.Tab.Extend(rec)
		if err != nil {
			t.Fatal(err)
		}
		end := nid.ID(tab.Len())
		seg, err := delta.NewSegment(start, end, map[string][]nid.ID{"xml": {start}, "keyword": {end - 1}, "erratum": {start}})
		if err != nil {
			t.Fatal(err)
		}
		h = h.Append(tab, seg)
	}
	folded := delta.Fold(h)
	// The folded statistics are the base's plus the segments' six postings,
	// at 0.3, 0.3.0 and 0.3, then three times at 0.4; reading them decodes
	// no list (checked below).
	want := base.Stats()
	want.Postings += 6
	want.DepthSum += 1 + 2 + 1 + 3*1
	if got := folded.Stats(); got != want {
		t.Fatalf("folded Stats = %+v, want %+v", got, want)
	}
	if got := base.DecodedLists(); got != int64(len(touched)) {
		t.Fatalf("the base decoded %d lists, want the %d touched words'", got, len(touched))
	}
	if got := folded.DecodedLists(); got != 0 {
		t.Fatalf("the folded index decoded %d lists, want 0", got)
	}
	if got := folded.LookupIDs("erratum"); !slices.Equal(got, []nid.ID{20, 22}) {
		t.Fatalf("folded erratum = %v, want [20 22]", got)
	}
	if got, want := folded.LookupIDs("xml"), append(slices.Clone(base.LookupIDs("xml")), 20, 22); !slices.Equal(got, want) {
		t.Fatalf("folded xml = %v, want %v", got, want)
	}
	if got, want := folded.LookupIDs("liu"), base.LookupIDs("liu"); !slices.Equal(got, want) || len(got) == 0 {
		t.Fatalf("folded liu = %v, want the base's %v", got, want)
	}
	// The shared list decoded once, counted by the index it was looked up
	// through first.
	if base.DecodedLists() != 2 || folded.DecodedLists() != 1 {
		t.Fatalf("after a lookup of an untouched word: base decoded %d lists, folded %d; want 2 and 1", base.DecodedLists(), folded.DecodedLists())
	}
}
