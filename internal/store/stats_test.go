package store

import (
	"reflect"
	"testing"

	"xks/internal/analysis"
	"xks/internal/index"
	"xks/internal/paperdata"
	"xks/internal/xmltree"
)

// The stats section (the encoding format v2 introduced) must round-trip the
// planner statistics exactly, and the opened store must install them on
// BuildIndex without recomputation.
func TestStatsRoundTripV2(t *testing.T) {
	s := pubStore()
	want := s.stats
	if want.Nodes != s.NumNodes() || want.Postings != s.NumValues() {
		t.Fatalf("stats: Nodes=%d Postings=%d, want %d/%d",
			want.Nodes, want.Postings, s.NumNodes(), s.NumValues())
	}
	if want.Words == 0 || want.MaxPostings == 0 || want.AvgDepth <= 0 || want.AvgFanout <= 0 {
		t.Fatalf("degenerate stats: %+v", want)
	}
	loaded, err := openV3FromBytes(saveBytes(t, s))
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.stats; !reflect.DeepEqual(got, want) {
		t.Fatalf("stats round trip:\n got %+v\nwant %+v", got, want)
	}
	ix := loaded.BuildIndex()
	if got := ix.Stats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("BuildIndex stats:\n got %+v\nwant %+v", got, want)
	}
	if n := ix.DecodedLists(); n != 0 {
		t.Fatalf("BuildIndex stats decoded %d posting lists, want 0", n)
	}
}

// Store statistics (what the stats section persists) must equal the
// index-side scan over the tree exactly: the planner must decide
// identically whether the engine came from FromTree or OpenStore.
func TestStoreStatsMatchIndexScan(t *testing.T) {
	for name, tree := range map[string]*xmltree.Tree{
		"publications": paperdata.Publications(),
		"team":         paperdata.Team(),
	} {
		fromStore := Shred(tree, analysis.New()).stats
		fromIndex := index.Build(tree, analysis.New()).Stats()
		if !reflect.DeepEqual(fromStore, fromIndex) {
			t.Fatalf("%s:\n store %+v\n index %+v", name, fromStore, fromIndex)
		}
	}
}
