package store

import (
	"encoding/binary"
	"math"
	"os"
	"testing"

	"xks/internal/analysis"
	"xks/internal/datagen"
	"xks/internal/index"
	"xks/internal/planner"
	"xks/internal/reference"
	"xks/internal/xmltree"
)

// previousFormat is the store xkshred wrote from reference.Publications
// while the format still persisted the planner statistics in a seventh
// section (big-endian: six u32 counts, Postings the third, then AvgDepth as
// float64 bits).
const previousFormat = "testdata/publications-stats-section.xks"

// sections maps a v3 image's section IDs to their payloads.
func sections(t *testing.T, data []byte) map[uint32][]byte {
	t.Helper()
	out := map[uint32][]byte{}
	for i := range int(binary.LittleEndian.Uint32(data[12:16])) {
		e := data[16+32*i:]
		off, n := binary.LittleEndian.Uint64(e[8:]), binary.LittleEndian.Uint64(e[16:])
		out[binary.LittleEndian.Uint32(e)] = data[off : off+n]
	}
	return out
}

// scanStats is the planner statistics of ix by the scan the index no
// longer makes: every posting list of words decoded, every posting's depth
// summed.
func scanStats(ix *index.Index, words []string) planner.Stats {
	var st planner.Stats
	for _, w := range words {
		for _, id := range ix.LookupIDs(w) {
			st.Postings++
			st.DepthSum += int64(ix.Table().Depth(id))
		}
	}
	return st
}

// TestStatsRoundTripV2: the statistics survive Save and open without being
// written — the image has no statistics section — and the opened store's
// index answers them without decoding a posting list.
func TestStatsRoundTripV2(t *testing.T) {
	s := pubStore()
	want := index.Build(reference.Publications(), analysis.New()).Stats()
	data := saveBytes(t, s)
	if secs := sections(t, data); len(secs) != 8 || secs[7] != nil {
		t.Fatalf("Save wrote %d sections, want 8 and no statistics section", len(secs))
	}
	loaded, err := openV3FromBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	for name, st := range map[string]*Store{"shredded": s, "opened": loaded} {
		ix := st.BuildIndex()
		if got := ix.Stats(); got != want {
			t.Fatalf("%s: Stats = %+v, want %+v", name, got, want)
		}
		if n := ix.DecodedLists(); n != 0 {
			t.Fatalf("%s: Stats decoded %d posting lists, want 0", name, n)
		}
	}
}

// TestStoreStatsMatchIndexScan: the statistics a store derives at open
// equal those index.Build sums over the same document's rows and the scan
// of every posting list.
func TestStoreStatsMatchIndexScan(t *testing.T) {
	for name, tree := range map[string]*xmltree.Tree{
		"publications": reference.Publications(),
		"team":         reference.Team(),
		"dblp":         datagen.DBLP(datagen.DBLPConfig{Seed: 3, NumRecords: 200}),
		"xmark":        datagen.XMark(datagen.XMarkConfig{Seed: 3, Items: 60}),
	} {
		built := index.Build(tree, analysis.New()).Stats()
		opened, err := openV3FromBytes(saveBytes(t, Shred(tree, analysis.New())))
		if err != nil {
			t.Fatal(err)
		}
		ix := opened.BuildIndex()
		if got := ix.Stats(); got != built || got.Postings != opened.NumValues() {
			t.Fatalf("%s: store %+v, Build %+v (%d value rows)", name, got, built, opened.NumValues())
		}
		if scan := scanStats(ix, opened.Keywords()); scan != built {
			t.Fatalf("%s: scan %+v, Build %+v", name, scan, built)
		}
	}
}

// TestPreviousFormatOpens: a file with the old statistics section and
// without the text and attrs sections opens in every mode (the statistics
// section is skipped), holds what a fresh Shred holds with empty text and
// no attributes, and derives the statistics its section persisted.
func TestPreviousFormatOpens(t *testing.T) {
	data, err := os.ReadFile(previousFormat)
	if err != nil {
		t.Fatal(err)
	}
	persisted, ok := sections(t, data)[7]
	if !ok {
		t.Fatalf("%s has no statistics section", previousFormat)
	}
	fresh := pubStore()
	fresh.text = index.Strings{Off: make([]uint32, fresh.NumNodes()+1)}
	fresh.attrs = fresh.text
	want := fresh.BuildIndex().Stats()
	for _, mode := range []OpenMode{OpenAuto, OpenMmap, OpenHeap} {
		s, err := OpenFile(previousFormat, OpenOptions{Mode: mode})
		if mode == OpenMmap && !mmapSupported {
			continue
		}
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		st := s.BuildIndex().Stats()
		if st != want || st.Postings != int(binary.BigEndian.Uint32(persisted[8:])) ||
			math.Float64bits(st.AvgDepth()) != binary.BigEndian.Uint64(persisted[24:]) {
			t.Fatalf("mode %d: derived %+v (avg depth %v), fresh %+v, persisted %d postings at avg depth %v", mode, st, st.AvgDepth(),
				want, binary.BigEndian.Uint32(persisted[8:]), math.Float64frombits(binary.BigEndian.Uint64(persisted[24:])))
		}
		assertSameSurface(t, fresh, s)
		s.Close()
	}
}
