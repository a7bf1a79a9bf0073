package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"xks/internal/analysis"
	"xks/internal/dewey"
	"xks/internal/nid"
	"xks/internal/paperdata"
)

func shredPaper(t *testing.T) *Store {
	t.Helper()
	return Shred(paperdata.Publications(), analysis.New())
}

// assertSameSurface pins the query surface of b to a: sizes, labels,
// statistics, vocabulary, postings, and every node's code, label, content
// set (sorted, the contract internal/prune builds on), text and attributes.
func assertSameSurface(t *testing.T, a, b *Store) {
	t.Helper()
	if a.NumNodes() != b.NumNodes() || a.NumLabels() != b.NumLabels() || a.NumValues() != b.NumValues() {
		t.Fatalf("size mismatch: nodes %d/%d labels %d/%d values %d/%d",
			a.NumNodes(), b.NumNodes(), a.NumLabels(), b.NumLabels(), a.NumValues(), b.NumValues())
	}
	for i := 0; i < a.NumLabels(); i++ {
		if a.labels[i] != b.labels[i] {
			t.Fatalf("label %d: %q != %q", i, a.labels[i], b.labels[i])
		}
	}
	ka, kb := a.Keywords(), b.Keywords()
	if !slices.Equal(ka, kb) {
		t.Fatalf("keywords differ: %d vs %d", len(ka), len(kb))
	}
	ia, ib := a.BuildIndex(), b.BuildIndex()
	if sa, sb := ia.Stats(), ib.Stats(); sa != sb {
		t.Fatalf("stats mismatch: %+v != %+v", sa, sb)
	}
	for _, w := range ka {
		pa, pb := ia.LookupIDs(w), ib.LookupIDs(w)
		if len(pa) == 0 || !slices.Equal(pa, pb) {
			t.Fatalf("keyword %q: postings %v vs %v", w, pa, pb)
		}
	}
	for i := 0; i < a.NumNodes(); i++ {
		if !dewey.Equal(a.tab.Code(nid.ID(i)), b.tab.Code(nid.ID(i))) {
			t.Fatalf("node %d: code %v != %v", i, a.tab.Code(nid.ID(i)), b.tab.Code(nid.ID(i)))
		}
		if a.LabelAt(i) != b.LabelAt(i) {
			t.Fatalf("node %d: label %q != %q", i, a.LabelAt(i), b.LabelAt(i))
		}
		ca, cb := a.ContentAt(i), b.ContentAt(i)
		if !slices.Equal(ca, cb) || !slices.IsSorted(cb) {
			t.Fatalf("node %d: content %q != %q", i, ca, cb)
		}
		id := nid.ID(i)
		if ta, tb := a.text.Row(id), b.text.Row(id); ta != tb {
			t.Fatalf("node %d: text %q != %q", i, ta, tb)
		}
		if aa, ab := a.attrs.Row(id), b.attrs.Row(id); aa != ab {
			t.Fatalf("node %d: attributes %q != %q", i, aa, ab)
		}
	}
}

// TestV3RoundTrip pins Shred → SaveFile → OpenFile to the shredded store's
// surface in every open mode, and the re-save of the opened store
// bit-identical to the first save — the writer round-trips lists it never
// decoded.
func TestV3RoundTrip(t *testing.T) {
	s := shredPaper(t)
	path := filepath.Join(t.TempDir(), "pub.xks")
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	modes := []OpenMode{OpenAuto, OpenHeap}
	if mmapSupported {
		modes = append(modes, OpenMmap)
	}
	for _, mode := range modes {
		loaded, err := OpenFile(path, OpenOptions{Mode: mode})
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		assertSameSurface(t, s, loaded)
		var again bytes.Buffer
		if err := loaded.Save(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, again.Bytes()) {
			t.Fatalf("mode %d: re-save is not bit-identical to the original image", mode)
		}
		loaded.Close()
	}
}

// TestOpenFileRejectsV1V2 pins that the retired row formats fail to open in
// every mode, with an error telling the operator how to upgrade.
func TestOpenFileRejectsV1V2(t *testing.T) {
	image := saveBytes(t, shredPaper(t))
	dir := t.TempDir()
	for _, ver := range []uint32{1, 2} {
		old := append([]byte(nil), image...)
		binary.BigEndian.PutUint32(old[len(magic):], ver)
		path := filepath.Join(dir, "old.xks")
		if err := os.WriteFile(path, old, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, mode := range []OpenMode{OpenAuto, OpenHeap, OpenMmap} {
			s, err := OpenFile(path, OpenOptions{Mode: mode})
			if err == nil {
				s.Close()
				t.Fatalf("v%d file opened under mode %d", ver, mode)
			}
			if !strings.Contains(err.Error(), "xkshred") {
				t.Fatalf("v%d, mode %d: error %q does not name xkshred", ver, mode, err)
			}
		}
	}
}

// TestOpenFileModes exercises the three open modes: mode strings,
// mapped- and file-byte accounting for each way a store is created, and
// Close.
func TestOpenFileModes(t *testing.T) {
	s := shredPaper(t)
	if s.Mode() != "v3-heap" || s.MappedBytes() != 0 || s.FileBytes() != 0 {
		t.Fatalf("shredded: mode %q mapped %d file %d", s.Mode(), s.MappedBytes(), s.FileBytes())
	}
	path := filepath.Join(t.TempDir(), "v3.xks")
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	size := fi.Size()
	fromBytes, err := openV3FromBytes(saveBytes(t, s))
	if err != nil {
		t.Fatal(err)
	}
	if fromBytes.FileBytes() != 0 {
		t.Fatalf("image read from memory: FileBytes %d, want 0", fromBytes.FileBytes())
	}

	heap, err := OpenFile(path, OpenOptions{Mode: OpenHeap})
	if err != nil {
		t.Fatal(err)
	}
	if heap.Mode() != "v3-heap" || heap.MappedBytes() != 0 || heap.FileBytes() != size {
		t.Fatalf("heap open: mode %q mapped %d file %d, want file %d", heap.Mode(), heap.MappedBytes(), heap.FileBytes(), size)
	}
	if err := heap.Close(); err != nil {
		t.Fatal(err)
	}

	if !mmapSupported {
		return
	}
	mapped, err := OpenFile(path, OpenOptions{Mode: OpenMmap})
	if err != nil {
		t.Fatal(err)
	}
	if mapped.Mode() != "v3-mmap" || mapped.MappedBytes() != size || mapped.FileBytes() != size {
		t.Fatalf("mmap open: mode %q mapped %d file %d, want %d", mapped.Mode(), mapped.MappedBytes(), mapped.FileBytes(), size)
	}
	if err := mapped.Close(); err != nil {
		t.Fatal(err)
	}
	if err := mapped.Close(); err != nil {
		t.Fatal("second Close must be a no-op, got", err)
	}
	auto, err := OpenFile(path, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if auto.Mode() != "v3-mmap" {
		t.Fatalf("auto open mode %q, want v3-mmap", auto.Mode())
	}
	auto.Close()
}

// TestOpenV3Corruption pins the deterministic failure modes of the section
// reader: truncated sections, corrupt CRCs (header and section), misaligned
// directory offsets and out-of-bounds lengths must all error — never panic,
// never return a store.
func TestOpenV3Corruption(t *testing.T) {
	v3 := saveBytes(t, shredPaper(t))
	dirEnd := 16 + 32*int(binary.LittleEndian.Uint32(v3[12:16]))
	fixHeader := func(c []byte) []byte {
		binary.LittleEndian.PutUint32(c[dirEnd:], crc32.ChecksumIEEE(c[:dirEnd]))
		return c
	}
	mutate := func(off int, x byte) []byte {
		c := append([]byte(nil), v3...)
		c[off] ^= x
		return c
	}
	cases := map[string][]byte{
		"empty":               {},
		"magic only":          []byte(magic),
		"truncated header":    v3[:14],
		"truncated directory": v3[:dirEnd-16],
		"truncated section":   v3[:len(v3)-9],
		"half file":           v3[:len(v3)/2],
		"header crc":          mutate(17, 0x10),
		"section byte":        mutate(dirEnd+12, 0x04),
		"last section byte":   mutate(len(v3)-1, 0x80),
		"entry crc":           fixHeader(mutate(20, 0xAA)),
		"misaligned offset":   fixHeader(mutate(24, 0x01)),
		"oob length":          fixHeader(mutate(32, 0xFF)),
		"offset into header":  fixHeader(mutate(16+32*3+8, 0x7F)),
	}
	for name, data := range cases {
		if _, err := openV3FromBytes(data); err == nil {
			t.Errorf("%s: corrupted image opened without error", name)
		}
	}
}

// TestOpenRejectsStringSectionCorruption: the text and attrs sections are
// validated at open like the others, so corruptions that keep every CRC
// valid — non-monotone offsets, an offset past the blob, a node count that
// is not the node table's — fail to open instead of serving a row out of
// range.
func TestOpenRejectsStringSectionCorruption(t *testing.T) {
	image, corruptions := stringSectionCorruptions(t)
	if _, err := openV3FromBytes(image); err != nil {
		t.Fatal(err)
	}
	for name, c := range corruptions {
		if s, err := openV3FromBytes(c); err == nil {
			t.Errorf("%s: opened a store of %d nodes", name, s.NumNodes())
		} else {
			t.Logf("%s: %v", name, err)
		}
	}
}
