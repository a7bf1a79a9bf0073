package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"xks/internal/analysis"
	"xks/internal/dewey"
	"xks/internal/paperdata"
)

func shredPaper(t *testing.T) *Store {
	t.Helper()
	return Shred(paperdata.Publications(), analysis.New())
}

// assertSameSurface pins the full public query surface of b to a: labels,
// vocabulary, postings, element rows (including synthesized ones), content
// sets, children and statistics.
func assertSameSurface(t *testing.T, a, b *Store) {
	t.Helper()
	if a.NumNodes() != b.NumNodes() || a.NumLabels() != b.NumLabels() || a.NumValues() != b.NumValues() {
		t.Fatalf("size mismatch: nodes %d/%d labels %d/%d values %d/%d",
			a.NumNodes(), b.NumNodes(), a.NumLabels(), b.NumLabels(), a.NumValues(), b.NumValues())
	}
	for i := 0; i < a.NumLabels(); i++ {
		if a.Label(uint32(i)) != b.Label(uint32(i)) {
			t.Fatalf("label %d: %q != %q", i, a.Label(uint32(i)), b.Label(uint32(i)))
		}
	}
	ka, kb := a.Keywords(), b.Keywords()
	if len(ka) != len(kb) {
		t.Fatalf("keyword count %d != %d", len(ka), len(kb))
	}
	for i := range ka {
		if ka[i] != kb[i] {
			t.Fatalf("keyword %d: %q != %q", i, ka[i], kb[i])
		}
		pa, pb := a.Postings(ka[i]), b.Postings(kb[i])
		if len(pa) != len(pb) {
			t.Fatalf("keyword %q: %d vs %d postings", ka[i], len(pa), len(pb))
		}
		for j := range pa {
			if !dewey.Equal(pa[j], pb[j]) {
				t.Fatalf("keyword %q posting %d: %v != %v", ka[i], j, pa[j], pb[j])
			}
		}
	}
	for i := 0; i < a.NumNodes(); i++ {
		ra, oka := a.ElementAt(i)
		rb, okb := b.ElementAt(i)
		if oka != okb {
			t.Fatalf("element %d presence mismatch", i)
		}
		if !dewey.Equal(ra.Dewey, rb.Dewey) || ra.LabelID != rb.LabelID || ra.Level != rb.Level ||
			ra.CIDMin != rb.CIDMin || ra.CIDMax != rb.CIDMax {
			t.Fatalf("element %d: %+v != %+v", i, ra, rb)
		}
		if len(ra.LabelPath) != len(rb.LabelPath) {
			t.Fatalf("element %d label path length %d != %d", i, len(ra.LabelPath), len(rb.LabelPath))
		}
		for j := range ra.LabelPath {
			if ra.LabelPath[j] != rb.LabelPath[j] {
				t.Fatalf("element %d label path %d: %d != %d", i, j, ra.LabelPath[j], rb.LabelPath[j])
			}
		}
		ca, cb := a.ContentAt(i), b.ContentAt(i)
		if len(ca) != len(cb) {
			t.Fatalf("element %d content %v != %v", i, ca, cb)
		}
		for j := range ca {
			if ca[j] != cb[j] {
				t.Fatalf("element %d content word %d: %q != %q", i, j, ca[j], cb[j])
			}
		}
		chA, chB := a.Children(ra.Dewey), b.Children(rb.Dewey)
		if len(chA) != len(chB) {
			t.Fatalf("element %d children %d != %d", i, len(chA), len(chB))
		}
		for j := range chA {
			if !dewey.Equal(chA[j].Dewey, chB[j].Dewey) || chA[j].LabelID != chB[j].LabelID {
				t.Fatalf("element %d child %d mismatch", i, j)
			}
		}
	}
	sa, sb := a.Stats(), b.Stats()
	if sa.Nodes != sb.Nodes || sa.Words != sb.Words || sa.Postings != sb.Postings ||
		sa.MaxPostings != sb.MaxPostings || sa.MaxDepth != sb.MaxDepth {
		t.Fatalf("stats mismatch: %+v != %+v", sa, sb)
	}
}

// TestV3RoundTrip pins a shredded store byte-surface-identical through the
// v3 save/load cycle, and the re-save of the loaded (column-backed) store
// bit-identical to the first save — the writer round-trips lists it never
// decoded.
func TestV3RoundTrip(t *testing.T) {
	s := shredPaper(t)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	first := append([]byte(nil), buf.Bytes()...)
	loaded, err := Load(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.cols == nil {
		t.Fatal("v3 load did not produce a column-backed store")
	}
	if got := loaded.Mode(); got != "v3-heap" {
		t.Fatalf("Mode() = %q, want v3-heap", got)
	}
	assertSameSurface(t, s, loaded)
	var again bytes.Buffer
	if err := loaded.Save(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, again.Bytes()) {
		t.Fatal("column-backed re-save is not bit-identical to the original v3 image")
	}
}

// TestBackwardCompatV1V2 pins that v1 and v2 images still load through the
// restructured reader, present the same surface as the source store — every
// row's content set in lexical order, the contract internal/prune builds on
// — and upgrade cleanly to v3.
func TestBackwardCompatV1V2(t *testing.T) {
	s := shredPaper(t)
	for _, ver := range []uint32{versionV1, versionV2} {
		var buf bytes.Buffer
		if err := s.save(&buf, ver); err != nil {
			t.Fatalf("save v%d: %v", ver, err)
		}
		loaded, err := Load(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("load v%d: %v", ver, err)
		}
		if loaded.cols != nil || loaded.Mode() != "rows" {
			t.Fatalf("v%d load mode %q, want rows", ver, loaded.Mode())
		}
		assertSameSurface(t, s, loaded)
		sets := 0
		for i := 0; i < loaded.NumNodes(); i++ {
			words := loaded.ContentAt(i)
			if !slices.IsSorted(words) {
				t.Fatalf("v%d row %d: content set %q is not sorted", ver, i, words)
			}
			if len(words) > 1 {
				sets++
			}
		}
		if sets == 0 {
			t.Fatalf("v%d: no row has two content words; the check is vacuous", ver)
		}
		// Upgrade: the row-loaded store re-saves as v3 and still matches.
		var up bytes.Buffer
		if err := loaded.Save(&up); err != nil {
			t.Fatalf("upgrade save from v%d: %v", ver, err)
		}
		upgraded, err := Load(bytes.NewReader(up.Bytes()))
		if err != nil {
			t.Fatalf("load upgraded v%d: %v", ver, err)
		}
		assertSameSurface(t, s, upgraded)
	}
}

// TestSaveDowngradeRejected pins that a column-backed store refuses the row
// formats (it has no row tables to write).
func TestSaveDowngradeRejected(t *testing.T) {
	s := shredPaper(t)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, ver := range []uint32{versionV1, versionV2} {
		if err := loaded.save(&bytes.Buffer{}, ver); err == nil {
			t.Fatalf("column-backed save to v%d did not error", ver)
		}
	}
}

// TestOpenFileModes exercises the three open modes against v3 and v2 files:
// mode strings, mapped-byte accounting, the v2-mmap rejection and Close.
func TestOpenFileModes(t *testing.T) {
	s := shredPaper(t)
	dir := t.TempDir()
	v3path := filepath.Join(dir, "v3.xks")
	if err := s.SaveFile(v3path); err != nil {
		t.Fatal(err)
	}
	v2path := filepath.Join(dir, "v2.xks")
	var v2buf bytes.Buffer
	if err := s.save(&v2buf, versionV2); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(v2path, v2buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	heap, err := OpenFile(v3path, OpenOptions{Mode: OpenHeap})
	if err != nil {
		t.Fatal(err)
	}
	if heap.Mode() != "v3-heap" || heap.MappedBytes() != 0 || heap.FileBytes() == 0 {
		t.Fatalf("heap open: mode %q mapped %d file %d", heap.Mode(), heap.MappedBytes(), heap.FileBytes())
	}
	assertSameSurface(t, s, heap)
	if err := heap.Close(); err != nil {
		t.Fatal(err)
	}

	if mmapSupported {
		mapped, err := OpenFile(v3path, OpenOptions{Mode: OpenMmap})
		if err != nil {
			t.Fatal(err)
		}
		if mapped.Mode() != "v3-mmap" || mapped.MappedBytes() != mapped.FileBytes() || mapped.MappedBytes() == 0 {
			t.Fatalf("mmap open: mode %q mapped %d file %d", mapped.Mode(), mapped.MappedBytes(), mapped.FileBytes())
		}
		assertSameSurface(t, s, mapped)
		if err := mapped.Close(); err != nil {
			t.Fatal(err)
		}
		if err := mapped.Close(); err != nil {
			t.Fatal("second Close must be a no-op, got", err)
		}

		auto, err := OpenFile(v3path, OpenOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if auto.Mode() != "v3-mmap" {
			t.Fatalf("auto open mode %q, want v3-mmap", auto.Mode())
		}
		auto.Close()

		if _, err := OpenFile(v2path, OpenOptions{Mode: OpenMmap}); err == nil {
			t.Fatal("mmap open of a v2 file did not error")
		}
	}

	rows, err := OpenFile(v2path, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rows.Mode() != "rows" || rows.FileBytes() == 0 {
		t.Fatalf("v2 open: mode %q file %d", rows.Mode(), rows.FileBytes())
	}
	assertSameSurface(t, s, rows)
}

// TestOpenV3Corruption pins the deterministic failure modes of the section
// reader: truncated sections, corrupt CRCs (header and section), misaligned
// directory offsets and out-of-bounds lengths must all error — never panic,
// never return a store.
func TestOpenV3Corruption(t *testing.T) {
	s := shredPaper(t)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	v3 := buf.Bytes()
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
		if _, err := Load(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: corrupted stream loaded without error", name)
		}
	}
}
