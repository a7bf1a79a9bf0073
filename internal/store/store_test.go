package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"xks/internal/analysis"
	"xks/internal/dewey"
	"xks/internal/index"
	"xks/internal/nid"
	"xks/internal/paperdata"
	"xks/internal/reference"
)

func pubStore() *Store {
	return Shred(paperdata.Publications(), analysis.New())
}

// saveBytes returns the v3 image Save writes for s.
func saveBytes(t testing.TB, s *Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestShredCounts(t *testing.T) {
	s := pubStore()
	tree := paperdata.Publications()
	if s.NumNodes() != tree.Size() {
		t.Errorf("NumNodes = %d, want %d", s.NumNodes(), tree.Size())
	}
	if s.NumLabels() != len(tree.LabelHistogram()) {
		t.Errorf("NumLabels = %d, want %d", s.NumLabels(), len(tree.LabelHistogram()))
	}
	if s.NumValues() == 0 {
		t.Error("no value rows")
	}
}

func TestPostingsMatchIndex(t *testing.T) {
	s := pubStore()
	ix := index.Build(paperdata.Publications(), analysis.New())
	fromStore := s.BuildIndex()
	for _, w := range ix.Words() {
		_, want, errIx := reference.KeywordSets(ix, w)
		_, got, errStore := reference.KeywordSets(fromStore, w)
		if errIx != nil || errStore != nil {
			t.Fatalf("postings(%q): index %v, store %v", w, errIx, errStore)
		}
		if !slices.EqualFunc(want[0], got[0], dewey.Equal) {
			t.Fatalf("postings(%q): store %v vs index %v", w, got[0], want[0])
		}
	}
	if fromStore.LookupIDs("zebra") != nil {
		t.Error("postings for absent keyword should be nil")
	}
}

// TestElementLookup resolves one element row by Dewey code: its label,
// level, label number sequence (through the node table's parent links) and
// content feature.
func TestElementLookup(t *testing.T) {
	s := pubStore()
	id, ok := s.tab.Find(dewey.MustParse("0.2.0.1"))
	if !ok {
		t.Fatal("element 0.2.0.1 missing")
	}
	if got := s.LabelAt(int(id)); got != "title" {
		t.Errorf("label = %q", got)
	}
	if d := s.tab.Depth(id); d != 3 {
		t.Errorf("level = %d", d)
	}
	// Label path: Publications → Articles → article → title.
	wantPath := []string{"Publications", "Articles", "article", "title"}
	var gotPath []string
	for a := id; a != nid.None; a = s.tab.Parent(a) {
		gotPath = append([]string{s.LabelAt(int(a))}, gotPath...)
	}
	if !reflect.DeepEqual(gotPath, wantPath) {
		t.Errorf("label path = %v, want %v", gotPath, wantPath)
	}
	if words := s.ContentAt(int(id)); len(words) == 0 || !slices.IsSorted(words) {
		t.Errorf("content set = %q, want a non-empty sorted set", words)
	}
	if _, ok := s.tab.Find(dewey.MustParse("9.9")); ok {
		t.Error("absent element found")
	}
	if id, ok := s.tab.Find(dewey.MustParse("0.2")); !ok || s.LabelAt(int(id)) != "Articles" {
		t.Errorf("label of 0.2 = %q", s.LabelAt(int(id)))
	}
	if s.LabelAt(-1) != "" || s.LabelAt(s.NumNodes()) != "" {
		t.Error("LabelAt out of range should be empty")
	}
}

func TestLabelHelpers(t *testing.T) {
	s := pubStore()
	// Every node's label resolves through the label table, and every label
	// of the table is some node's.
	used := map[string]bool{}
	for i := range s.NumNodes() {
		l := s.LabelAt(i)
		if l == "" {
			t.Fatalf("node %d has no label", i)
		}
		used[l] = true
	}
	if !used["article"] || len(used) != s.NumLabels() {
		t.Errorf("node labels %v, %d in the label table", used, s.NumLabels())
	}
	for id := range s.NumLabels() {
		if !used[s.labels[id]] {
			t.Errorf("label %d (%q) labels no node", id, s.labels[id])
		}
	}
}

func TestKeywordsSorted(t *testing.T) {
	s := pubStore()
	ks := s.Keywords()
	if len(ks) == 0 {
		t.Fatal("no keywords")
	}
	for i := 1; i < len(ks); i++ {
		if ks[i-1] >= ks[i] {
			t.Fatalf("keywords not strictly sorted at %d: %v", i, ks[i-1:i+1])
		}
	}
}

// TestSaveLoadRoundTrip reads a saved image back from memory (the path
// OpenFile's heap mode takes after its one read).
func TestSaveLoadRoundTrip(t *testing.T) {
	s := pubStore()
	back, err := openV3FromBytes(saveBytes(t, s))
	if err != nil {
		t.Fatal(err)
	}
	assertSameSurface(t, s, back)
	if id, ok := back.tab.Find(dewey.MustParse("0.2.0.1")); !ok || back.LabelAt(int(id)) != "title" {
		t.Error("element table corrupted by round trip")
	}
}

func TestSaveLoadFile(t *testing.T) {
	s := pubStore()
	path := filepath.Join(t.TempDir(), "pub.xks")
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := OpenFile(path, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if back.NumNodes() != s.NumNodes() {
		t.Error("file round trip lost nodes")
	}
	if _, err := OpenFile(filepath.Join(t.TempDir(), "absent"), OpenOptions{}); err == nil {
		t.Error("OpenFile on absent path should fail")
	}
}

func TestLoadRejectsCorruption(t *testing.T) {
	data := saveBytes(t, pubStore())
	corrupt := map[string][]byte{
		"empty":     nil,
		"truncated": data[:len(data)-6],
	}
	bad := append([]byte{}, data...)
	bad[0] ^= 0xFF
	corrupt["magic"] = bad
	bad = append([]byte{}, data...)
	bad[len(bad)/2] ^= 0x01 // section checksum mismatch
	corrupt["payload"] = bad
	bad = append([]byte{}, data...)
	bad[len(magic)+3] = 99
	corrupt["version"] = bad
	for name, b := range corrupt {
		if _, err := openV3FromBytes(b); err == nil {
			t.Errorf("%s: corrupted image accepted", name)
		}
	}
}

func TestBuildIndexFromStoreSearchesEqually(t *testing.T) {
	s := pubStore()
	an := analysis.New()
	fromStore := s.BuildIndex()
	fromTree := index.Build(paperdata.Publications(), an)
	_, setsA, errA := reference.KeywordSets(fromStore, paperdata.Q3)
	_, setsB, errB := reference.KeywordSets(fromTree, paperdata.Q3)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	for i := range setsA {
		if len(setsA[i]) != len(setsB[i]) {
			t.Fatalf("set %d sizes differ", i)
		}
		for j := range setsA[i] {
			if !dewey.Equal(setsA[i][j], setsB[i][j]) {
				t.Fatalf("set %d posting %d differs", i, j)
			}
		}
	}
}

func TestShredNilAnalyzer(t *testing.T) {
	s := Shred(paperdata.Team(), nil)
	if got := len(s.BuildIndex().LookupIDs("gassol")); got != 1 {
		t.Errorf("postings(gassol) = %d", got)
	}
}

func BenchmarkShred(b *testing.B) {
	tree := paperdata.Publications()
	an := analysis.New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Shred(tree, an)
	}
}

func BenchmarkSaveLoad(b *testing.B) {
	data := saveBytes(b, pubStore())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := openV3FromBytes(data); err != nil {
			b.Fatal(err)
		}
	}
}

// TestChildren reads a node's children off the element table: the nodes
// one level below it in its pre-order subtree, in document order.
func TestChildren(t *testing.T) {
	s := pubStore()
	children := func(code string) []string {
		id, ok := s.tab.Find(dewey.MustParse(code))
		if !ok {
			return nil
		}
		var out []string
		for c := id + 1; c < s.tab.SubtreeEnd(id); c++ {
			if s.tab.Parent(c) == id {
				out = append(out, s.LabelAt(int(c)))
			}
		}
		return out
	}
	if got, want := children("0"), []string{"title", "year", "Articles"}; !reflect.DeepEqual(got, want) {
		t.Errorf("root children = %v, want %v", got, want)
	}
	if got, want := children("0.2"), []string{"article", "article"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Articles children = %v, want %v", got, want)
	}
	if got := children("0.0"); len(got) != 0 {
		t.Errorf("leaf children = %v", got)
	}
	if got := children("9.9"); len(got) != 0 {
		t.Errorf("absent node children = %v", got)
	}
}

// TestContentOf resolves a node's content set by Dewey code.
func TestContentOf(t *testing.T) {
	s := pubStore()
	id, ok := s.tab.Find(dewey.MustParse("0.0"))
	if !ok {
		t.Fatal("node 0.0 missing")
	}
	if words := s.ContentAt(int(id)); !reflect.DeepEqual(words, []string{"title", "vldb"}) {
		t.Errorf("ContentAt(0.0) = %v", words)
	}
	if got := s.ContentAt(s.NumNodes()); got != nil {
		t.Errorf("ContentAt out of range = %v", got)
	}
	// The lazily resolved word table is stable across calls.
	if again := s.ContentAt(int(id)); len(again) != 2 {
		t.Errorf("second ContentAt = %v", again)
	}
}

// failWriter errors after n bytes, exercising every Save error branch.
type failWriter struct {
	n     int
	limit int
}

func (f *failWriter) Write(p []byte) (int, error) {
	if f.n+len(p) > f.limit {
		allowed := f.limit - f.n
		if allowed < 0 {
			allowed = 0
		}
		f.n += allowed
		return allowed, errFull
	}
	f.n += len(p)
	return len(p), nil
}

var errFull = bytes.ErrTooLarge

func TestSaveWriterFailuresAtEveryOffset(t *testing.T) {
	s := pubStore()
	full := len(saveBytes(t, s))
	// Failing at a sample of offsets across the file must always surface an
	// error, never a silent truncation.
	for _, limit := range []int{0, 4, len(magic), len(magic) + 2, full / 4, full / 2, full - 5} {
		if err := s.Save(&failWriter{limit: limit}); err == nil {
			t.Errorf("Save with writer failing at %d bytes reported success", limit)
		}
	}
}

func TestSaveFileUnwritablePath(t *testing.T) {
	s := pubStore()
	if err := s.SaveFile(filepath.Join(t.TempDir(), "missing-dir", "x.xks")); err == nil {
		t.Error("SaveFile into missing directory should fail")
	}
}

// TestLoadOversizedFieldsRejected pins that counts claiming more than their
// section holds fail the open, even with every checksum recomputed to match.
func TestLoadOversizedFieldsRejected(t *testing.T) {
	data := saveBytes(t, pubStore())
	// patch overwrites a u32 at offset at inside section id, little-endian
	// unless big, then recomputes the section and header checksums.
	patch := func(id uint32, at int, v uint32, big bool) []byte {
		c := append([]byte(nil), data...)
		dirEnd := 16 + 32*int(binary.LittleEndian.Uint32(c[12:16]))
		for e := 16; e < dirEnd; e += 32 {
			if binary.LittleEndian.Uint32(c[e:]) != id {
				continue
			}
			off := binary.LittleEndian.Uint64(c[e+8:])
			sec := c[off : off+binary.LittleEndian.Uint64(c[e+16:])]
			if big {
				binary.BigEndian.PutUint32(sec[at:], v)
			} else {
				binary.LittleEndian.PutUint32(sec[at:], v)
			}
			binary.LittleEndian.PutUint32(c[e+4:], crc32.ChecksumIEEE(sec))
		}
		binary.LittleEndian.PutUint32(c[dirEnd:], crc32.ChecksumIEEE(c[:dirEnd]))
		return c
	}
	cases := map[string][]byte{
		"label count":  patch(secLabels, 0, 1<<30, false),
		"label length": patch(secLabels, 4, 1<<30, false),
		"node count":   patch(secNodes, 0, 1<<30, false),
		"term count":   patch(secTerms, 0, 1<<30, false),
	}
	for name, c := range cases {
		if _, err := openV3FromBytes(c); err == nil {
			t.Errorf("%s: oversized field accepted", name)
		}
	}
}

// TestLabelColumnAccessors: the label column Columns returns is the label
// column and table LabelAt reads, for a shredded store and one read back
// from its image.
func TestLabelColumnAccessors(t *testing.T) {
	shredded := pubStore()
	read, err := openV3FromBytes(saveBytes(t, shredded))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Store{shredded, read} {
		labels, _, _, _ := s.Columns()
		ids, names := labels.IDs, labels.Names
		if len(ids) != s.NumNodes() || len(names) != s.NumLabels() {
			t.Fatalf("%d label IDs for %d nodes, %d names for %d labels", len(ids), s.NumNodes(), len(names), s.NumLabels())
		}
		for i, id := range ids {
			if names[id] != s.LabelAt(i) {
				t.Fatalf("node %d: column says %q, LabelAt %q", i, names[id], s.LabelAt(i))
			}
		}
	}
}
