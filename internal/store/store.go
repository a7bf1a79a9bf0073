// Package store is the shredded-document storage layer: the embedded
// substitute for the PostgreSQL 8.2 instance of §5.2 of the paper.
//
// The paper shreds each XML document into three tables:
//
//	label   (label, ID)                                   — distinct labels
//	element (label, dewey, level, label number sequence,
//	         content feature)                             — one row per node
//	value   (label, dewey, attribute, keyword)            — keyword postings
//
// Store reproduces those tables as sorted in-memory columns with a binary
// on-disk format (magic header, version, CRC32-guarded sections) written
// and read with encoding/binary. Keyword lookups — the only query shape the
// algorithms issue — run off the value table's sorted keyword index exactly
// like the paper's SQL SELECTs, and the element table serves label /
// label-path / content-feature lookups by Dewey code.
package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sort"
	"sync"

	"xks/internal/analysis"
	"xks/internal/dewey"
	"xks/internal/index"
	"xks/internal/nid"
	"xks/internal/planner"
	"xks/internal/xmltree"
)

// ElementRow is one row of the element table.
type ElementRow struct {
	Dewey dewey.Code
	// LabelID indexes the label table.
	LabelID uint32
	// Level is the node depth (root = 0).
	Level uint16
	// LabelPath holds the label IDs from the root to the node — the
	// paper's "label number sequence", used to resolve ancestor labels
	// without the original document.
	LabelPath []uint32
	// CIDMin and CIDMax form the node's content feature.
	CIDMin, CIDMax string
}

// ValueRow is one row of the value table: one keyword occurrence.
type ValueRow struct {
	Keyword string
	Dewey   dewey.Code
	LabelID uint32
}

// Store holds the three shredded tables.
type Store struct {
	labels   []string          // ID → label
	labelIDs map[string]uint32 // label → ID
	elements []ElementRow      // sorted by Dewey pre-order
	values   []ValueRow        // sorted by (Keyword, Dewey)
	numNodes int

	// nodeWords/wordOff materialize the inverse view of the value table
	// lazily: words grouped per element row, so ContentAt(row) is a
	// zero-copy sub-slice. wordOff[i]..wordOff[i+1] bounds row i's words.
	nodeWordsOnce sync.Once
	nodeWords     []string
	wordOff       []int32

	// stats caches the planner statistics: restored from a v2 file on Load
	// (so opening a store plans without a rescan), computed lazily from the
	// tables otherwise. Guarded by statsOnce.
	statsOnce sync.Once
	stats     planner.Stats
	statsSet  bool

	// cols is non-nil for column-backed stores opened from a v3 file; its
	// slices (and labels above) are zero-copy views into data, which is
	// either a read-only file mapping (mapped, released by closer) or a
	// heap buffer holding one whole-file read. Row-backed stores leave all
	// four zero.
	cols     *v3cols
	data     []byte
	closer   func() error
	mapped   bool
	fileSize int64
}

// Shred builds the three tables from a document, analyzing content with the
// given analyzer (nil for the default).
func Shred(t *xmltree.Tree, an *analysis.Analyzer) *Store {
	if an == nil {
		an = analysis.New()
	}
	s := &Store{labelIDs: map[string]uint32{}}
	var path []uint32
	var walk func(n *xmltree.Node)
	walk = func(n *xmltree.Node) {
		id := s.internLabel(n.Label)
		path = append(path, id)
		words := an.ContentSet(n.ContentPieces()...)
		row := ElementRow{
			Dewey:     n.Code,
			LabelID:   id,
			Level:     uint16(n.Level()),
			LabelPath: append([]uint32(nil), path...),
		}
		if len(words) > 0 {
			// ContentSet returns a sorted set: its ends are the cID.
			row.CIDMin, row.CIDMax = words[0], words[len(words)-1]
		}
		for _, w := range words {
			s.values = append(s.values, ValueRow{Keyword: w, Dewey: n.Code, LabelID: id})
		}
		s.elements = append(s.elements, row)
		s.numNodes++
		for _, c := range n.Children {
			walk(c)
		}
		path = path[:len(path)-1]
	}
	if t.Root != nil {
		walk(t.Root)
	}
	sort.Slice(s.values, func(i, j int) bool {
		if s.values[i].Keyword != s.values[j].Keyword {
			return s.values[i].Keyword < s.values[j].Keyword
		}
		return dewey.Compare(s.values[i].Dewey, s.values[j].Dewey) < 0
	})
	return s
}

func (s *Store) internLabel(l string) uint32 {
	if id, ok := s.labelIDs[l]; ok {
		return id
	}
	id := uint32(len(s.labels))
	s.labels = append(s.labels, l)
	s.labelIDs[l] = id
	return id
}

// NumNodes returns the number of element rows.
func (s *Store) NumNodes() int { return s.numNodes }

// NumLabels returns the number of distinct labels.
func (s *Store) NumLabels() int { return len(s.labels) }

// NumValues returns the number of keyword-occurrence rows.
func (s *Store) NumValues() int {
	if s.cols != nil {
		return len(s.cols.termIDs)
	}
	return len(s.values)
}

// Label resolves a label ID, or "" when out of range.
func (s *Store) Label(id uint32) string {
	if int(id) >= len(s.labels) {
		return ""
	}
	return s.labels[id]
}

// LabelID resolves a label to its ID.
func (s *Store) LabelID(label string) (uint32, bool) {
	id, ok := s.labelIDs[label]
	return id, ok
}

// Postings returns the pre-order-sorted Dewey codes of the nodes containing
// the keyword — the SQL "SELECT dewey FROM value WHERE keyword = ?" of the
// paper's getKeywordNodes.
func (s *Store) Postings(keyword string) []dewey.Code {
	if c := s.cols; c != nil {
		t, ok := c.findTerm(keyword)
		if !ok {
			return nil
		}
		ids, err := c.lists[t].Decode()
		if err != nil {
			return nil // unreachable behind the section CRCs
		}
		out := make([]dewey.Code, len(ids))
		for i, id := range ids {
			out[i] = c.tab.Code(id)
		}
		return out
	}
	lo := sort.Search(len(s.values), func(i int) bool { return s.values[i].Keyword >= keyword })
	var out []dewey.Code
	for i := lo; i < len(s.values) && s.values[i].Keyword == keyword; i++ {
		out = append(out, s.values[i].Dewey)
	}
	return out
}

// Element returns the element row for a Dewey code. On column-backed
// stores the row is synthesized from the node table and CSR columns.
func (s *Store) Element(c dewey.Code) (ElementRow, bool) {
	i, ok := s.elementIndex(c)
	if !ok {
		return ElementRow{}, false
	}
	if s.cols != nil {
		return s.colsRow(i), true
	}
	return s.elements[i], true
}

// LabelOf resolves a node's label directly from the element table.
func (s *Store) LabelOf(c dewey.Code) string {
	row, ok := s.Element(c)
	if !ok {
		return ""
	}
	return s.Label(row.LabelID)
}

// LabelAt resolves the label of the i-th element row (element rows are in
// pre-order, so the row index doubles as the node ID of the index built by
// BuildIndex). It returns "" when out of range.
func (s *Store) LabelAt(i int) string {
	if c := s.cols; c != nil {
		if i < 0 || i >= len(c.nodeLabels) {
			return ""
		}
		return s.Label(c.nodeLabels[i])
	}
	if i < 0 || i >= len(s.elements) {
		return ""
	}
	return s.Label(s.elements[i].LabelID)
}

// ElementAt returns the i-th element row.
func (s *Store) ElementAt(i int) (ElementRow, bool) {
	if s.cols != nil {
		if i < 0 || i >= s.numNodes {
			return ElementRow{}, false
		}
		return s.colsRow(i), true
	}
	if i < 0 || i >= len(s.elements) {
		return ElementRow{}, false
	}
	return s.elements[i], true
}

// elementIndex locates the element row for a Dewey code.
func (s *Store) elementIndex(c dewey.Code) (int, bool) {
	if s.cols != nil {
		id, ok := s.cols.tab.Find(c)
		return int(id), ok
	}
	i := sort.Search(len(s.elements), func(i int) bool {
		return dewey.Compare(s.elements[i].Dewey, c) >= 0
	})
	if i < len(s.elements) && dewey.Equal(s.elements[i].Dewey, c) {
		return i, true
	}
	return -1, false
}

// Keywords returns the distinct keywords in lexical order.
func (s *Store) Keywords() []string {
	if s.cols != nil {
		return append([]string(nil), s.cols.terms...)
	}
	var out []string
	for i := 0; i < len(s.values); {
		out = append(out, s.values[i].Keyword)
		j := i
		for j < len(s.values) && s.values[j].Keyword == s.values[i].Keyword {
			j++
		}
		i = j
	}
	return out
}

// BuildIndex assembles an inverted index from the value table, so searches
// can run off a loaded store without the original document. The index's
// node table is built from the element table (one node per row, pre-order),
// so its IDs equal element row indices and LabelAt/ContentAt serve label
// and content lookups by ID in constant time.
func (s *Store) BuildIndex(an *analysis.Analyzer) *index.Index {
	if c := s.cols; c != nil {
		// Column-backed: the index shares the store's node table and wraps
		// the compressed lists directly — per-term decode happens lazily on
		// first lookup, so building the index off a v3 open is O(vocabulary).
		ix := index.FromCompressed(c.tab, c.terms, c.lists, s.numNodes, an)
		ix.SetStats(s.Stats())
		return ix
	}
	tab := s.rowTable()
	postings := make(map[string][]nid.ID)
	for _, v := range s.values {
		if id, ok := tab.Find(v.Dewey); ok {
			postings[v.Keyword] = append(postings[v.Keyword], id)
		}
	}
	ix := index.FromIDPostings(tab, postings, s.numNodes, an)
	// Hand the index the store's statistics (persisted in v2+ files) so the
	// planner never rescans posting lists on the load path.
	ix.SetStats(s.Stats())
	return ix
}

// ContentOf returns the content word set of the node — the inverse view of
// the value table, materialized lazily on first use. Words come back in
// lexical order.
func (s *Store) ContentOf(c dewey.Code) []string {
	i, ok := s.elementIndex(c)
	if !ok {
		return nil
	}
	return s.ContentAt(i)
}

// ContentAt returns the content word set of the i-th element row as a
// zero-copy sub-slice of the lazily built per-row word table. Words come
// back in lexical order. Callers must not modify the result.
func (s *Store) ContentAt(i int) []string {
	s.nodeWordsOnce.Do(s.buildNodeWords)
	if i < 0 || i+1 >= len(s.wordOff) {
		return nil
	}
	return s.nodeWords[s.wordOff[i]:s.wordOff[i+1]]
}

func (s *Store) buildNodeWords() {
	if c := s.cols; c != nil {
		// Column-backed: the CSR already groups term IDs per node in
		// lexical order; materialize only the string headers.
		s.wordOff = make([]int32, len(c.wordOff))
		for i, o := range c.wordOff {
			s.wordOff[i] = int32(o)
		}
		s.nodeWords = make([]string, len(c.termIDs))
		for i, t := range c.termIDs {
			s.nodeWords[i] = c.terms[t]
		}
		return
	}
	// Count words per element row, then bucket them: the value table is
	// sorted by (keyword, dewey), so each row's bucket needs a final sort
	// to come out lexical.
	counts := make([]int32, len(s.elements)+1)
	rows := make([]int32, len(s.values))
	for i, v := range s.values {
		r, ok := s.elementIndex(v.Dewey)
		if !ok {
			rows[i] = -1
			continue
		}
		rows[i] = int32(r)
		counts[r+1]++
	}
	s.wordOff = counts
	for i := 1; i < len(s.wordOff); i++ {
		s.wordOff[i] += s.wordOff[i-1]
	}
	s.nodeWords = make([]string, len(s.values))
	fill := make([]int32, len(s.elements))
	for i, v := range s.values {
		r := rows[i]
		if r < 0 {
			continue
		}
		s.nodeWords[s.wordOff[r]+fill[r]] = v.Keyword
		fill[r]++
	}
	for r := 0; r < len(s.elements); r++ {
		bucket := s.nodeWords[s.wordOff[r]:s.wordOff[r+1]]
		sort.Strings(bucket)
	}
}

// statsDepthBuckets caps the persisted depth histogram; deeper postings
// fold into the last bucket (mirroring the index-side collection).
const statsDepthBuckets = 32

// Stats returns the planner statistics of the shredded document: restored
// from a v2 store file when present, computed from the tables otherwise
// (one pass over the value table plus parent lookups over the element
// table). BuildIndex installs them on the index it assembles, so a loaded
// store plans queries without rescanning posting lists.
func (s *Store) Stats() planner.Stats {
	s.statsOnce.Do(func() {
		if !s.statsSet {
			s.stats = s.computeStats()
			s.statsSet = true
		}
	})
	return s.stats
}

func (s *Store) computeStats() planner.Stats {
	st := planner.Stats{Nodes: len(s.elements), Docs: 1}
	var depthSum int64
	var hist [statsDepthBuckets]int64
	maxBucket := 0
	// The value table is sorted by (keyword, dewey): one pass yields the
	// vocabulary and per-list lengths.
	run := 0
	for i, v := range s.values {
		if i == 0 || v.Keyword != s.values[i-1].Keyword {
			st.Words++
			run = 0
		}
		run++
		if run > st.MaxPostings {
			st.MaxPostings = run
		}
		d := len(v.Dewey) - 1
		if d < 0 {
			d = 0
		}
		depthSum += int64(d)
		if d > st.MaxDepth {
			st.MaxDepth = d
		}
		b := min(d, statsDepthBuckets-1)
		hist[b]++
		if b > maxBucket {
			maxBucket = b
		}
	}
	st.Postings = len(s.values)
	if st.Postings > 0 {
		st.AvgDepth = float64(depthSum) / float64(st.Postings)
		st.DepthHist = append([]int64(nil), hist[:maxBucket+1]...)
	}
	// Fanout from element-table parent lookups (pre-order rows).
	children := 0
	isParent := make([]bool, len(s.elements))
	for _, e := range s.elements {
		if len(e.Dewey) <= 1 {
			continue
		}
		if p, ok := s.elementIndex(e.Dewey[:len(e.Dewey)-1]); ok {
			children++
			isParent[p] = true
		}
	}
	internal := 0
	for _, b := range isParent {
		if b {
			internal++
		}
	}
	if internal > 0 {
		st.AvgFanout = float64(children) / float64(internal)
	}
	return st
}

// Children returns the element rows of the node's children in document
// order, used by store-backed fragment rendering.
func (s *Store) Children(c dewey.Code) []ElementRow {
	if cols := s.cols; cols != nil {
		id, ok := cols.tab.Find(c)
		if !ok {
			return nil
		}
		end := cols.tab.SubtreeEnd(id)
		d := cols.tab.Depth(id)
		var out []ElementRow
		for j := id + 1; j < end; j++ {
			if cols.tab.Depth(j) == d+1 {
				out = append(out, s.colsRow(int(j)))
			}
		}
		return out
	}
	i := sort.Search(len(s.elements), func(i int) bool {
		return dewey.Compare(s.elements[i].Dewey, c) > 0
	})
	var out []ElementRow
	for ; i < len(s.elements); i++ {
		d := s.elements[i].Dewey
		if !c.IsAncestorOf(d) {
			break
		}
		if len(d) == len(c)+1 {
			out = append(out, s.elements[i])
		}
	}
	return out
}

// ---- Binary persistence -------------------------------------------------

const (
	magic = "XKSSTORE"
	// versionV1 is the original format: label, element and value tables.
	versionV1 = uint32(1)
	// versionV2 appends a planner-statistics section after the value
	// table, so OpenStore plans queries without rescanning posting lists.
	// v1 files still load (statistics are then recomputed lazily).
	versionV2 = uint32(2)
	// versionV3 is the disk-native section format (see v3.go): node-table
	// columns and block-compressed postings behind a CRC-guarded section
	// directory, mmap-able read-only. v1/v2 files still load through the
	// row reader.
	versionV3 = uint32(3)
	// version is the format Save writes.
	version = versionV3
)

// Save writes the store to w in the binary table format (current version).
func (s *Store) Save(w io.Writer) error {
	return s.save(w, version)
}

// save writes the store at an explicit format version; the v1/v2 arms exist
// so tests can pin backward compatibility of the reader.
func (s *Store) save(w io.Writer, ver uint32) error {
	if ver == versionV3 {
		return s.saveV3(w)
	}
	if s.cols != nil {
		return fmt.Errorf("store: cannot save a column-backed store as version %d", ver)
	}
	bw := bufio.NewWriter(w)
	cw := &crcWriter{w: bw}
	if _, err := cw.Write([]byte(magic)); err != nil {
		return err
	}
	if err := writeU32(cw, ver); err != nil {
		return err
	}
	// Label table.
	if err := writeU32(cw, uint32(len(s.labels))); err != nil {
		return err
	}
	for _, l := range s.labels {
		if err := writeString(cw, l); err != nil {
			return err
		}
	}
	// Element table.
	if err := writeU32(cw, uint32(len(s.elements))); err != nil {
		return err
	}
	for _, e := range s.elements {
		if err := writeCode(cw, e.Dewey); err != nil {
			return err
		}
		if err := writeU32(cw, e.LabelID); err != nil {
			return err
		}
		if err := writeU32(cw, uint32(e.Level)); err != nil {
			return err
		}
		if err := writeU32(cw, uint32(len(e.LabelPath))); err != nil {
			return err
		}
		for _, id := range e.LabelPath {
			if err := writeU32(cw, id); err != nil {
				return err
			}
		}
		if err := writeString(cw, e.CIDMin); err != nil {
			return err
		}
		if err := writeString(cw, e.CIDMax); err != nil {
			return err
		}
	}
	// Value table.
	if err := writeU32(cw, uint32(len(s.values))); err != nil {
		return err
	}
	for _, v := range s.values {
		if err := writeString(cw, v.Keyword); err != nil {
			return err
		}
		if err := writeCode(cw, v.Dewey); err != nil {
			return err
		}
		if err := writeU32(cw, v.LabelID); err != nil {
			return err
		}
	}
	// Planner-statistics section (v2+).
	if ver >= 2 {
		if err := writeStats(cw, s.Stats()); err != nil {
			return err
		}
	}
	// Trailing checksum over everything written so far.
	if err := binary.Write(bw, binary.BigEndian, cw.sum); err != nil {
		return err
	}
	return bw.Flush()
}

func writeStats(w io.Writer, st planner.Stats) error {
	for _, v := range []uint32{
		uint32(st.Nodes), uint32(st.Words), uint32(st.Postings),
		uint32(st.MaxPostings), uint32(st.MaxDepth), uint32(st.Docs),
	} {
		if err := writeU32(w, v); err != nil {
			return err
		}
	}
	if err := writeU64(w, math.Float64bits(st.AvgDepth)); err != nil {
		return err
	}
	if err := writeU64(w, math.Float64bits(st.AvgFanout)); err != nil {
		return err
	}
	if err := writeU32(w, uint32(len(st.DepthHist))); err != nil {
		return err
	}
	for _, h := range st.DepthHist {
		if err := writeU64(w, uint64(h)); err != nil {
			return err
		}
	}
	return nil
}

func readStats(r io.Reader) (planner.Stats, error) {
	var st planner.Stats
	var u [6]uint32
	for i := range u {
		v, err := readU32(r)
		if err != nil {
			return st, err
		}
		u[i] = v
	}
	st.Nodes, st.Words, st.Postings = int(u[0]), int(u[1]), int(u[2])
	st.MaxPostings, st.MaxDepth, st.Docs = int(u[3]), int(u[4]), int(u[5])
	bits, err := readU64(r)
	if err != nil {
		return st, err
	}
	st.AvgDepth = math.Float64frombits(bits)
	if bits, err = readU64(r); err != nil {
		return st, err
	}
	st.AvgFanout = math.Float64frombits(bits)
	n, err := readU32(r)
	if err != nil {
		return st, err
	}
	if n > 1<<16 {
		return st, fmt.Errorf("store: depth histogram too long: %d", n)
	}
	if n > 0 {
		st.DepthHist = make([]int64, n)
		for i := range st.DepthHist {
			h, err := readU64(r)
			if err != nil {
				return st, err
			}
			st.DepthHist[i] = int64(h)
		}
	}
	return st, nil
}

// SaveFile writes the store to a file.
func (s *Store) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Load reads a store written by Save, verifying magic, version and
// checksums. v3 streams are buffered whole and open column-backed (heap
// mode); v1/v2 streams parse through the row reader. Prefer OpenFile for
// files — it can map v3 sections instead of copying them.
func Load(r io.Reader) (*Store, error) {
	br := bufio.NewReader(r)
	if head, err := br.Peek(12); err == nil && string(head[:8]) == magic &&
		binary.BigEndian.Uint32(head[8:12]) == versionV3 {
		data, err := io.ReadAll(br)
		if err != nil {
			return nil, fmt.Errorf("store: reading v3 stream: %w", err)
		}
		return openV3FromBytes(data)
	}
	cr := &crcReader{r: br}
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(cr, head); err != nil {
		return nil, fmt.Errorf("store: reading magic: %w", err)
	}
	if string(head) != magic {
		return nil, fmt.Errorf("store: bad magic %q", head)
	}
	ver, err := readU32(cr)
	if err != nil {
		return nil, err
	}
	if ver != versionV1 && ver != versionV2 {
		return nil, fmt.Errorf("store: unsupported version %d", ver)
	}
	s := &Store{labelIDs: map[string]uint32{}}
	nLabels, err := readU32(cr)
	if err != nil {
		return nil, err
	}
	for i := uint32(0); i < nLabels; i++ {
		l, err := readString(cr)
		if err != nil {
			return nil, err
		}
		s.labels = append(s.labels, l)
		s.labelIDs[l] = i
	}
	nElems, err := readU32(cr)
	if err != nil {
		return nil, err
	}
	for i := uint32(0); i < nElems; i++ {
		var e ElementRow
		if e.Dewey, err = readCode(cr); err != nil {
			return nil, err
		}
		if e.LabelID, err = readU32(cr); err != nil {
			return nil, err
		}
		lvl, err := readU32(cr)
		if err != nil {
			return nil, err
		}
		e.Level = uint16(lvl)
		nPath, err := readU32(cr)
		if err != nil {
			return nil, err
		}
		if nPath > 1<<16 {
			return nil, fmt.Errorf("store: label path too long: %d", nPath)
		}
		e.LabelPath = make([]uint32, nPath)
		for j := range e.LabelPath {
			if e.LabelPath[j], err = readU32(cr); err != nil {
				return nil, err
			}
		}
		if e.CIDMin, err = readString(cr); err != nil {
			return nil, err
		}
		if e.CIDMax, err = readString(cr); err != nil {
			return nil, err
		}
		s.elements = append(s.elements, e)
	}
	s.numNodes = len(s.elements)
	nVals, err := readU32(cr)
	if err != nil {
		return nil, err
	}
	for i := uint32(0); i < nVals; i++ {
		var v ValueRow
		if v.Keyword, err = readString(cr); err != nil {
			return nil, err
		}
		if v.Dewey, err = readCode(cr); err != nil {
			return nil, err
		}
		if v.LabelID, err = readU32(cr); err != nil {
			return nil, err
		}
		s.values = append(s.values, v)
	}
	if ver >= 2 {
		st, err := readStats(cr)
		if err != nil {
			return nil, err
		}
		s.stats = st
		s.statsSet = true
	}
	want := cr.sum
	var got uint32
	if err := binary.Read(br, binary.BigEndian, &got); err != nil {
		return nil, fmt.Errorf("store: reading checksum: %w", err)
	}
	if got != want {
		return nil, fmt.Errorf("store: checksum mismatch: file %08x, computed %08x", got, want)
	}
	return s, nil
}

// LoadFile opens a store file with default options: v3 files come back
// mmap-backed where the platform allows (heap otherwise), v1/v2 files
// row-backed.
func LoadFile(path string) (*Store, error) {
	return OpenFile(path, OpenOptions{})
}

type crcWriter struct {
	w   io.Writer
	sum uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.sum = crc32.Update(c.sum, crc32.IEEETable, p[:n])
	return n, err
}

type crcReader struct {
	r   io.Reader
	sum uint32
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.sum = crc32.Update(c.sum, crc32.IEEETable, p[:n])
	return n, err
}

func writeU32(w io.Writer, v uint32) error {
	var buf [4]byte
	binary.BigEndian.PutUint32(buf[:], v)
	_, err := w.Write(buf[:])
	return err
}

func readU32(r io.Reader) (uint32, error) {
	var buf [4]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(buf[:]), nil
}

func writeU64(w io.Writer, v uint64) error {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], v)
	_, err := w.Write(buf[:])
	return err
}

func readU64(r io.Reader) (uint64, error) {
	var buf [8]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(buf[:]), nil
}

func writeString(w io.Writer, s string) error {
	if err := writeU32(w, uint32(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

func readString(r io.Reader) (string, error) {
	n, err := readU32(r)
	if err != nil {
		return "", err
	}
	if n > 1<<24 {
		return "", fmt.Errorf("store: string too long: %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

func writeCode(w io.Writer, c dewey.Code) error {
	if err := writeU32(w, uint32(len(c))); err != nil {
		return err
	}
	for _, v := range c {
		if err := writeU32(w, v); err != nil {
			return err
		}
	}
	return nil
}

func readCode(r io.Reader) (dewey.Code, error) {
	n, err := readU32(r)
	if err != nil {
		return nil, err
	}
	if n > 1<<16 {
		return nil, fmt.Errorf("store: dewey code too long: %d", n)
	}
	c := make(dewey.Code, n)
	for i := range c {
		if c[i], err = readU32(r); err != nil {
			return nil, err
		}
	}
	return c, nil
}
