package store

// Format v3 — the only store format.
//
// A v3 file persists the query-time representation directly — the
// nid.Table columns (parent, depth and ordinal a node) and block-compressed
// posting lists (internal/postings) — as aligned, CRC-guarded sections
// behind a section directory:
//
//	offset 0   magic "XKSSTORE"                  (8 bytes)
//	offset 8   version u32 big-endian = 3
//	offset 12  section count u32 little-endian
//	offset 16  directory: 32-byte entries {id u32, crc32 u32, off u64,
//	           len u64, reserved u64}, little-endian
//	then       header crc32 u32 LE over bytes [0, end of directory)
//	then       sections, each starting on an 8-byte boundary, zero-padded
//
// Every section offset is 8-aligned so the fixed-width arrays inside can be
// reinterpreted in place (cast.go) when the file is mmap-ed: opening a v3
// store validates directory bounds, per-section CRCs and the structural
// invariants of each section, but copies no node columns and decodes no
// posting list. All multi-byte values inside sections are little-endian.
//
// Files of other versions (the v1/v2 row streams) are rejected; they are
// re-shredded from their XML with xkshred.
//
// Section payloads (ids secLabels..secNodes below):
//
//	labels     u32 count, then per label {u32 len, bytes}
//	nodes      u32 n, u32 reserved (0), parent i32[n], depth u16[n]
//	           zero-padded to 4 bytes, ordinal u32[n] — the last component
//	           of each node's Dewey code, which nid.Table derives from them
//	labelids   u32[n] — element-table label column, node-ID order
//	terms      u32 count, u32 blobLen, offs u32[count+1], blob bytes
//	           (terms strictly increasing; term i = blob[offs[i]:offs[i+1]])
//	postings   u32 count, u32 reserved, offs u32[count+1], concatenated
//	           postings.AppendEncode blobs (list i = blob[offs[i]:offs[i+1]])
//	nodewords  u32 n, u32 total, wordOff u32[n+1], termIDs u32[total] —
//	           CSR of each node's term IDs, ascending per node
//	text       the terms layout with n rows — node i's own text, raw
//	attrs      the terms layout with n rows — node i's attributes as its
//	           start tag holds them (` name="escaped value"`…)
//
// The nodes section is id 10. Earlier writers stored the node table as
// section 2 instead — u32 n, u32 arenaLen, parent i32[n], depth i32[n],
// off u32[n] and a Dewey arena u32[arenaLen], node i's code being
// arena[off[i]:off[i]+depth[i]+1] — and a file that carries it is converted
// once at open into the three columns, on the heap (deweyNodeColumns);
// Save writes section 10. Readers that predate section 10 refuse a file
// without section 2 ("missing nodes section").
//
// The text and attrs sections (ids 8 and 9) came after the first v3
// writers, which rendered an element skeleton: a file without them opens
// as a document with empty text and no attributes. Files from those
// writers may carry a seventh section, the planner statistics, which
// BuildIndex sums from the nodewords offsets instead. It is not written,
// and on read it is skipped like any unknown section. Older readers, which
// require it, refuse files written without it ("missing stats section").

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"xks/internal/index"
	"xks/internal/nid"
	"xks/internal/postings"
)

const (
	magic     = "XKSSTORE"
	versionV3 = uint32(3)
)

// Section IDs of the v3 directory. Unknown IDs are ignored on open, so
// future versions can add sections without breaking this reader.
const (
	secLabels = uint32(1)
	// 2 was the nodes section of earlier writers, a Dewey arena; it is
	// converted at open (deweyNodeColumns).
	secDeweyNodes = uint32(2)
	secLabelIDs   = uint32(3)
	secTerms      = uint32(4)
	secPostings   = uint32(5)
	secNodeWords  = uint32(6)
	// 7 was the planner statistics of earlier writers; it stays unused.
	secText  = uint32(8)
	secAttrs = uint32(9)
	secNodes = uint32(10)
)

// maxSections bounds the directory a reader will parse; the writer emits 8.
const maxSections = 64

// OpenMode selects how OpenFile backs a store's memory.
type OpenMode int

const (
	// OpenAuto maps the file read-only when the platform supports it,
	// falling back to a single whole-file read into the heap.
	OpenAuto OpenMode = iota
	// OpenMmap requires a memory-mapped file and fails otherwise.
	OpenMmap
	// OpenHeap forces the heap path even when mmap is available.
	OpenHeap
)

// OpenOptions configures OpenFile.
type OpenOptions struct {
	Mode OpenMode
}

// OpenFile opens a v3 store file — mmap-ed read-only under
// OpenAuto/OpenMmap, or loaded with one whole-file read under OpenHeap (and
// on platforms without mmap) — decoding no posting list eagerly. Files of
// any other version are rejected in every mode.
func OpenFile(path string, opts OpenOptions) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	var head [12]byte
	if _, err := f.ReadAt(head[:], 0); err != nil {
		return nil, fmt.Errorf("store: reading header: %w", err)
	}
	if err := checkHeader(head[:]); err != nil {
		return nil, err
	}
	if opts.Mode == OpenMmap && !mmapSupported {
		return nil, fmt.Errorf("store: mmap requested but not supported on this platform")
	}
	if mmapSupported && opts.Mode != OpenHeap {
		data, unmap, err := mmapFile(f, size)
		if err == nil {
			s, err := openV3FromBytes(data)
			if err != nil {
				unmap()
				return nil, err
			}
			s.unmap, s.fileSize = sync.OnceValue(unmap), size
			return s, nil
		}
		if opts.Mode == OpenMmap {
			return nil, fmt.Errorf("store: mmap: %w", err)
		}
		// Auto mode: fall through to the heap path.
	}
	// Portable fallback: one io.ReaderAt pass over the whole file.
	data := make([]byte, size)
	if _, err := io.ReadFull(io.NewSectionReader(f, 0, size), data); err != nil {
		return nil, fmt.Errorf("store: reading file: %w", err)
	}
	s, err := openV3FromBytes(data)
	if err != nil {
		return nil, err
	}
	s.fileSize = size
	return s, nil
}

// checkHeader validates the magic and the format version of a store image.
func checkHeader(head []byte) error {
	if string(head[:8]) != magic {
		return fmt.Errorf("store: bad magic %q", head[:8])
	}
	if v := binary.BigEndian.Uint32(head[8:12]); v != versionV3 {
		return fmt.Errorf("store: format version %d is not readable (only v%d is); re-shred the document from its XML: xkshred -in doc.xml -out doc.xks", v, versionV3)
	}
	return nil
}

// Mode describes how this store is backed: "v3-mmap" (sections in a
// read-only file mapping) or "v3-heap" (columns on the heap, shredded in
// memory or read whole from a file).
func (s *Store) Mode() string {
	if s.unmap != nil {
		return "v3-mmap"
	}
	return "v3-heap"
}

// MappedBytes returns the size of the read-only file mapping backing this
// store, or 0 when it is heap-backed.
func (s *Store) MappedBytes() int64 {
	if s.unmap != nil {
		return s.fileSize
	}
	return 0
}

// FileBytes returns the on-disk size of the file this store was opened
// from, or 0 when it was built in memory.
func (s *Store) FileBytes() int64 { return s.fileSize }

// Close releases the store's file mapping, if any. Every view handed out by
// a mapped store — codes, labels, keywords, posting lists and any index
// built from it — becomes invalid after Close. Heap-backed stores close as
// a no-op. Close is not safe to call concurrently with queries.
func (s *Store) Close() error { return s.unmap.Close() }

// Mapping returns what Close releases, as a Closer of its own (closing
// either unmaps the file once), so an owner can release the mapping
// without keeping the store and the tables it has copied away from.
func (s *Store) Mapping() io.Closer { return s.unmap }

// ---- v3 writer ----------------------------------------------------------

func appendU32LE(dst []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(dst, v)
}

// Save writes the store to w in format v3. The columns are serialized as
// they are: no posting list is decoded, so re-saving an opened store
// reproduces its file bit for bit.
func (s *Store) Save(w io.Writer) error {
	labelsSec := appendU32LE(nil, uint32(len(s.labels)))
	for _, l := range s.labels {
		labelsSec = appendU32LE(labelsSec, uint32(len(l)))
		labelsSec = append(labelsSec, l...)
	}

	parent, depth, ordinal := s.tab.Columns()
	nodesSec := appendU32LE(nil, uint32(s.tab.Len()))
	nodesSec = appendU32LE(nodesSec, 0)
	nodesSec = appendLE(nodesSec, parent)
	nodesSec = appendLE(nodesSec, depth)
	nodesSec = append(nodesSec, make([]byte, len(depth)%2*2)...) // to 4 bytes
	nodesSec = appendLE(nodesSec, ordinal)

	labelIDsSec := appendLE(nil, s.nodeLabels)

	terms := index.Strings{Off: make([]uint32, 1, len(s.terms)+1)}
	for _, t := range s.terms {
		terms.Data = append(terms.Data, t...)
		terms.Off = append(terms.Off, uint32(len(terms.Data)))
	}

	var postBlob []byte
	postOffs := make([]uint32, len(s.lists)+1)
	for i, l := range s.lists {
		postBlob = l.AppendBytes(postBlob)
		postOffs[i+1] = uint32(len(postBlob))
	}
	postSec := appendU32LE(nil, uint32(len(s.lists)))
	postSec = appendU32LE(postSec, 0)
	postSec = appendLE(postSec, postOffs)
	postSec = append(postSec, postBlob...)

	wordsSec := appendU32LE(nil, uint32(len(s.wordOff)-1))
	wordsSec = appendU32LE(wordsSec, uint32(len(s.termIDs)))
	wordsSec = appendLE(wordsSec, s.wordOff)
	wordsSec = appendLE(wordsSec, s.termIDs)

	secs := []struct {
		id   uint32
		data []byte
	}{
		{secLabels, labelsSec},
		{secNodes, nodesSec},
		{secLabelIDs, labelIDsSec},
		{secTerms, appendStrings(nil, terms)},
		{secPostings, postSec},
		{secNodeWords, wordsSec},
		{secText, appendStrings(nil, s.text)},
		{secAttrs, appendStrings(nil, s.attrs)},
	}

	// Header: magic + BE version, LE count, directory, header CRC, padding.
	dirEnd := 16 + 32*len(secs)
	header := make([]byte, 0, dirEnd+4)
	header = append(header, magic...)
	header = binary.BigEndian.AppendUint32(header, versionV3)
	header = appendU32LE(header, uint32(len(secs)))
	pos := uint64(align8(dirEnd + 4))
	for _, sec := range secs {
		header = appendU32LE(header, sec.id)
		header = appendU32LE(header, crc32.ChecksumIEEE(sec.data))
		header = binary.LittleEndian.AppendUint64(header, pos)
		header = binary.LittleEndian.AppendUint64(header, uint64(len(sec.data)))
		header = binary.LittleEndian.AppendUint64(header, 0)
		pos = uint64(align8(int(pos) + len(sec.data)))
	}
	header = appendU32LE(header, crc32.ChecksumIEEE(header[:dirEnd]))

	bw := bufio.NewWriter(w)
	if _, err := bw.Write(header); err != nil {
		return err
	}
	written := len(header)
	var pad [8]byte
	for _, sec := range secs {
		if p := align8(written) - written; p > 0 {
			if _, err := bw.Write(pad[:p]); err != nil {
				return err
			}
			written += p
		}
		if _, err := bw.Write(sec.data); err != nil {
			return err
		}
		written += len(sec.data)
	}
	return bw.Flush()
}

func align8(n int) int { return (n + 7) &^ 7 }

// appendStrings appends the section of column c: the terms, text or attrs.
func appendStrings(dst []byte, c index.Strings) []byte {
	dst = appendU32LE(dst, uint32(len(c.Off)-1))
	dst = appendU32LE(dst, uint32(len(c.Data)))
	dst = appendLE(dst, c.Off)
	return append(dst, c.Data...)
}

// ---- v3 reader ----------------------------------------------------------

// openV3FromBytes validates a v3 image and returns a Store whose views
// alias data. The caller owns data's lifetime (heap buffer or
// file mapping); openV3FromBytes never retains it on error. Validation
// covers everything memory safety relies on — directory bounds, section
// CRCs, column invariants, offset monotonicity, ID ranges — so corrupted
// or adversarial bytes fail with an error, never a panic, and a store that
// opens cleanly can be queried without further bounds anxiety. No posting
// list is decoded.
func openV3FromBytes(data []byte) (*Store, error) {
	if len(data) < 16 {
		return nil, fmt.Errorf("store: v3 file too short: %d bytes", len(data))
	}
	if err := checkHeader(data); err != nil {
		return nil, err
	}
	count := binary.LittleEndian.Uint32(data[12:16])
	if count == 0 || count > maxSections {
		return nil, fmt.Errorf("store: implausible section count %d", count)
	}
	dirEnd := 16 + 32*int(count)
	if dirEnd+4 > len(data) {
		return nil, fmt.Errorf("store: truncated section directory")
	}
	if got := binary.LittleEndian.Uint32(data[dirEnd:]); got != crc32.ChecksumIEEE(data[:dirEnd]) {
		return nil, fmt.Errorf("store: header checksum mismatch")
	}
	secs := make(map[uint32][]byte, count)
	minOff := uint64(align8(dirEnd + 4))
	for i := 0; i < int(count); i++ {
		e := data[16+32*i:]
		id := binary.LittleEndian.Uint32(e)
		crc := binary.LittleEndian.Uint32(e[4:])
		off := binary.LittleEndian.Uint64(e[8:])
		length := binary.LittleEndian.Uint64(e[16:])
		if off%8 != 0 {
			return nil, fmt.Errorf("store: section %d misaligned at offset %d", id, off)
		}
		if off < minOff || off > uint64(len(data)) || length > uint64(len(data))-off {
			return nil, fmt.Errorf("store: section %d out of bounds (off %d, len %d)", id, off, length)
		}
		sec := data[off : off+length]
		if crc32.ChecksumIEEE(sec) != crc {
			return nil, fmt.Errorf("store: section %d checksum mismatch", id)
		}
		if _, dup := secs[id]; dup {
			return nil, fmt.Errorf("store: duplicate section %d", id)
		}
		secs[id] = sec
	}
	need := func(id uint32, name string) ([]byte, error) {
		sec, ok := secs[id]
		if !ok {
			return nil, fmt.Errorf("store: missing %s section", name)
		}
		return sec, nil
	}

	// Labels.
	sec, err := need(secLabels, "labels")
	if err != nil {
		return nil, err
	}
	if len(sec) < 4 {
		return nil, fmt.Errorf("store: truncated labels section")
	}
	nLabels := binary.LittleEndian.Uint32(sec)
	if uint64(nLabels)*4 > uint64(len(sec)) {
		return nil, fmt.Errorf("store: implausible label count %d", nLabels)
	}
	labels := make([]string, 0, nLabels)
	cursor := 4
	for i := uint32(0); i < nLabels; i++ {
		if cursor+4 > len(sec) {
			return nil, fmt.Errorf("store: truncated labels section at label %d", i)
		}
		l := int(binary.LittleEndian.Uint32(sec[cursor:]))
		cursor += 4
		if l < 0 || l > len(sec)-cursor {
			return nil, fmt.Errorf("store: label %d overruns section", i)
		}
		lab := stringView(sec[cursor : cursor+l])
		cursor += l
		labels = append(labels, lab)
	}

	// Nodes → nid.Table: zero-copy columns, or an earlier writer's Dewey
	// arena converted once.
	var tab *nid.Table
	if sec, ok := secs[secNodes]; ok {
		tab, err = nodeColumns(sec)
	} else if sec, ok := secs[secDeweyNodes]; ok {
		tab, err = deweyNodeColumns(sec)
	} else {
		err = fmt.Errorf("store: missing nodes section")
	}
	if err != nil {
		return nil, err
	}
	n := uint32(tab.Len())

	// Per-node label IDs.
	sec, err = need(secLabelIDs, "labelids")
	if err != nil {
		return nil, err
	}
	if uint64(len(sec)) != 4*uint64(n) {
		return nil, fmt.Errorf("store: labelids section length %d, want %d", len(sec), 4*n)
	}
	nodeLabels := view[uint32](sec)
	for i, id := range nodeLabels {
		if id >= nLabels {
			return nil, fmt.Errorf("store: node %d references label %d of %d", i, id, nLabels)
		}
	}

	// Terms.
	sec, err = need(secTerms, "terms")
	if err != nil {
		return nil, err
	}
	var termCol index.Strings
	if termCol.Off, termCol.Data, err = offsets(sec, "terms", 1); err != nil {
		return nil, err
	}
	tcount := uint32(len(termCol.Off) - 1)
	terms := make([]string, tcount)
	for i := range terms {
		if terms[i] = termCol.Row(nid.ID(i)); i > 0 && terms[i] <= terms[i-1] {
			return nil, fmt.Errorf("store: terms not strictly sorted at %d", i)
		}
	}

	// Postings: per-term lazy views; skip tables validated, payloads not.
	sec, err = need(secPostings, "postings")
	if err != nil {
		return nil, err
	}
	if len(sec) < 8 {
		return nil, fmt.Errorf("store: truncated postings section")
	}
	pcount := binary.LittleEndian.Uint32(sec)
	if pcount != tcount {
		return nil, fmt.Errorf("store: %d posting lists for %d terms", pcount, tcount)
	}
	if uint64(len(sec)) < 8+4*(uint64(pcount)+1) {
		return nil, fmt.Errorf("store: truncated postings offsets")
	}
	postOffs := view[uint32](sec[8 : 8+4*(int(pcount)+1)])
	postBlob := sec[8+4*(int(pcount)+1):]
	if postOffs[0] != 0 || uint64(postOffs[pcount]) != uint64(len(postBlob)) {
		return nil, fmt.Errorf("store: postings offsets do not span the blob")
	}
	lists := make([]postings.List, pcount)
	for i := uint32(0); i < pcount; i++ {
		if postOffs[i+1] < postOffs[i] {
			return nil, fmt.Errorf("store: postings offsets decrease at %d", i)
		}
		l, err := postings.FromBytes(postBlob[postOffs[i]:postOffs[i+1]])
		if err != nil {
			return nil, fmt.Errorf("store: posting list %d (%q): %w", i, terms[i], err)
		}
		if l.EncodedLen() != int(postOffs[i+1]-postOffs[i]) {
			return nil, fmt.Errorf("store: posting list %d (%q) has trailing bytes", i, terms[i])
		}
		if l.Len() == 0 {
			// The writer drops postings-less terms, so an empty list marks
			// corruption; rejecting it keeps "every keyword matches
			// something" an invariant of opened stores.
			return nil, fmt.Errorf("store: posting list %d (%q) is empty", i, terms[i])
		}
		lists[i] = l
	}

	// Node→terms CSR.
	sec, err = need(secNodeWords, "nodewords")
	if err != nil {
		return nil, err
	}
	wordOff, ids, err := nodeRows(sec, "nodewords", 4, n)
	if err != nil {
		return nil, err
	}
	termIDs := view[uint32](ids)
	for i, id := range termIDs {
		if id >= tcount {
			return nil, fmt.Errorf("store: nodewords entry %d references term %d of %d", i, id, tcount)
		}
	}

	// Text and attributes: an image without them holds n empty rows each.
	text := index.Strings{Off: make([]uint32, n+1)}
	attrs := text
	for _, c := range []struct {
		id   uint32
		name string
		col  *index.Strings
	}{{secText, "text", &text}, {secAttrs, "attrs", &attrs}} {
		if sec, ok := secs[c.id]; ok {
			if c.col.Off, c.col.Data, err = nodeRows(sec, c.name, 1, n); err != nil {
				return nil, err
			}
		}
	}

	return &Store{
		labels:     labels,
		tab:        tab,
		nodeLabels: nodeLabels,
		terms:      terms,
		lists:      lists,
		wordOff:    wordOff,
		termIDs:    termIDs,
		text:       text,
		attrs:      attrs,
	}, nil
}

// offsets validates sec, laid out as u32 count, u32 total, count+1 u32
// offsets — from 0, never decreasing, to total — and total elements of
// width bytes, and returns the offsets and the elements, zero-copy. The
// elements are capacity-capped, like the offsets (view), so an engine
// appending to a column copies it rather than write into the image.
func offsets(sec []byte, name string, width uint64) ([]uint32, []byte, error) {
	if len(sec) < 8 {
		return nil, nil, fmt.Errorf("store: truncated %s section", name)
	}
	count, total := binary.LittleEndian.Uint32(sec), binary.LittleEndian.Uint32(sec[4:])
	end := 8 + 4*(uint64(count)+1)
	if uint64(len(sec)) != end+width*uint64(total) {
		return nil, nil, fmt.Errorf("store: %s section length %d inconsistent with count=%d total=%d", name, len(sec), count, total)
	}
	off := view[uint32](sec[8:end])
	if off[0] != 0 || off[count] != total {
		return nil, nil, fmt.Errorf("store: %s offsets do not span the section", name)
	}
	for i := range count {
		if off[i+1] < off[i] {
			return nil, nil, fmt.Errorf("store: %s offsets decrease at %d", name, i)
		}
	}
	return off, sec[end:len(sec):len(sec)], nil
}

// nodeRows is offsets for a section of one row a node, of an n-node image.
func nodeRows(sec []byte, name string, width uint64, n uint32) ([]uint32, []byte, error) {
	off, elems, err := offsets(sec, name, width)
	if err == nil && len(off) != int(n)+1 {
		err = fmt.Errorf("store: %s covers %d nodes of %d", name, len(off)-1, n)
	}
	return off, elems, err
}

// nodeColumns views a nodes section as a node table, zero-copy.
func nodeColumns(sec []byte) (*nid.Table, error) {
	if len(sec) < 8 {
		return nil, fmt.Errorf("store: truncated nodes section")
	}
	n := uint64(binary.LittleEndian.Uint32(sec))
	depthAt := 8 + 4*n
	ordinalAt := (depthAt + 2*n + 3) &^ 3
	if uint64(len(sec)) != ordinalAt+4*n {
		return nil, fmt.Errorf("store: nodes section length %d inconsistent with n=%d", len(sec), n)
	}
	tab, err := nid.FromColumns(view[nid.ID](sec[8:depthAt]), view[uint16](sec[depthAt:depthAt+2*n]), view[uint32](sec[ordinalAt:]))
	if err != nil {
		return nil, fmt.Errorf("store: nodes section: %w", err)
	}
	return tab, nil
}

// deweyNodeColumns converts the nodes section of earlier writers — u32 n,
// u32 arenaLen, parent i32[n], depth i32[n], off u32[n], arena
// u32[arenaLen], node i's Dewey code being arena[off[i]:off[i]+depth[i]+1]
// — into a node table on the heap: each node's ordinal is its code's last
// component.
func deweyNodeColumns(sec []byte) (*nid.Table, error) {
	if len(sec) < 8 {
		return nil, fmt.Errorf("store: truncated nodes section")
	}
	n := uint64(binary.LittleEndian.Uint32(sec))
	arenaLen := uint64(binary.LittleEndian.Uint32(sec[4:]))
	if uint64(len(sec)) != 8+12*n+4*arenaLen {
		return nil, fmt.Errorf("store: nodes section length %d inconsistent with n=%d arena=%d", len(sec), n, arenaLen)
	}
	p := sec[8:]
	depth32, off, arena := view[int32](p[4*n:8*n]), view[uint32](p[8*n:12*n]), view[uint32](p[12*n:])
	depth, ordinal := make([]uint16, n), make([]uint32, n)
	for i, d := range depth32 {
		if d < 0 || d > nid.MaxDepth || uint64(off[i])+uint64(d) >= arenaLen {
			return nil, fmt.Errorf("store: nodes section: node %d at depth %d has no code in the arena", i, d)
		}
		depth[i], ordinal[i] = uint16(d), arena[off[i]+uint32(d)]
	}
	tab, err := nid.FromColumns(view[nid.ID](p[:4*n]), depth, ordinal)
	if err != nil {
		return nil, fmt.Errorf("store: nodes section: %w", err)
	}
	return tab, nil
}
