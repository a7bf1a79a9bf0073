// Package postings implements the on-disk posting-list representation of
// the store's v3 format: delta+varint block compression with a per-block
// skip table, decoded lazily per term.
//
// A posting list is a strictly increasing sequence of node IDs
// (internal/nid). AppendEncode splits it into blocks of BlockSize IDs; each
// block stores its values as uvarint deltas from the previous value (the
// previous block's last ID at a block boundary, -1 before the very first
// value, so every delta is >= 1). A fixed-width skip table in front of the
// data — one {last ID, byte offset} pair per block — lets an Iterator jump to
// the first block that can contain a target ID without touching the bytes
// in between, which is what lets an Iterator seek on compressed lists.
//
// A List is a zero-copy view over the encoded bytes (typically a sub-slice
// of an mmap-ed store section): constructing one validates only the O(1)
// header and the O(blocks) skip table, never the varint payload, so opening
// a store with a million-term vocabulary decodes nothing. Decoding — full
// (Decode) or streaming (Iterator) — is bounds-checked and returns errors
// on malformed payloads instead of panicking; the store's section CRCs make
// such payloads unreachable through the normal open path.
package postings

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sort"

	"xks/internal/nid"
)

// BlockSize is the number of IDs per compressed block. 128 keeps a block's
// decoded form inside two cache lines of int32s while making the skip table
// (8 bytes per block) a ~1.6% overhead on incompressible lists.
const BlockSize = 128

// headerSize is the fixed prefix of an encoded list: u32 count, u32 dataLen.
const headerSize = 8

// skipEntrySize is the fixed width of one skip-table entry: u32 last ID,
// u32 byte offset of the block's varint data relative to the data area.
const skipEntrySize = 8

// maxCount caps the decoded length FromBytes accepts, so a corrupted count
// field cannot drive huge allocations downstream. IDs are int32, so no
// valid list exceeds it anyway.
const maxCount = math.MaxInt32

// List is a read-only, zero-copy view of one encoded posting list (header,
// skip table, varint area). The zero List is valid and empty. Lists index
// into the caller's byte slice (for store-backed lists, the mapped postings
// section), so they stay valid only as long as that backing memory does.
type List struct {
	b []byte
}

// numBlocks returns the block count for n IDs.
func numBlocks(n int) int { return (n + BlockSize - 1) / BlockSize }

// AppendEncode appends the encoded form of ids to dst and returns the
// extended slice. ids must be strictly increasing and non-negative; it
// panics otherwise (encoding runs at store-write time, where a mis-sorted
// list is a builder bug, not an input error).
func AppendEncode(dst []byte, ids []nid.ID) []byte {
	n := len(ids)
	nb := numBlocks(n)
	head := len(dst)
	var fixed [headerSize]byte
	binary.LittleEndian.PutUint32(fixed[0:], uint32(n))
	// dataLen is back-patched once the varint area is written.
	dst = append(dst, fixed[:]...)
	skipStart := len(dst)
	dst = append(dst, make([]byte, nb*skipEntrySize)...)
	dataStart := len(dst)
	prev := int64(-1)
	for b := 0; b < nb; b++ {
		lo, hi := b*BlockSize, min((b+1)*BlockSize, n)
		entry := dst[skipStart+b*skipEntrySize:]
		binary.LittleEndian.PutUint32(entry[0:], uint32(ids[hi-1]))
		binary.LittleEndian.PutUint32(entry[4:], uint32(len(dst)-dataStart))
		for _, id := range ids[lo:hi] {
			if int64(id) <= prev {
				panic(fmt.Sprintf("postings: AppendEncode called with non-increasing ID %d after %d", id, prev))
			}
			dst = binary.AppendUvarint(dst, uint64(int64(id)-prev))
			prev = int64(id)
		}
	}
	binary.LittleEndian.PutUint32(dst[head+4:], uint32(len(dst)-dataStart))
	return dst
}

// EncodeAll encodes lists, in order, into one blob sized exactly from the
// lists' uvarint widths, and returns each list's view of it.
func EncodeAll(lists [][]nid.ID) []List {
	size := 0
	for _, ids := range lists {
		size += headerSize + numBlocks(len(ids))*skipEntrySize
		prev := int64(-1)
		for _, id := range ids {
			size += (bits.Len64(uint64(int64(id)-prev)) + 6) / 7
			prev = int64(id)
		}
	}
	blob := make([]byte, 0, size)
	out := make([]List, len(lists))
	for i, ids := range lists {
		at := len(blob)
		blob = AppendEncode(blob, ids)
		out[i], _ = FromBytes(blob[at:]) // cannot fail on AppendEncode's output
	}
	return out
}

// EncodedLen returns the number of bytes the encoded form of a List
// occupies, so callers slicing a concatenated blob can recover section
// boundaries.
func (l List) EncodedLen() int { return len(l.b) }

// AppendBytes appends the list's encoded form (header, skip table, varint
// data) to dst and returns the extended slice — the store's re-save path,
// which must round-trip lists it never decoded.
func (l List) AppendBytes(dst []byte) []byte { return append(dst, l.b...) }

// FromBytes validates the header and skip table of an encoded list and
// returns the zero-copy view. b must hold at least the encoded bytes;
// trailing bytes are ignored (the store's postings section stores explicit
// per-term offsets, so exact slices are the normal case). The varint
// payload is not validated here — that is the per-term lazy decode's job —
// but the skip table is checked enough that Iterator block jumps can never
// index out of bounds.
func FromBytes(b []byte) (List, error) {
	if len(b) < headerSize {
		return List{}, fmt.Errorf("postings: truncated header: %d bytes", len(b))
	}
	count := binary.LittleEndian.Uint32(b[0:])
	dataLen := binary.LittleEndian.Uint32(b[4:])
	if count > maxCount {
		return List{}, fmt.Errorf("postings: count %d exceeds maximum", count)
	}
	nb := numBlocks(int(count))
	need := headerSize + nb*skipEntrySize + int(dataLen)
	if need < 0 || len(b) < need {
		return List{}, fmt.Errorf("postings: truncated list: %d bytes, need %d", len(b), need)
	}
	l := List{b: b[:need]}
	if count == 0 {
		if dataLen != 0 {
			return List{}, fmt.Errorf("postings: empty list with %d data bytes", dataLen)
		}
		return l, nil
	}
	// Skip-table invariants: block offsets start at 0, strictly increase
	// (every block holds at least one varint byte) and stay inside the data
	// area; last IDs strictly increase and fit in an int32.
	prevLast, prevOff := int64(-1), -1
	for i := 0; i < nb; i++ {
		last, off := l.skipEntry(i)
		if int64(last) <= prevLast || last > math.MaxInt32 {
			return List{}, fmt.Errorf("postings: skip table last IDs not increasing at block %d", i)
		}
		if i == 0 && off != 0 {
			return List{}, fmt.Errorf("postings: first block offset %d, want 0", off)
		}
		if (i > 0 && off <= prevOff) || off >= int(dataLen) {
			return List{}, fmt.Errorf("postings: skip table offsets not increasing at block %d", i)
		}
		prevLast, prevOff = int64(last), off
	}
	return l, nil
}

// skipEntry returns block b's last ID and data offset from the skip table.
func (l List) skipEntry(b int) (last uint32, off int) {
	e := l.b[headerSize+b*skipEntrySize:]
	return binary.LittleEndian.Uint32(e[0:]), int(binary.LittleEndian.Uint32(e[4:]))
}

// Len returns the number of IDs in the list without decoding anything —
// the term-frequency read the planner and scorer issue per query.
func (l List) Len() int {
	if len(l.b) == 0 {
		return 0
	}
	return int(binary.LittleEndian.Uint32(l.b))
}

// Blocks returns the number of compressed blocks.
func (l List) Blocks() int { return numBlocks(l.Len()) }

// data returns the list's varint area.
func (l List) data() []byte { return l.b[headerSize+l.Blocks()*skipEntrySize:] }

// blockBounds returns the byte range of block b inside the data area and
// the number of IDs it holds.
func (l List) blockBounds(b int) (lo, hi, n int) {
	_, lo = l.skipEntry(b)
	hi = len(l.data())
	if b+1 < l.Blocks() {
		_, hi = l.skipEntry(b + 1)
	}
	n = BlockSize
	if b == l.Blocks()-1 {
		n = l.Len() - b*BlockSize
	}
	return lo, hi, n
}

// blockBase returns the value preceding block b's first delta: the previous
// block's last ID, or -1 for the first block.
func (l List) blockBase(b int) int64 {
	if b == 0 {
		return -1
	}
	last, _ := l.skipEntry(b - 1)
	return int64(last)
}

// decodeBlock decodes block b into buf (len >= BlockSize), returning the
// number of IDs decoded. Malformed varints (overrun, overflow, zero delta)
// and a last ID other than the skip table's fail with an error, never a
// panic.
func (l List) decodeBlock(b int, buf []nid.ID) (int, error) {
	lo, hi, n := l.blockBounds(b)
	data := l.data()[lo:hi]
	prev := l.blockBase(b)
	pos := 0
	for i := 0; i < n; i++ {
		delta, w := binary.Uvarint(data[pos:])
		if w <= 0 || delta == 0 || delta > math.MaxInt32+1 {
			return 0, fmt.Errorf("postings: malformed varint in block %d", b)
		}
		prev += int64(delta)
		if prev > math.MaxInt32 {
			return 0, fmt.Errorf("postings: ID overflow in block %d", b)
		}
		buf[i] = nid.ID(prev)
		pos += w
	}
	// The next block's deltas start from this entry, and SeekGE trusts it
	// to bound the block: a payload that disagrees with it is malformed.
	if last, _ := l.skipEntry(b); prev != int64(last) {
		return 0, fmt.Errorf("postings: block %d ends at ID %d, skip table says %d", b, prev, last)
	}
	return n, nil
}

// AppendDecode appends every ID of the list to dst and returns the extended
// slice — the full per-term decode the index caches on first lookup.
func (l List) AppendDecode(dst []nid.ID) ([]nid.ID, error) {
	var buf [BlockSize]nid.ID
	for b := 0; b < l.Blocks(); b++ {
		n, err := l.decodeBlock(b, buf[:])
		if err != nil {
			return dst, err
		}
		dst = append(dst, buf[:n]...)
	}
	return dst, nil
}

// Decode returns the fully decoded list.
func (l List) Decode() ([]nid.ID, error) {
	return l.AppendDecode(make([]nid.ID, 0, l.Len()))
}

// Iterator streams a List in increasing ID order, decoding one block at a
// time, with skip-table-driven SeekGE. The zero Iterator is invalid; obtain
// one from List.Iterator.
type Iterator struct {
	l      List
	block  int // next block to decode
	buf    [BlockSize]nid.ID
	bufLen int
	bufPos int
	err    error
}

// Iterator returns a fresh iterator positioned before the first ID.
func (l List) Iterator() *Iterator {
	return &Iterator{l: l}
}

// Err returns the decode error that ended iteration early, if any. A
// drained healthy iterator returns nil.
func (it *Iterator) Err() error { return it.err }

// fill decodes the next block into the buffer; false at end of list or on
// a decode error (recorded in Err).
func (it *Iterator) fill() bool {
	if it.err != nil || it.block >= it.l.Blocks() {
		return false
	}
	n, err := it.l.decodeBlock(it.block, it.buf[:])
	if err != nil {
		it.err = err
		return false
	}
	it.block++
	it.bufLen, it.bufPos = n, 0
	return true
}

// Next consumes and returns the next ID; ok is false when the list is
// exhausted (or the payload is malformed — see Err).
func (it *Iterator) Next() (nid.ID, bool) {
	if it.bufPos >= it.bufLen && !it.fill() {
		return 0, false
	}
	v := it.buf[it.bufPos]
	it.bufPos++
	return v, true
}

// SeekGE discards every remaining ID below target, then consumes and
// returns the first remaining ID >= target — "advance past everything
// smaller, hand me the head" — jumping over whole blocks via the skip
// table. ok is false when no such ID remains.
func (it *Iterator) SeekGE(target nid.ID) (nid.ID, bool) {
	// Inside the buffered block: binary search the tail.
	if it.bufPos < it.bufLen && it.buf[it.bufLen-1] >= target {
		tail := it.buf[it.bufPos:it.bufLen]
		i := sort.Search(len(tail), func(j int) bool { return tail[j] >= target })
		it.bufPos += i + 1
		return tail[i], true
	}
	if it.bufPos < it.bufLen {
		it.bufPos = it.bufLen // whole buffered block is below target
	}
	// Jump to the first not-yet-decoded block whose last ID reaches target.
	nb := it.l.Blocks()
	b := it.block + sort.Search(nb-it.block, func(j int) bool {
		last, _ := it.l.skipEntry(it.block + j)
		return nid.ID(last) >= target
	})
	if b >= nb {
		it.block = nb
		return 0, false
	}
	it.block = b
	if !it.fill() {
		return 0, false
	}
	i := sort.Search(it.bufLen, func(j int) bool { return it.buf[j] >= target })
	// The block's last ID is >= target, so i < bufLen always holds here.
	it.bufPos = i + 1
	return it.buf[i], true
}
