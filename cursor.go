package xks

import (
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
)

// Cursor is an opaque pagination token. A result whose set extends past the
// returned page carries the cursor of the following page; passing it back
// in Request.Cursor resumes the scroll exactly where it stopped. The token
// encodes everything that makes resumption safe under mutation:
//
//   - the snapshot version it was issued at — resuming re-pins that exact
//     snapshot, so a cursor survives concurrent appends and compactions
//     (the page boundary cannot shift: the cursor keeps reading the state
//     it was issued against) and fails as ErrStaleCursor only when the
//     snapshot is no longer resolvable (a renumbering rebuild, document
//     replacement, or corpus registry eviction);
//   - the resume position (the offset of the next unreturned fragment,
//     plus the document/sequence key of the last one yielded);
//   - a fingerprint of the order-defining request fields, so a cursor
//     cannot be replayed against a different query (ErrCursorMismatch).
//
// Clients must treat the token as opaque: its layout may change between
// versions, and decoding guarantees apply only within one process
// generation. The zero value ("") means "first page".
type Cursor string

// Sentinel cursor errors, matched with errors.Is. Serving layers map them
// to status codes: a malformed or mismatched cursor is a client error
// (400), a stale one is 410 Gone — the page boundary no longer exists and
// the scroll must restart from the first page.
var (
	// ErrBadCursor reports a token that does not decode.
	ErrBadCursor = errors.New("malformed cursor")
	// ErrStaleCursor reports a cursor whose issuing snapshot can no longer
	// be resolved. Tail appends and compactions do NOT stale a cursor —
	// resumption re-pins the snapshot it was issued at; what does is a
	// renumbering rebuild (a non-tail append), replacing or removing a
	// corpus document, or the corpus snapshot registry evicting the entry.
	ErrStaleCursor = errors.New("stale cursor")
	// ErrCursorMismatch reports a cursor replayed against a request whose
	// order-defining fields (query, document filter, algorithm, semantics,
	// ranking) differ from the one it was issued for.
	ErrCursorMismatch = errors.New("cursor issued for a different request")
)

// cursorVersion is the first byte of every encoded token; bump it when the
// payload layout changes so old tokens fail as ErrBadCursor instead of
// misparsing.
const cursorVersion = 2

// cursorState is the decoded payload of a Cursor.
type cursorState struct {
	// gen is the version token of the snapshot the cursor was issued at:
	// an engine's packed (rebuild generation, node count) pair, or a
	// corpus's snapshot-vector hash.
	gen uint64
	// offset is the resume position: the selection-order index of the
	// first fragment the next page should return. Because a cursor is
	// honored only at the exact generation it was issued at (nothing
	// mutated in between), the offset resumes the deterministic order
	// exactly.
	doc, seq int // resume key: last yielded candidate (diagnostics)
	offset   int
	// fp fingerprints the order-defining request fields.
	fp uint64
}

// encodeCursor serializes the state as a base64url token.
func encodeCursor(s cursorState) Cursor {
	buf := make([]byte, 0, 1+5*binary.MaxVarintLen64)
	buf = append(buf, cursorVersion)
	buf = binary.AppendUvarint(buf, s.gen)
	buf = binary.AppendUvarint(buf, uint64(s.offset))
	buf = binary.AppendUvarint(buf, uint64(s.doc))
	buf = binary.AppendUvarint(buf, uint64(s.seq))
	buf = binary.AppendUvarint(buf, s.fp)
	return Cursor(base64.RawURLEncoding.EncodeToString(buf))
}

// decode parses the token; every malformation comes back wrapping
// ErrBadCursor, and every token it accepts is the one encodeCursor mints
// for the decoded state.
func (c Cursor) decode() (cursorState, error) {
	raw, err := base64.RawURLEncoding.DecodeString(string(c))
	if err != nil {
		return cursorState{}, fmt.Errorf("%w: %v", ErrBadCursor, err)
	}
	if len(raw) == 0 || raw[0] != cursorVersion {
		return cursorState{}, fmt.Errorf("%w: unknown version", ErrBadCursor)
	}
	raw = raw[1:]
	var s cursorState
	fields := []*uint64{&s.gen, nil, nil, nil, &s.fp}
	ints := []*int{nil, &s.offset, &s.doc, &s.seq, nil}
	for i := range fields {
		v, n := binary.Uvarint(raw)
		if n <= 0 {
			return cursorState{}, fmt.Errorf("%w: truncated payload", ErrBadCursor)
		}
		raw = raw[n:]
		if fields[i] != nil {
			*fields[i] = v
		} else {
			if v > uint64(maxInt) {
				return cursorState{}, fmt.Errorf("%w: position overflows int", ErrBadCursor)
			}
			*ints[i] = int(v)
		}
	}
	// One state, one token: trailing bytes, overlong varints and stray
	// padding bits would otherwise decode too.
	if encodeCursor(s) != c {
		return cursorState{}, fmt.Errorf("%w: not a canonical token", ErrBadCursor)
	}
	return s, nil
}

const maxInt = int(^uint(0) >> 1)

// ResumePoint returns a copy of the envelope re-pointed to resume after
// the first n fragments of its page, with Fragments dropped (the consumer
// already received them): Cursor is recomputed for position req.Offset+n.
// A serving layer replaying a buffered page to a streaming consumer that
// stopped early uses this to hand back an honest trailer — the original
// page's cursor would skip the fragments the consumer never saw.
//
// The re-pointed cursor is stamped with the generation the page itself was
// issued at (decoded from its own cursor) whenever the page carries one,
// never the caller's newer snapshot: re-stamping an old page boundary with
// a fresh generation would launder a stale cursor into one that validates
// — the silent page shift cursors exist to prevent. Pages without a cursor
// (the set was exhausted when issued) fall back to gen. n at or past the
// page end keeps the page's own cursor; n == 0 returns no cursor (the
// consumer consumed nothing, so resuming is reissuing the request). req
// must be the resolved request that produced r.
func (r *Results) ResumePoint(n int, req Request, gen uint64) *Results {
	out := *r
	out.Fragments = nil
	if n >= len(r.Fragments) {
		return &out
	}
	if st, err := r.Cursor.decode(); err == nil {
		gen = st.gen
	}
	out.Cursor = pageCursor(req.clampPaging(), gen, n, r.Stats.NumLCAs, 0, 0, false)
	return &out
}

// truncationCursor is the resume-here cursor of an envelope truncated
// before selection finished (a BestEffort deadline expiring in the plan or
// candidate stage): the total is unknown, but the resume position is
// exactly where this page started, so the scroll stays resumable instead
// of looking exhausted.
func truncationCursor(req Request, gen uint64) Cursor {
	return encodeCursor(cursorState{gen: gen, offset: req.Offset, fp: req.fingerprint()})
}

// pageCursor is the next-page cursor of a result envelope: yielded
// fragments were returned starting at req.Offset, total is the candidate
// count before paging, and lastDoc/lastSeq key the final candidate
// materialized. A cursor is issued whenever unreturned results remain —
// including a truncated page that yielded nothing, so a best-effort client
// can retry from the same spot — and is empty otherwise.
func pageCursor(req Request, gen uint64, yielded, total int, lastDoc, lastSeq int, truncated bool) Cursor {
	n := req.Offset + yielded
	if n >= total || (yielded == 0 && !truncated) {
		return ""
	}
	return encodeCursor(cursorState{
		gen:    gen,
		offset: n,
		doc:    lastDoc,
		seq:    lastSeq,
		fp:     req.fingerprint(),
	})
}
