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
//     snapshot is not resolvable (a node count past the engine's head,
//     document replacement, or corpus registry eviction);
//   - the resume position (the offset of the next unreturned fragment);
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
	// ErrStaleCursor reports a cursor whose issuing snapshot cannot be
	// resolved. Appends and compactions do NOT stale a cursor — resumption
	// re-pins the snapshot it was issued at; what does is a node count the
	// engine never published (a forged cursor, or one from a longer history
	// of the document), replacing or removing a corpus document, or the
	// corpus snapshot registry evicting the entry.
	ErrStaleCursor = errors.New("stale cursor")
	// ErrCursorMismatch reports a cursor replayed against a request whose
	// order-defining fields (query, document filter, algorithm, semantics,
	// ranking) differ from the one it was issued for.
	ErrCursorMismatch = errors.New("cursor issued for a different request")
)

// cursorVersion is the first byte of every encoded token; bump it when the
// payload layout changes so old tokens fail as ErrBadCursor instead of
// misparsing.
const cursorVersion = 3

// cursorState is the decoded payload of a Cursor.
type cursorState struct {
	// gen is the version token of the snapshot the cursor was issued at:
	// an engine's node count, or a corpus's snapshot-vector hash.
	gen uint64
	// offset is the resume position: the selection-order index of the
	// first fragment the next page should return. Because a cursor is
	// honored only at the exact generation it was issued at (nothing
	// mutated in between), the offset resumes the deterministic order
	// exactly.
	offset int
	// fp fingerprints the order-defining request fields.
	fp uint64
}

// encodeCursor serializes the state as a base64url token.
func encodeCursor(s cursorState) Cursor {
	buf := make([]byte, 0, 1+3*binary.MaxVarintLen64)
	buf = append(buf, cursorVersion)
	buf = binary.AppendUvarint(buf, s.gen)
	buf = binary.AppendUvarint(buf, uint64(s.offset))
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
	var v [3]uint64 // gen, offset, fp
	for i := range v {
		x, n := binary.Uvarint(raw)
		if n <= 0 {
			return cursorState{}, fmt.Errorf("%w: truncated payload", ErrBadCursor)
		}
		raw, v[i] = raw[n:], x
	}
	if v[1] > uint64(maxInt) {
		return cursorState{}, fmt.Errorf("%w: position overflows int", ErrBadCursor)
	}
	s := cursorState{gen: v[0], offset: int(v[1]), fp: v[2]}
	// One state, one token: trailing bytes, overlong varints and stray
	// padding bits would otherwise decode too.
	if encodeCursor(s) != c {
		return cursorState{}, fmt.Errorf("%w: not a canonical token", ErrBadCursor)
	}
	return s, nil
}

const maxInt = int(^uint(0) >> 1)

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
// count before paging. A cursor is issued whenever unreturned results remain —
// including a truncated page that yielded nothing, so a best-effort client
// can retry from the same spot — and is empty otherwise.
func pageCursor(req Request, gen uint64, yielded, total int, truncated bool) Cursor {
	n := req.Offset + yielded
	if n >= total || (yielded == 0 && !truncated) {
		return ""
	}
	return encodeCursor(cursorState{gen: gen, offset: n, fp: req.fingerprint()})
}
