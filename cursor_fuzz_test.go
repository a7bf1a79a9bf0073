package xks

import (
	"errors"
	"testing"
)

// FuzzCursorDecode feeds the cursor decoder arbitrary tokens, which is what
// a client hands the server as cursor=: decode never panics, every token it
// accepts is the one encodeCursor mints for the decoded state (one state,
// one token), and ResolveCursor fails only with one of the three cursor
// sentinels — never with anything a serving layer could not map to a
// status.
func FuzzCursorDecode(f *testing.F) {
	req := Request{Query: "xml keyword", Rank: true, Limit: 5}
	for _, st := range []cursorState{
		{gen: 7, offset: 10, fp: req.fingerprint()},
		{gen: 7, offset: 3, fp: req.fingerprint()},
		{gen: ^uint64(0), offset: maxInt},
	} {
		f.Add(string(encodeCursor(st)), uint64(7))
	}
	f.Add("", uint64(0))
	f.Add("not base64!!", uint64(7))
	f.Fuzz(func(t *testing.T, tok string, gen uint64) {
		st, decErr := Cursor(tok).decode()
		if decErr == nil {
			if again := encodeCursor(st); again != Cursor(tok) {
				t.Fatalf("decode(%q) = %+v, which encodes as %q", tok, st, again)
			}
		} else if !errors.Is(decErr, ErrBadCursor) {
			t.Fatalf("decode(%q): %v, want ErrBadCursor", tok, decErr)
		}
		r := req
		r.Cursor = Cursor(tok)
		got, err := r.ResolveCursor(gen)
		switch {
		case err == nil:
			if tok != "" && (decErr != nil || got.Cursor != "" || got.Offset != st.offset) {
				t.Fatalf("ResolveCursor(%q) = %+v, want the decoded offset %d and no cursor", tok, got, st.offset)
			}
		case errors.Is(err, ErrBadCursor), errors.Is(err, ErrCursorMismatch), errors.Is(err, ErrStaleCursor):
		default:
			t.Fatalf("ResolveCursor(%q): %v wraps no cursor sentinel", tok, err)
		}
	})
}
