package httpapi

import (
	"encoding/json"
	"net/http"
	"net/url"
	"testing"
	"unicode/utf8"
)

// FuzzParseRequest feeds /search arbitrary query strings: each either fails
// to parse, which the handler answers with a 400, or gives a Request with a
// query, a page size in [0, MaxPageParam], a timeout in [0, MaxTimeout] and
// no raw offset — the wire pages by cursor only.
func FuzzParseRequest(f *testing.F) {
	for _, q := range []string{
		"q=xml",
		"q=xml+keyword&algo=maxmatch&slca=1&rank=1&limit=10&snippets=1",
		"q=x&doc=dblp.xml&limit=2&cursor=AgcKAAAB",
		"q=x&timeout=10h&budget=best-effort",
		"q=x&timeout=-1s",
		"q=x&limit=2000000000",
		"q=x&offset=1",
		"q=%zz&limit=%",
		"",
	} {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		r := &http.Request{Method: http.MethodGet, URL: &url.URL{Path: "/search", RawQuery: raw}}
		req, timeout, _, err := parseRequest(r.URL.Query())
		if err != nil {
			return
		}
		if req.Query == "" {
			t.Fatalf("%q: parsed without a query", raw)
		}
		if req.Limit < 0 || req.Limit > MaxPageParam {
			t.Fatalf("%q: Limit %d outside [0, %d]", raw, req.Limit, MaxPageParam)
		}
		if timeout <= 0 || timeout > MaxTimeout {
			t.Fatalf("%q: timeout %v outside (0, %v]", raw, timeout, MaxTimeout)
		}
		if req.Offset != 0 {
			t.Fatalf("%q: the wire set Offset %d", raw, req.Offset)
		}
	})
}

// FuzzEncodeString holds the response encoder's strings to encoding/json:
// whatever bytes a string carries, str's output decodes to what
// json.Marshal's does — so each invalid byte becomes its own U+FFFD, not one
// per run of them — and on valid UTF-8 the escaper that Fragment.WriteXML
// writes through, wrapped in quotes, decodes back to the string itself.
func FuzzEncodeString(f *testing.F) {
	for _, s := range []string{
		"",
		"xml keyword",
		"a\xff\xfeb",
		"\xe6\x97", // a three-byte rune cut after two
		"quote \" back\\slash <b> & \x00\x1f\x7f",
		"tab\tline\nreturn\r",
		"héllo 漢字 \u2028\u2029 \U0001f600",
		"\xed\xa0\x80", // an encoded surrogate
	} {
		f.Add(s)
	}
	decode := func(t *testing.T, what string, b []byte) string {
		var out string
		if err := json.Unmarshal(b, &out); err != nil {
			t.Fatalf("%s %q does not decode: %v", what, b, err)
		}
		return out
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var e encoder
		e.str(s)
		if got, ref := decode(t, "str", e.buf), decode(t, "json.Marshal", want); got != ref {
			t.Fatalf("str(%q) decodes to %q, encoding/json's to %q", s, got, ref)
		}
		if !utf8.ValidString(s) {
			return
		}
		w := encoder{buf: []byte{'"'}}
		w.WriteString(s)
		w.buf = append(w.buf, '"')
		if got := decode(t, "WriteString", w.buf); got != s {
			t.Fatalf("WriteString(%q) decodes to %q", s, got)
		}
	})
}
