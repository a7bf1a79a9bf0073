package httpapi

import (
	"net/http"
	"net/url"
	"testing"
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
		req, _, err := parseRequest(r)
		if err != nil {
			return
		}
		if req.Query == "" {
			t.Fatalf("%q: parsed without a query", raw)
		}
		if req.Limit < 0 || req.Limit > MaxPageParam {
			t.Fatalf("%q: Limit %d outside [0, %d]", raw, req.Limit, MaxPageParam)
		}
		if req.Timeout < 0 || req.Timeout > MaxTimeout {
			t.Fatalf("%q: Timeout %v outside [0, %v]", raw, req.Timeout, MaxTimeout)
		}
		if req.Offset != 0 {
			t.Fatalf("%q: the wire set Offset %d", raw, req.Offset)
		}
	})
}
