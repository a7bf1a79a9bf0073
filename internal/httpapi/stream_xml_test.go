package httpapi

// Tests for the streaming XML render path: the stream=1 fragment lines
// must decode identically to the buffered response even though their xml
// member is escaped on the fly (encoder.Write) and rendered straight into
// the record (Fragment.WriteXML) instead of being marshaled from a
// buffered string.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"xks"
	"xks/internal/analysis"
	"xks/internal/paperdata"
	"xks/internal/service"
	"xks/internal/store"
)

// TestStreamedXMLMatchesBuffered pins the streamed xml field byte-identical
// to the buffered Fragment.XML for an engine over the parsed document and
// one over its store: multi-line renders with quoted and escaped text, the
// case the escaper earns its keep on.
func TestStreamedXMLMatchesBuffered(t *testing.T) {
	st := store.Shred(paperdata.Publications(), analysis.New())
	servers := map[string]*httptest.Server{"tree": testServer(t)}
	{
		svc := service.New(
			service.SingleDoc{Name: "publications.xml", Engine: xks.FromStore(st)},
			service.Config{CacheSize: 64},
		)
		srv := httptest.NewServer(NewHandler(svc, nil))
		t.Cleanup(srv.Close)
		servers["store"] = srv
	}
	for name, srv := range servers {
		_, buffered := getJSON(t, srv.URL+"/search?q=xml+keyword&snippets=1")
		if buffered == nil || len(buffered.Fragments) == 0 {
			t.Fatalf("%s: buffered search returned no fragments", name)
		}
		resp, err := http.Get(srv.URL + "/search?q=xml+keyword&snippets=1&stream=1")
		if err != nil {
			t.Fatal(err)
		}
		frags, _ := readNDJSON(t, resp)
		if len(frags) != len(buffered.Fragments) {
			t.Fatalf("%s: streamed %d fragments, buffered %d", name, len(frags), len(buffered.Fragments))
		}
		sawMultiline := false
		for i := range frags {
			want, got := buffered.Fragments[i], frags[i]
			if got.XML != want.XML {
				t.Fatalf("%s fragment %d: streamed xml differs:\n%q\n----\n%q", name, i, got.XML, want.XML)
			}
			if got.Snippet != want.Snippet || got.Nodes != want.Nodes || got.Score != want.Score {
				t.Fatalf("%s fragment %d: meta differs: %+v vs %+v", name, i, got, want)
			}
			if bytes.ContainsRune([]byte(got.XML), '\n') {
				sawMultiline = true
			}
		}
		if !sawMultiline {
			t.Fatalf("%s: no multi-line xml rendered; escaper untested", name)
		}
	}
}

// TestRecordWireShape pins an encoded record's bytes to decode into exactly
// the Fragment that ToFragment builds — encoder.record and encoding/json
// are allowed to differ only in JSON escaping choices.
func TestRecordWireShape(t *testing.T) {
	e := xks.FromStore(store.Shred(paperdata.Publications(), analysis.New()))
	res, err := e.Search(t.Context(), xks.Request{Query: "xml keyword"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fragments) == 0 {
		t.Fatal("no fragments")
	}
	for i := range res.Fragments {
		cf := xks.CorpusFragment{Document: "d.xml", Fragment: res.Fragments[i]}
		var e encoder
		e.record(cf, true)
		raw := e.buf
		var got Fragment
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatalf("fragment %d: record does not decode: %v\n%s", i, err, raw)
		}
		want := ToFragment(cf, true)
		if got != want {
			t.Fatalf("fragment %d: record decodes to %+v, want %+v", i, got, want)
		}
	}
}

// TestJSONStringEscaper feeds the escaper adversarial byte sequences and
// checks the output is a valid JSON string body decoding back to the
// input — including chunk boundaries splitting multi-byte escapes' source
// runs.
func TestJSONStringEscaper(t *testing.T) {
	inputs := []string{
		"plain",
		`quote " backslash \ done`,
		"tab\tnewline\ncarriage\rbell\x07null\x00",
		"unicode: héllo — 漢字 ☂",
		"<script>&amp;</script>",
		"",
	}
	for _, in := range inputs {
		var esc encoder
		// Write in 3-byte chunks to exercise state across calls.
		for b := []byte(in); len(b) > 0; {
			n := min(3, len(b))
			if _, err := esc.Write(b[:n]); err != nil {
				t.Fatal(err)
			}
			b = b[n:]
		}
		quoted := `"` + string(esc.buf) + `"`
		var out string
		if err := json.Unmarshal([]byte(quoted), &out); err != nil {
			t.Fatalf("input %q: escaped form %s invalid: %v", in, quoted, err)
		}
		if out != in {
			t.Fatalf("input %q round-tripped to %q via %s", in, out, quoted)
		}
	}
}
