package xmltree

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzParse holds the scanner to the encoding/xml oracle: for every input
// both accept with equal trees (label, attributes, text, code, child order)
// or both reject. An accepted document also survives a serialize → reparse
// round trip with the same node count. Seeds for every construct the
// scanner handles are in testdata/fuzz/FuzzParse.
func FuzzParse(f *testing.F) {
	f.Add(sampleXML)
	f.Add(`<a/>`)
	f.Add(`<a><b>text</b><c x="1"/></a>`)
	f.Add(`<a>` + "\x00" + `</a>`)
	f.Add(`<a><b></a></b>`)
	f.Add(`<?xml version="1.0"?><!-- c --><r>t</r>`)
	f.Add(`<r xmlns:x="u"><x:e x:a="v"/></r>`)
	f.Fuzz(func(t *testing.T, doc string) {
		tr := differential(t, doc)
		if tr == nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteXML(&buf, tr.Root); err != nil {
			t.Fatalf("WriteXML failed on parsed tree: %v", err)
		}
		back, err := Parse(&buf)
		if err != nil {
			t.Fatalf("reparse failed: %v\ninput: %q\nserialized: %q", err, doc, buf.String())
		}
		if back.Size() != tr.Size() {
			t.Fatalf("round trip changed node count: %d -> %d (input %q)", tr.Size(), back.Size(), doc)
		}
	})
}

// differential parses doc with the scanner and the oracle, fails the test
// unless they agree, and returns the scanner's tree (nil when both reject).
func differential(t *testing.T, doc string) *Tree {
	t.Helper()
	got, err := ParseString(doc)
	want, wantErr := oracleParse(strings.NewReader(doc))
	switch {
	case err != nil && wantErr != nil:
		return nil
	case err != nil:
		t.Fatalf("scanner rejects what encoding/xml accepts: %v\ninput: %q", err, doc)
	case wantErr != nil:
		t.Fatalf("scanner accepts what encoding/xml rejects (%v)\ninput: %q", wantErr, doc)
	}
	if d := treeDiff(got, want); d != "" {
		t.Fatalf("trees differ: %s\ninput: %q", d, doc)
	}
	return got
}
