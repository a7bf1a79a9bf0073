package xmltree_test

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"xks/internal/analysis"
	"xks/internal/index"
	"xks/internal/nid"
	"xks/internal/xmltree"
)

// FuzzParse holds the scanner to the encoding/xml oracle: for every input
// both accept with equal trees (label, attributes, text, code, child order)
// or both reject. An accepted document also survives a serialize → reparse
// round trip with the same node count. Its third arm holds the rows
// index.AnalyzeBytes scans straight from the bytes to those index.Analyze
// makes of the oracle's tree — table codes, labels, text, attributes and
// content words — and AnalyzeBytes to the same verdict. Seeds for every
// construct the scanner handles are in testdata/fuzz/FuzzParse; the ones
// added here put text, references and namespace declarations where rows
// are finished out of order.
func FuzzParse(f *testing.F) {
	f.Add(xmltree.SampleXML)
	f.Add(`<a/>`)
	f.Add(`<a><b>text</b><c x="1"/></a>`)
	f.Add(`<a>` + "\x00" + `</a>`)
	f.Add(`<a><b></a></b>`)
	f.Add(`<?xml version="1.0"?><!-- c --><r>t</r>`)
	f.Add(`<r xmlns:x="u"><x:e x:a="v"/></r>`)
	f.Add(`<r>head <a>one <b>two</b> three</a> tail <c/> end</r>`)
	f.Add(`<r>x <![CDATA[keyword <search>]]> y<e/><![CDATA[ tail ]]></r>`)
	f.Add(`<r a="&lt;XML&gt; &amp; &quot;Keyword&quot;">&apos;Search&apos; &lt;b&gt;<e>&amp;</e>&gt;</r>`)
	f.Add(`<r k="&#75;&#x65;y">&#x58;ML &#77;&#x4C; <e/>&#1234;word</r>`)
	f.Add(`<r xmlns="u" xmlns:p="v" p:k="w"><p:e xmlns:q="xmlns" q:z="1" a="b">t</p:e></r>`)
	f.Fuzz(func(t *testing.T, doc string) {
		an := analysis.New()
		rows, rowsErr := index.AnalyzeBytes([]byte(doc), an)
		tr, oracle := differential(t, doc)
		if (rowsErr == nil) != (tr != nil) {
			t.Fatalf("AnalyzeBytes error %v where Parse accepts: %v\ninput: %q", rowsErr, tr != nil, doc)
		}
		if tr == nil {
			return
		}
		want, err := index.Analyze(oracle, an)
		if err != nil {
			t.Fatal(err)
		}
		if d := rowsDiff(rows, want); d != "" {
			t.Fatalf("rows differ: %s\ninput: %q", d, doc)
		}
		var buf bytes.Buffer
		if err := xmltree.WriteXML(&buf, tr.Root); err != nil {
			t.Fatalf("WriteXML failed on parsed tree: %v", err)
		}
		back, err := xmltree.Parse(&buf)
		if err != nil {
			t.Fatalf("reparse failed: %v\ninput: %q\nserialized: %q", err, doc, buf.String())
		}
		if back.Size() != tr.Size() {
			t.Fatalf("round trip changed node count: %d -> %d (input %q)", tr.Size(), back.Size(), doc)
		}
	})
}

// differential parses doc with the scanner and the oracle, fails the test
// unless they agree, and returns both trees (nil when both reject).
func differential(t *testing.T, doc string) (got, want *xmltree.Tree) {
	t.Helper()
	got, err := xmltree.ParseString(doc)
	want, wantErr := xmltree.OracleParse(strings.NewReader(doc))
	switch {
	case err != nil && wantErr != nil:
		return nil, nil
	case err != nil:
		t.Fatalf("scanner rejects what encoding/xml accepts: %v\ninput: %q", err, doc)
	case wantErr != nil:
		t.Fatalf("scanner accepts what encoding/xml rejects (%v)\ninput: %q", wantErr, doc)
	}
	if d := xmltree.TreeDiff(got, want); d != "" {
		t.Fatalf("trees differ: %s\ninput: %q", d, doc)
	}
	return got, want
}

// rowsDiff describes the first difference between two documents' rows,
// row by row: code, label, text, attributes and content words.
func rowsDiff(got, want index.Rows) string {
	if got.Tab.Len() != want.Tab.Len() {
		return fmt.Sprintf("%d rows, want %d", got.Tab.Len(), want.Tab.Len())
	}
	gc, wc := got.Content(), want.Content()
	for i := range want.Tab.Len() {
		id := nid.ID(i)
		g := fmt.Sprintf("%s %q %q %q %q", got.Tab.Code(id), got.Labels.Names[got.Labels.IDs[i]], got.Text.Row(id), got.Attrs.Row(id), gc.RowWords(id))
		w := fmt.Sprintf("%s %q %q %q %q", want.Tab.Code(id), want.Labels.Names[want.Labels.IDs[i]], want.Text.Row(id), want.Attrs.Row(id), wc.RowWords(id))
		if g != w {
			return fmt.Sprintf("row %d: %s, want %s", i, g, w)
		}
	}
	if !slices.Equal(got.Words, want.Words) {
		return "word dictionaries differ"
	}
	if !slices.Equal(got.IDs, want.IDs) || !slices.Equal(got.Off, want.Off) {
		return "content IDs differ"
	}
	return ""
}
