package xmltree_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"xks/internal/datagen"
	"xks/internal/reference"
	"xks/internal/xmltree"
)

// TestParseMatchesEncodingXML parses the evaluation corpora at the
// benchmark's full size (DBLP 12 000 records, XMark 2 400 items), the
// paper's example documents and every XML document under testdata (the
// FuzzParse seeds) with the scanner and with the encoding/xml oracle, and
// requires the same verdict and, when both accept, the same tree field by
// field: label, attributes, text, Dewey code, parent and child order.
func TestParseMatchesEncodingXML(t *testing.T) {
	docs := map[string]string{"sample": xmltree.SampleXML}
	for name, tr := range map[string]*xmltree.Tree{
		"dblp-12000":   datagen.DBLP(datagen.DBLPConfig{Seed: 1, NumRecords: 12000}),
		"xmark-2400":   datagen.XMark(datagen.XMarkConfig{Seed: 2, Items: 2400}),
		"publications": reference.Publications(),
		"team":         reference.Team(),
	} {
		var b bytes.Buffer
		if err := xmltree.WriteXML(&b, tr.Root); err != nil {
			t.Fatal(err)
		}
		docs[name] = b.String()
	}
	seeds, err := filepath.Glob("testdata/fuzz/FuzzParse/*")
	if err != nil || len(seeds) == 0 {
		t.Fatalf("no FuzzParse seeds under testdata (%v)", err)
	}
	for _, path := range seeds {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// The seed format: a header line, then string("...").
		lit := strings.TrimSpace(strings.SplitN(string(b), "\n", 2)[1])
		doc, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lit, "string("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		docs["testdata/"+filepath.Base(path)] = doc
	}
	accepted := 0
	for name, doc := range docs {
		got, err := xmltree.ParseString(doc)
		want, wantErr := xmltree.OracleParse(strings.NewReader(doc))
		switch {
		case (err == nil) != (wantErr == nil):
			t.Errorf("%s: scanner error %v, encoding/xml error %v", name, err, wantErr)
		case err == nil:
			accepted++
			if d := xmltree.TreeDiff(got, want); d != "" {
				t.Errorf("%s: trees differ: %s", name, d)
			}
		}
	}
	if accepted < 5 {
		t.Errorf("only %d of %d documents parsed", accepted, len(docs))
	}
}
