//go:build !race

package xmltree_test

import (
	"bytes"
	"testing"

	"xks/internal/datagen"
	"xks/internal/xmltree"
)

// TestParseAllocs pins what a parse allocates per element: nodes, Dewey
// codes, child and attribute lists come from shared slabs and names are
// interned, so what is left is about one string per element's text and
// attribute value. A DBLP document of 2 000 records (15 178 elements)
// allocates 1.14 objects an element; encoding/xml's token loop allocated
// 13.6.
func TestParseAllocs(t *testing.T) {
	tr := datagen.DBLP(datagen.DBLPConfig{Seed: 1, NumRecords: 2000})
	var b bytes.Buffer
	if err := xmltree.WriteXML(&b, tr.Root); err != nil {
		t.Fatal(err)
	}
	doc := b.Bytes()
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := xmltree.Parse(bytes.NewReader(doc)); err != nil {
			t.Fatal(err)
		}
	})
	if per := allocs / float64(tr.Size()); per > 1.2 {
		t.Errorf("parsing %d elements allocates %.0f objects, %.2f an element; want at most 1.2", tr.Size(), allocs, per)
	}
}
