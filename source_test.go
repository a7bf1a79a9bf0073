package xks

import (
	"slices"
	"testing"

	"xks/internal/analysis"
	"xks/internal/datagen"
	"xks/internal/nid"
	"xks/internal/reference"
	"xks/internal/store"
	"xks/internal/xmltree"
)

// TestBackingsPublishOneSource: an engine over an in-memory store image and
// one over its file round trip publish the same source columns — label IDs,
// label dictionary, content rows (each capacity-capped), text and
// attributes — and after tail appends, some bringing labels the document
// has not seen, both engines' columns are those a fresh load of the
// extended document builds.
func TestBackingsPublishOneSource(t *testing.T) {
	for _, doc := range []struct {
		name string
		tree func() *xmltree.Tree
	}{
		{"publications", reference.Publications},
		{"team", reference.Team},
		{"dblp", func() *xmltree.Tree { return datagen.DBLP(datagen.DBLPConfig{Seed: 3, NumRecords: 150}) }},
		{"xmark", func() *xmltree.Tree { return datagen.XMark(datagen.XMarkConfig{Seed: 4, Items: 40}) }},
	} {
		tree := doc.tree()
		image := store.Shred(tree, analysis.New())
		fromImage, fromFile := FromStore(image), reopened(t, image, store.OpenAuto)
		sameSource(t, doc.name, fromImage, fromFile)
		recs := []string{newLabelRecord, `<article><title>xml keyword</title></article>`, newLabelRecord}
		for _, e := range []*Engine{fromImage, fromFile} {
			for _, rec := range recs {
				if err := e.AppendXML("0", rec); err != nil {
					t.Fatal(err)
				}
			}
		}
		fresh := reloaded(t, tree, recs...)
		sameSource(t, doc.name+" after appends to the image", fromImage, fresh)
		sameSource(t, doc.name+" after appends to the file", fromFile, fresh)
	}
}

// sameSource fails unless a and b publish equal label, content, text and
// attribute columns over tables of equal length, content rows compared as
// the words they resolve to (the dictionaries of engines that took appends
// differ), every content row capped at its length.
func sameSource(t *testing.T, label string, a, b *Engine) {
	t.Helper()
	n := a.head.Load().Tab.Len()
	if m := b.head.Load().Tab.Len(); m != n {
		t.Fatalf("%s: %d nodes against %d", label, n, m)
	}
	sa, sb := a.src.Load(), b.src.Load()
	if !slices.Equal(sa.labels.IDs, sb.labels.IDs) || len(sa.labels.IDs) != n || !slices.Equal(sa.labels.Names, sb.labels.Names) {
		t.Fatalf("%s: label columns differ:\n%v %v\n%v %v", label, sa.labels.Names, sa.labels.IDs, sb.labels.Names, sb.labels.IDs)
	}
	for id := range nid.ID(n) {
		ra, rb := sa.content.Row(id), sb.content.Row(id)
		if wa, wb := sa.content.RowWords(id), sb.content.RowWords(id); !slices.Equal(wa, wb) {
			t.Fatalf("%s: node %d content %q against %q", label, id, wa, wb)
		}
		if cap(ra) != len(ra) || cap(rb) != len(rb) {
			t.Fatalf("%s: node %d content rows not capped: cap %d/%d for %d words", label, id, cap(ra), cap(rb), len(ra))
		}
		if ta, tb := sa.text.Row(id), sb.text.Row(id); ta != tb {
			t.Fatalf("%s: node %d text %q against %q", label, id, ta, tb)
		}
		if aa, ab := sa.attrs.Row(id), sb.attrs.Row(id); aa != ab {
			t.Fatalf("%s: node %d attributes %q against %q", label, id, aa, ab)
		}
	}
}
