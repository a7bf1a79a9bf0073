package xks

import (
	"path/filepath"
	"slices"
	"testing"

	"xks/internal/analysis"
	"xks/internal/datagen"
	"xks/internal/nid"
	"xks/internal/store"
)

// requireSortedContent asserts the contract internal/prune builds on
// (index.Content): every row of the source's content column holds its
// node's content set in the lexical order of its words, whatever the order
// of its term IDs.
func requireSortedContent(t *testing.T, name string, e *Engine) {
	t.Helper()
	tab := e.head.Load().Tab
	sets := 0
	for i := range tab.Len() {
		id := nid.ID(i)
		words := e.src.Load().content.RowWords(id)
		if !slices.IsSorted(words) {
			t.Fatalf("%s: node %s: content set %q is not sorted", name, tab.Code(id), words)
		}
		if len(words) > 1 {
			sets++
		}
	}
	if sets == 0 {
		t.Fatalf("%s: no node has two content words; the check is vacuous", name)
	}
}

// TestContentSetsAreSorted walks every source a fragment can be pruned from:
// the columns of a document's in-memory store after a build, after a tail
// append and after a refused off-spine append; the store reopened as v3 on
// the heap and mapped, before and after a tail append.
func TestContentSetsAreSorted(t *testing.T) {
	doc := datagen.DBLP(datagen.DBLPConfig{Seed: 9, NumRecords: 120, Keywords: []datagen.KeywordSpec{{Word: "zeta", Count: 40}, {Word: "alpha", Count: 40}}})
	e := FromTree(doc)
	requireSortedContent(t, "tree/built", e)
	const record = `<inproceedings key="zz top"><title>Zeta beta Alpha</title><author>Omega Mu</author></inproceedings>`
	if err := e.AppendXML("0", record); err != nil {
		t.Fatal(err)
	}
	requireSortedContent(t, "tree/tail-append", e)
	requireOffSpineRefused(t, e, "0.0", record)
	requireSortedContent(t, "tree/off-spine-refused", e)

	shredded := store.Shred(doc, analysis.New())
	path := filepath.Join(t.TempDir(), "dblp.xks")
	if err := shredded.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	for name, mode := range map[string]store.OpenMode{"store/v3-heap": store.OpenHeap, "store/v3-mmap": store.OpenMmap} {
		st, err := store.OpenFile(path, store.OpenOptions{Mode: mode})
		if err != nil {
			if mode == store.OpenMmap {
				t.Logf("mmap unavailable on this platform: %v", err)
				continue
			}
			t.Fatal(err)
		}
		opened := FromStore(st)
		requireSortedContent(t, name, opened)
		if err := opened.AppendXML("0", record); err != nil {
			t.Fatal(err)
		}
		requireSortedContent(t, name+"/tail-append", opened)
		opened.Close()
	}
}
