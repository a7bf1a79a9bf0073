package prune

import (
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"xks/internal/dewey"
	"xks/internal/index"
	"xks/internal/nid"
)

// TestMain holds every test of the package to the word-order contract of
// content rows (index.Content, IDContentFunc): a row that a cID reads out
// of its words' lexical order fails the run, naming its words.
func TestMain(m *testing.M) {
	checkContent = func(row []uint32, dict []string) {
		for i := 1; i < len(row); i++ {
			if dict[row[i]] < dict[row[i-1]] {
				words := make([]string, len(row))
				for j, id := range row {
					words[j] = dict[id]
				}
				panic(fmt.Sprintf("prune: content set %q is not sorted (index.Content contract)", words))
			}
		}
	}
	os.Exit(m.Run())
}

// TestUnsortedContentSetIsCaught: content is read where rule 2(b) reads a
// cID, and that is where the contract hook stops an unsorted set, whether
// it comes through BuildFragmentIDs' function or as a column row whose IDs
// ascend but whose words do not. The three same-label articles have key
// numbers 1, 2 and 3, so the third reaches rule 2(b) and its title's set
// is read; building and MaxMatch read none.
func TestUnsortedContentSetIsCaught(t *testing.T) {
	s := sameLabelChildren(3)
	column := index.Content{Off: []uint32{0}, Words: []string{"b", "a"}}
	for range s.tab.Len() {
		column.IDs = append(column.IDs, 0, 1)
		column.Off = append(column.Off, uint32(len(column.IDs)))
	}
	for name, build := range map[string]func() *Fragment{
		"function": func() *Fragment {
			return BuildFragmentIDs(s.tab, s.idRTF, s.labelOfID, func(nid.ID) []string { return []string{"b", "a"} }, Options{})
		},
		"column": func() *Fragment { return BuildFragment(s.tab, s.idRTF, s.column, column, Options{}) },
	} {
		f := build()
		f.AppendKeptIDs(nil, Contributor, Options{})
		f.AppendKeptIDs(nil, NoPruning, Options{})
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: an unsorted content set went through rule 2(b) unnoticed", name)
				}
			}()
			f.AppendKeptIDs(nil, ValidContributor, Options{})
		}()
		f.Release()
	}
}

// TestEndsFoldEqualsFullScan: on a sorted set, taking only the first and
// last word as a keyword node's cID (what a cID read does) gives the cID a
// scan of every word gives — for empty and one-word sets, duplicates, words
// that are prefixes of one another and non-ASCII words alike.
func TestEndsFoldEqualsFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	pool := []string{"a", "ab", "abc", "abd", "b", "ba", "z", "zz", "é", "éa", "ñu", "日本", "日本語", "ÿ", "\U0001f600", "~", "0", "00"}
	for trial := range 2000 {
		var words []string
		for range rng.Intn(7) { // 0..6 words, repeats allowed
			w := pool[rng.Intn(len(pool))]
			if rng.Intn(4) == 0 {
				w += pool[rng.Intn(len(pool))]
			}
			words = append(words, w)
		}
		slices.Sort(words)

		var want CID
		for _, i := range rng.Perm(len(words)) { // the scan needs no order
			want.merge(CID{Min: words[i], Max: words[i]})
		}
		s := finish(&refNode{code: dewey.Code{0}, label: "x", mask: 1, words: words})
		f := BuildFragmentIDs(s.tab, s.idRTF, s.labelOfID, s.contentOfID, Options{})
		got := f.cid(0)
		f.Release()
		if got != want {
			t.Fatalf("trial %d: set %q: ends fold to %v, full scan to %v", trial, words, got, want)
		}
		if len(words) > 0 && (want.Min != slices.Min(words) || want.Max != slices.Max(words)) {
			t.Fatalf("trial %d: set %q: full scan %v is not (min,max)", trial, words, want)
		}
	}
}

// TestNodeRecordIsPointerFree: the node array is a fragment's bulk — tens of
// thousands of records for a document-root RTF — so a record is 24 bytes and
// holds nothing the collector has to scan.
func TestNodeRecordIsPointerFree(t *testing.T) {
	if size := unsafe.Sizeof(node{}); size != 24 {
		t.Errorf("node is %d bytes, want 24", size)
	}
	if path := pointerIn(reflect.TypeOf(node{}), "node"); path != "" {
		t.Errorf("node holds a pointer at %s", path)
	}
}

// pointerIn returns the path of the first field of type t (named path) that
// is not a number, a boolean or a struct of them, or "" when there is none.
func pointerIn(t reflect.Type, path string) string {
	switch k := t.Kind(); {
	case k >= reflect.Bool && k <= reflect.Complex128:
		return ""
	case k == reflect.Struct:
		for i := range t.NumField() {
			if p := pointerIn(t.Field(i).Type, path+"."+t.Field(i).Name); p != "" {
				return p
			}
		}
		return ""
	}
	return path + " (" + t.String() + ")"
}
