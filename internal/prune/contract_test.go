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
	"xks/internal/nid"
)

// TestMain holds every test of the package to the sorted-set contract of
// IDContentFunc: a content set that a cID reads out of order
// fails the run, naming the set.
func TestMain(m *testing.M) {
	checkContent = func(words []string) {
		if !slices.IsSorted(words) {
			panic(fmt.Sprintf("prune: content set %q is not sorted (IDContentFunc contract)", words))
		}
	}
	os.Exit(m.Run())
}

// TestUnsortedContentSetIsCaught: content is read where rule 2(b) reads a
// cID, and that is where the contract hook stops an unsorted set. The three
// same-label articles have key numbers 1, 2 and 3, so the third reaches rule
// 2(b) and its title's set is read; building and MaxMatch read none.
func TestUnsortedContentSetIsCaught(t *testing.T) {
	s := sameLabelChildren(3)
	f := BuildFragmentIDs(s.tab, s.idRTF, s.labelOfID, func(nid.ID) []string { return []string{"b", "a"} }, Options{})
	defer f.Release()
	f.AppendKeptIDs(nil, Contributor, Options{})
	f.AppendKeptIDs(nil, NoPruning, Options{})
	defer func() {
		if recover() == nil {
			t.Fatal("an unsorted content set went through rule 2(b) unnoticed")
		}
	}()
	f.AppendKeptIDs(nil, ValidContributor, Options{})
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
