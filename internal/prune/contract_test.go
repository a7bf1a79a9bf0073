package prune

import (
	"fmt"
	"math/rand"
	"os"
	"slices"
	"testing"

	"xks/internal/nid"
)

// TestMain holds every test of the package to the sorted-set contract of
// IDContentFunc/ContentFunc: a content set that reaches match out of order
// fails the run, naming the set.
func TestMain(m *testing.M) {
	checkContent = func(words []string) {
		if !slices.IsSorted(words) {
			panic(fmt.Sprintf("prune: content set %q is not sorted (IDContentFunc contract)", words))
		}
	}
	os.Exit(m.Run())
}

func TestUnsortedContentSetIsCaught(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("an unsorted content set went through match unnoticed")
		}
	}()
	s := sameLabelChildren(1)
	BuildFragmentIDs(s.tab, s.idRTF, s.labelOfID, func(nid.ID) []string { return []string{"b", "a"} }, Options{})
}

// TestEndsFoldEqualsFullScan: on a sorted set, folding only the first and
// last word into a node's cID (what match does) gives the cID a scan of every
// word gives — for empty and one-word sets, duplicates, words that are
// prefixes of one another and non-ASCII words alike.
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
		f := newFragment(1, Options{})
		f.push(0)
		f.match(1, words)
		got := f.s.nodes[0].cid
		f.Release()
		if got != want {
			t.Fatalf("trial %d: set %q: ends fold to %v, full scan to %v", trial, words, got, want)
		}
		if len(words) > 0 && (want.Min != slices.Min(words) || want.Max != slices.Max(words)) {
			t.Fatalf("trial %d: set %q: full scan %v is not (min,max)", trial, words, want)
		}
	}
}
