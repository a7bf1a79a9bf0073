package index_test

import (
	"slices"
	"testing"

	"xks/internal/analysis"
	"xks/internal/index"
	"xks/internal/nid"
)

func contentOf(t *testing.T, doc string) index.Content {
	t.Helper()
	rows, err := index.AnalyzeBytes([]byte(doc), analysis.New())
	if err != nil {
		t.Fatal(err)
	}
	return rows.Content()
}

// TestContentAppendMapsIntoDictionary: appended rows keep their words and
// their word order, a word the dictionary holds keeps its ID, a new one —
// before, between or after every base word — gets one ID at the tail however
// many appends bring it, and the column appended to is not written.
func TestContentAppendMapsIntoDictionary(t *testing.T) {
	base := contentOf(t, `<a><b>delta mike</b><c>kilo</c></a>`)
	if !slices.IsSorted(base.Words) {
		t.Fatalf("a built column's dictionary %q is not sorted", base.Words)
	}
	baseIDs, baseWords := slices.Clone(base.IDs), slices.Clone(base.Words)
	apps := []index.Content{
		contentOf(t, `<d>alpha mike zulu 0zero golf</d>`),
		contentOf(t, `<e>zulu kilo alpha <f>delta 0zero</f></e>`),
	}

	var c index.Content
	c = c.Append(base)
	if len(c.IDs) > 0 && &c.IDs[0] != &base.IDs[0] {
		t.Fatal("an empty column copied the column it adopted")
	}
	var want [][]string
	for id := range nid.ID(len(base.Off) - 1) {
		want = append(want, base.RowWords(id))
	}
	for _, a := range apps {
		c = c.Append(a)
		for id := range nid.ID(len(a.Off) - 1) {
			want = append(want, a.RowWords(id))
		}
	}

	if len(c.Off)-1 != len(want) {
		t.Fatalf("%d rows, want %d", len(c.Off)-1, len(want))
	}
	for id, w := range want {
		if got := c.RowWords(nid.ID(id)); !slices.Equal(got, w) {
			t.Errorf("row %d: %q, want %q", id, got, w)
		}
	}
	if !slices.Equal(c.Words[:len(baseWords)], baseWords) {
		t.Errorf("the base dictionary became %q, want %q", c.Words[:len(baseWords)], baseWords)
	}
	// 0zero sorts before every base word, alpha and golf between two, zulu
	// after all; the labels d, e and f are words too.
	if tail := c.Words[len(baseWords):]; !slices.Equal(tail, []string{"0zero", "alpha", "d", "golf", "zulu", "e", "f"}) {
		t.Errorf("the words appends brought are %q, want 0zero alpha d golf zulu e f: each once, in order of arrival", tail)
	}
	if !slices.Equal(base.IDs, baseIDs) || !slices.Equal(base.Words, baseWords) {
		t.Error("appending wrote into the adopted column's arrays")
	}
}

// TestRowsIDsAreExactSize: the content IDs a build gathers fill their array
// exactly, though rows repeat words and nest (text after a child joins its
// row), so a column built from them keeps no slack; each row is sorted and
// compacted.
func TestRowsIDsAreExactSize(t *testing.T) {
	c := contentOf(t, `<a>echo echo bravo<b>bravo bravo alpha</b>alpha echo<c/>delta</a>`)
	if len(c.IDs) != cap(c.IDs) {
		t.Errorf("content IDs: len %d, cap %d", len(c.IDs), cap(c.IDs))
	}
	want := [][]string{{"alpha", "bravo", "delta", "echo"}, {"alpha", "b", "bravo"}, {"c"}} // labels are words; "a" is a stopword
	for id, w := range want {
		if got := c.RowWords(nid.ID(id)); !slices.Equal(got, w) {
			t.Errorf("row %d: %q, want %q", id, got, w)
		}
	}
}
