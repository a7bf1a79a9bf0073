package xks

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"xks/internal/analysis"
	"xks/internal/datagen"
	"xks/internal/reference"
	"xks/internal/store"
	"xks/internal/xmltree"
)

// AppendXML makes the new content searchable and produces exactly the same
// results as rebuilding the engine from scratch.
func TestAppendXMLMatchesRebuild(t *testing.T) {
	incremental := FromTree(reference.Publications())
	snippet := `<article>
	  <authors><author><name>Kong Liu</name></author></authors>
	  <title>Relaxed Tightest Fragments for keyword search</title>
	</article>`
	if err := incremental.AppendXML("0.2", snippet); err != nil {
		t.Fatal(err)
	}

	rebuilt := reference.Publications()
	sub, err := xmltree.ParseString(snippet)
	if err != nil {
		t.Fatal(err)
	}
	if err := rebuilt.AppendChild(mustCode(t, "0.2"), sub.Root); err != nil {
		t.Fatal(err)
	}
	fresh := FromTree(rebuilt)

	for _, q := range []string{reference.Q2, reference.Q3, "kong keyword", "liu keyword search"} {
		a, errA := incremental.Search(context.Background(), Request{Query: q, Rank: true})
		b, errB := fresh.Search(context.Background(), Request{Query: q, Rank: true})
		if errA != nil || errB != nil {
			t.Fatalf("%q: %v / %v", q, errA, errB)
		}
		if len(a.Fragments) != len(b.Fragments) {
			t.Fatalf("%q: %d vs %d fragments", q, len(a.Fragments), len(b.Fragments))
		}
		for i := range a.Fragments {
			if a.Fragments[i].Root != b.Fragments[i].Root || a.Fragments[i].Len() != b.Fragments[i].Len() {
				t.Errorf("%q fragment %d: %s/%d vs %s/%d", q, i,
					a.Fragments[i].Root, a.Fragments[i].Len(),
					b.Fragments[i].Root, b.Fragments[i].Len())
			}
		}
	}
}

func mustCode(t *testing.T, s string) (c []uint32) {
	t.Helper()
	for _, part := range strings.Split(s, ".") {
		n := 0
		for _, r := range part {
			n = n*10 + int(r-'0')
		}
		c = append(c, uint32(n))
	}
	return c
}

func TestAppendXMLNewKeywordBecomesSearchable(t *testing.T) {
	e := FromTree(reference.Team())
	if res, _ := e.Search(context.Background(), Request{Query: "conley position"}); res != nil && len(res.Fragments) != 0 {
		t.Fatal("conley should not match before append")
	}
	err := e.AppendXML("0.1", `<player><name>Conley</name><position>guard</position></player>`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Search(context.Background(), Request{Query: "conley position"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fragments) != 1 || res.Fragments[0].Root != "0.1.3" {
		t.Fatalf("fragments = %+v", fragmentRoots(res))
	}
	if n := e.head.Load().Tab.Len(); n != 12+3 {
		t.Errorf("%d nodes after the append, want %d", n, 12+3)
	}
}

func TestAppendXMLErrors(t *testing.T) {
	e := FromTree(reference.Team())
	if err := e.AppendXML("9.9", `<x/>`); err == nil {
		t.Error("append under missing parent should fail")
	}
	if err := e.AppendXML("not-a-code", `<x/>`); err == nil {
		t.Error("malformed parent code should fail")
	}
	if err := e.AppendXML("0", `not xml`); err == nil {
		t.Error("malformed snippet should fail")
	}
}

// wordOrderRecord brings content words the document has not seen: one that
// sorts before every word of the document's vocabulary, one between two of
// them and one after all of them (%s is the vocabulary's first word). The
// engine's dictionary gets them at its tail, so their IDs follow every
// base word's while their rows stay in word order. Its first two authors
// have equal (min,max) cIDs, which rule 2(b) prunes to one, but their IDs
// begin with different base words: a row taken in ID order would keep both.
const wordOrderRecord = `<article key="new/order"><title>xml order</title>` +
	`<author>00aardvark keyword zzzyzx</author><author>00aardvark %s keyword zzzyzx</author>` +
	`<author>keyword mmmquux</author><author>mmmquux zzzyzx keyword xml</author></article>`

// wordOrderWords are wordOrderRecord's new words: before, between and after
// the vocabulary.
var wordOrderWords = [3]string{"00aardvark", "mmmquux", "zzzyzx"}

// TestStoreBackedAppendsAnswerAsLoad: an engine over a store file, opened
// heap-backed or mapped, takes tail appends — one bringing a label the
// document has not seen, two bringing words that sort before, between and
// after its whole vocabulary — and then answers and renders every request,
// with ExactContent on and off, as a fresh Load of the extended document
// does. Saving the store after the appends still writes the file's own
// bytes: nothing was written through the store's views.
func TestStoreBackedAppendsAnswerAsLoad(t *testing.T) {
	doc := datagen.DBLP(datagen.DBLPConfig{Seed: 9, NumRecords: 60, Keywords: []datagen.KeywordSpec{
		{Word: "xml", Count: 20}, {Word: "keyword", Count: 12},
	}})
	var image bytes.Buffer
	if err := store.Shred(doc, analysis.New()).Save(&image); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "doc.xks")
	if err := os.WriteFile(path, image.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	vocab := store.Shred(doc, analysis.New()).Keywords()
	before, between, after := wordOrderWords[0], wordOrderWords[1], wordOrderWords[2]
	_, known := slices.BinarySearch(vocab, between)
	if before >= vocab[0] || known || between < vocab[0] || between > vocab[len(vocab)-1] || after <= vocab[len(vocab)-1] {
		t.Fatalf("%q, %q and %q do not fall before, between and after the vocabulary %q … %q", before, between, after, vocab[0], vocab[len(vocab)-1])
	}
	order := fmt.Sprintf(wordOrderRecord, vocab[0])
	appends := []string{
		`<article key="new/1"><title>xml keyword fresh</title></article>`,
		newLabelRecord,
		order,
		`<inproceedings><author>xml writer</author><title>keyword search</title></inproceedings>`,
		order, // every word already in the dictionary, the new ones at its tail
	}
	fresh := reloaded(t, doc, appends...)
	for _, mode := range []store.OpenMode{store.OpenHeap, store.OpenMmap} {
		st, err := store.OpenFile(path, store.OpenOptions{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		e := FromStore(st)
		for _, rec := range appends {
			if err := e.AppendXML("0", rec); err != nil {
				t.Fatalf("%s: %v", st.Mode(), err)
			}
		}
		for _, q := range append([]string{"xml keyword", "keyword search", "xml", "keyword " + between, "order keyword"}, newLabelQueries...) {
			for _, opts := range crosscheckOptions() {
				for _, exact := range []bool{false, true} {
					opts.ExactContent = exact
					assertSameResults(t, fmt.Sprintf("%s %q %s/%s rank=%v limit=%d exact=%v", st.Mode(), q, opts.Algorithm, opts.Semantics, opts.Rank, opts.Limit, exact),
						fresh, e, withQuery(opts, q), true)
				}
			}
		}
		var again bytes.Buffer
		if err := st.Save(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), image.Bytes()) {
			t.Fatalf("%s: the store saves %d bytes after the appends, not the %d-byte file it opened", st.Mode(), again.Len(), image.Len())
		}
		e.Close()
	}
}

// requireOffSpineRefused appends snippet under parent, which must lie off
// the document's rightmost spine, and fails t unless AppendXML refuses it
// with ErrOffSpine and leaves the engine's version and source rows as they
// were.
func requireOffSpineRefused(t *testing.T, e *Engine, parent, snippet string) {
	t.Helper()
	gen, rows := e.Generation(), len(e.src.Load().labels.IDs)
	if err := e.AppendXML(parent, snippet); !errors.Is(err, ErrOffSpine) {
		t.Fatalf("AppendXML(%q) = %v, want ErrOffSpine", parent, err)
	}
	if e.Generation() != gen || len(e.src.Load().labels.IDs) != rows {
		t.Fatalf("refused append changed the engine: version %d -> %d, source rows %d -> %d", gen, e.Generation(), rows, len(e.src.Load().labels.IDs))
	}
}

// An off-spine append is refused with ErrOffSpine and publishes nothing:
// the version, the source tables and every answer are those from
// before the call, and a tail append still lands afterwards.
func TestAppendXMLOffSpineLeavesEngineUntouched(t *testing.T) {
	e := FromTree(reference.Publications())
	if err := e.AppendXML("0", `<article><title>xml keyword</title></article>`); err != nil {
		t.Fatal(err)
	}
	answers := func() []string {
		var out []string
		for _, q := range []string{reference.Q2, reference.Q3, "xml keyword", "kong"} {
			res, err := e.Search(context.Background(), Request{Query: q, Rank: true})
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range res.Fragments {
				out = append(out, q+": "+f.ASCII())
			}
		}
		return out
	}
	before, rows, delta := answers(), len(e.src.Load().labels.IDs), e.DeltaInfo()
	for _, parent := range []string{"0.0", "0.2", "0.2.0.0.0"} {
		requireOffSpineRefused(t, e, parent, `<article><title>kong xml keyword</title></article>`)
	}
	if got := answers(); !slices.Equal(got, before) {
		t.Fatalf("answers changed after refused appends:\n%q\nwant\n%q", got, before)
	}
	if got := len(e.src.Load().labels.IDs); got != rows {
		t.Fatalf("source tables hold %d rows after refused appends, want %d", got, rows)
	}
	if got := e.DeltaInfo(); got.Segments != delta.Segments || got.Appends != delta.Appends {
		t.Fatalf("delta state %+v after refused appends, want %+v", got, delta)
	}
	if err := e.AppendXML("0", `<article><title>kong</title></article>`); err != nil {
		t.Fatalf("tail append after refusals: %v", err)
	}
	if res, _ := e.Search(context.Background(), Request{Query: "kong"}); res == nil || len(res.Fragments) != 1 {
		t.Fatalf("kong after the tail append: %v", res)
	}
}

// Repeated appends keep data monotonicity: fragment counts never decrease
// for a fixed query.
func TestAppendXMLMonotone(t *testing.T) {
	e := FromTree(reference.Team())
	prev := 0
	for i := 0; i < 5; i++ {
		res, err := e.Search(context.Background(), Request{Query: "grizzlies position"})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Fragments) < prev {
			t.Fatalf("append %d: results dropped from %d to %d", i, prev, len(res.Fragments))
		}
		prev = len(res.Fragments)
		err = e.AppendXML("0.1", `<player><name>New</name><position>center</position></player>`)
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestTailAppendTokensArePinned pins the version tokens and first-page
// cursors a sequence of tail appends yields on an engine and on a
// two-document corpus. A token and the cursor bytes that embed it must not
// change meaning across releases: a cursor a client holds keeps resuming.
func TestTailAppendTokensArePinned(t *testing.T) {
	ctx := context.Background()
	e := FromTree(reference.Publications())
	c := NewCorpus()
	c.Add("pub", FromTree(reference.Publications()))
	c.Add("team", FromTree(reference.Team()))
	var got []string
	record := func() {
		t.Helper()
		res, err := e.Search(ctx, Request{Query: "xml keyword", Limit: 1})
		if err != nil {
			t.Fatal(err)
		}
		cres, err := c.Search(ctx, Request{Query: "xml keyword", Limit: 1})
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, fmt.Sprintf("%d %s | %d %d %s", e.Generation(), res.Cursor,
			c.Generation(), c.VersionFor(Request{Document: "team"}), cres.Cursor))
	}
	record()
	for _, rec := range []string{
		`<article><title>xml keyword ranking</title></article>`,
		`<article><title>keyword search</title><abstract>xml</abstract></article>`,
		`<book><title>xml</title></book>`,
	} {
		if err := e.AppendXML("0", rec); err != nil {
			t.Fatal(err)
		}
		if err := c.AppendXML("pub", "0", rec); err != nil {
			t.Fatal(err)
		}
		if err := c.AppendXML("team", "0", `<player><name>xml keyword</name></player>`); err != nil {
			t.Fatal(err)
		}
		record()
	}
	want := []string{
		"20 AxQB4YmapdfQjZSIAQ | 13547143800018946839 9707413277831106748 A5eWj4qq8MeAvAEB4YmapdfQjZSIAQ",
		"22 AxYB4YmapdfQjZSIAQ | 12233467836919121447 14172044091766285566 A6eM7LXpxYDjqQEB4YmapdfQjZSIAQ",
		"25 AxkB4YmapdfQjZSIAQ | 15156791431838860842 2542814103867258144 A6qMwuuMsO-r0gEB4YmapdfQjZSIAQ",
		"27 AxsB4YmapdfQjZSIAQ | 7844442313574255714 7007444917802436962 A-KYjM2P18PubAHhiZql19CNlIgB",
	}
	if !slices.Equal(got, want) {
		t.Errorf("tokens and cursors after each append:\n got %q\nwant %q", got, want)
	}
}
