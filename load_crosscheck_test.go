package xks

import (
	"bytes"
	"slices"
	"testing"

	"xks/internal/datagen"
	"xks/internal/nid"
	"xks/internal/reference"
	"xks/internal/xmltree"
)

// mixedDoc puts text before, between and after children, in CDATA and
// through references, and declares namespaces: a row's text and content
// are complete only at its end tag.
const mixedDoc = `<doc id="d&amp;1" xmlns:x="urn:x" x:lang="EN">Mixed <b>bold &lt;XML&gt;</b> tail
 text<![CDATA[ cdata xml ]]> &#x4B;eyword<i>keyword <u>search</u> more</i>after <!-- c --> xml<e/>
 <x:f x:k="v w">keyword</x:f>last</doc>`

// TestLoadMatchesFromTree pins the bytes path to the tree path: Load of a
// document's bytes and FromTree of Parse of the same bytes publish the
// same columns — node table, labels, content, text, attributes — and
// posting lists, and answer and render every request alike, under
// ValidRTF and MaxMatch and both semantics. The documents are the
// evaluation corpora, the paper's figure documents and a mixed-content
// document.
func TestLoadMatchesFromTree(t *testing.T) {
	docs := map[string]string{"mixed": mixedDoc}
	for name, tr := range map[string]*xmltree.Tree{
		"dblp":         datagen.DBLP(datagen.DBLPConfig{Seed: 5, NumRecords: 400}),
		"xmark":        datagen.XMark(datagen.XMarkConfig{Seed: 6, Items: 80}),
		"publications": reference.Publications(),
		"team":         reference.Team(),
	} {
		var b bytes.Buffer
		if err := xmltree.WriteXML(&b, tr.Root); err != nil {
			t.Fatal(err)
		}
		docs[name] = b.String()
	}
	for name, doc := range docs {
		loaded, err := LoadString(doc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tree, err := xmltree.ParseString(doc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		parsed := FromTree(tree)
		words := assertSameColumns(t, name, parsed, loaded)
		// Queries over the whole vocabulary: words one, two and three at a
		// time, striding through it.
		var queries []string
		for i := 0; i+2 < len(words); i += 1 + len(words)/40 {
			queries = append(queries, words[i], words[i]+" "+words[i+1], words[i]+" "+words[i+1]+" "+words[len(words)-1-i])
		}
		for _, q := range queries {
			for _, algo := range []Algorithm{ValidRTF, MaxMatch} {
				for _, sem := range []Semantics{AllLCA, SLCAOnly} {
					req := Request{Query: q, Algorithm: algo, Semantics: sem, Rank: true}
					assertSameResults(t, name+"/"+q+"/"+algo.String()+"/"+sem.String(), parsed, loaded, req, true)
				}
			}
		}
	}
}

// assertSameColumns fails unless two engines publish identical columns and
// posting lists, and returns their vocabulary in lexical order.
func assertSameColumns(t *testing.T, name string, want, got *Engine) []string {
	t.Helper()
	wt, gt := want.head.Load().Tab, got.head.Load().Tab
	ws, gs := want.src.Load(), got.src.Load()
	wp, wd, wo := wt.Columns()
	gp, gd, gof := gt.Columns()
	if !slices.Equal(wp, gp) || !slices.Equal(wd, gd) || !slices.Equal(wo, gof) {
		t.Fatalf("%s: node tables differ", name)
	}
	if !slices.Equal(ws.labels.IDs, gs.labels.IDs) || !slices.Equal(ws.labels.Names, gs.labels.Names) {
		t.Fatalf("%s: label columns differ", name)
	}
	if !slices.Equal(ws.content.Off, gs.content.Off) {
		t.Fatalf("%s: content row offsets differ", name)
	}
	for id := range nid.ID(wt.Len()) {
		if w, g := ws.content.RowWords(id), gs.content.RowWords(id); !slices.Equal(w, g) {
			t.Fatalf("%s: node %d content %q against %q", name, id, w, g)
		}
	}
	for _, c := range [][2][]byte{{ws.text.Data, gs.text.Data}, {ws.attrs.Data, gs.attrs.Data}} {
		if !bytes.Equal(c[0], c[1]) {
			t.Fatalf("%s: text or attribute bytes differ", name)
		}
	}
	if !slices.Equal(ws.text.Off, gs.text.Off) || !slices.Equal(ws.attrs.Off, gs.attrs.Off) {
		t.Fatalf("%s: text or attribute offsets differ", name)
	}
	words := slices.Compact(slices.Sorted(slices.Values(ws.content.Words)))
	wix, gix := want.Index(), got.Index()
	if wix.NumWords() != len(words) || gix.NumWords() != len(words) {
		t.Fatalf("%s: %d and %d posting lists for %d words", name, wix.NumWords(), gix.NumWords(), len(words))
	}
	for _, w := range words {
		if !slices.Equal(wix.LookupIDs(w), gix.LookupIDs(w)) {
			t.Fatalf("%s: postings of %q differ: %v vs %v", name, w, wix.LookupIDs(w), gix.LookupIDs(w))
		}
	}
	if wt.Len() == 0 || len(words) == 0 {
		t.Fatalf("%s: empty document", name)
	}
	return words
}
