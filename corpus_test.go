package xks

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"xks/internal/reference"
)

func testCorpus(t *testing.T) *Corpus {
	t.Helper()
	c := NewCorpus()
	c.Add("publications", FromTree(reference.Publications()))
	c.Add("team", FromTree(reference.Team()))
	return c
}

func TestCorpusSearchMergesDocuments(t *testing.T) {
	c := testCorpus(t)
	// "keyword" matches only the publications document.
	res, err := c.Search(context.Background(), Request{Query: "liu keyword"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fragments) != 2 {
		t.Fatalf("fragments = %d", len(res.Fragments))
	}
	for _, f := range res.Fragments {
		if f.Document != "publications" {
			t.Errorf("fragment from %s", f.Document)
		}
	}
	if res.PerDocument["publications"] != 2 || res.PerDocument["team"] != 0 {
		t.Errorf("per-document counts = %v", res.PerDocument)
	}
}

func TestCorpusSearchBothDocuments(t *testing.T) {
	c := testCorpus(t)
	// "name" matches via labels in both documents.
	res, err := c.Search(context.Background(), Request{Query: "name"})
	if err != nil {
		t.Fatal(err)
	}
	if res.PerDocument["publications"] == 0 || res.PerDocument["team"] == 0 {
		t.Errorf("per-document counts = %v", res.PerDocument)
	}
	// Unranked order: document insertion order.
	if res.Fragments[0].Document != "publications" {
		t.Errorf("first fragment from %s", res.Fragments[0].Document)
	}
}

// TestEmptyCorpusSearch: a corpus with no documents answers every page
// shape with an empty page.
func TestEmptyCorpusSearch(t *testing.T) {
	c := NewCorpus()
	for _, req := range []Request{{Query: "xml"}, {Query: "xml", Rank: true, Limit: 3}, {Query: "xml", Limit: 3}} {
		res, err := c.Search(context.Background(), req)
		if err != nil || len(res.Fragments) != 0 || res.Cursor != "" || res.Stats.NumLCAs != 0 {
			t.Fatalf("%+v: %+v, %v", req, res, err)
		}
	}
}

func TestCorpusRankAcrossDocuments(t *testing.T) {
	c := testCorpus(t)
	res, err := c.Search(context.Background(), Request{Query: "name", Rank: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Fragments); i++ {
		if res.Fragments[i].Score > res.Fragments[i-1].Score+1e-12 {
			t.Fatalf("scores not descending at %d", i)
		}
	}
}

func TestCorpusLimitAfterMerge(t *testing.T) {
	c := testCorpus(t)
	res, err := c.Search(context.Background(), Request{Query: "name", Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fragments) != 1 {
		t.Errorf("limit ignored: %d", len(res.Fragments))
	}
}

func TestCorpusUnsearchableQueryFails(t *testing.T) {
	c := testCorpus(t)
	if _, err := c.Search(context.Background(), Request{Query: "the of"}); err == nil {
		t.Error("stop-word query should fail")
	}
}

func TestCorpusAddReplaces(t *testing.T) {
	c := testCorpus(t)
	c.Add("team", FromTree(reference.Publications()))
	if c.Len() != 2 {
		t.Errorf("Len = %d after replacement", c.Len())
	}
	if got := c.Names(); len(got) != 2 || got[0] != "publications" || got[1] != "team" {
		t.Errorf("Names = %v", got)
	}
	if c.Engine("team") == nil || c.Engine("absent") != nil {
		t.Error("Engine lookup broken")
	}
}

func TestLoadDir(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("a.xml", `<a><t>alpha keyword</t></a>`)
	write("b.xml", `<b><t>beta keyword</t></b>`)
	write("ignored.txt", `not xml`)
	if err := os.Mkdir(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}

	c, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
	res, err := c.Search(context.Background(), Request{Query: "keyword"})
	if err != nil {
		t.Fatal(err)
	}
	if res.PerDocument["a.xml"] == 0 || res.PerDocument["b.xml"] == 0 {
		t.Errorf("per-document = %v", res.PerDocument)
	}

	if _, err := LoadDir(filepath.Join(dir, "sub")); err == nil {
		t.Error("empty dir should fail")
	}
	if _, err := LoadDir(filepath.Join(dir, "missing")); err == nil {
		t.Error("missing dir should fail")
	}

	write("broken.xml", `<unclosed>`)
	if _, err := LoadDir(dir); err == nil {
		t.Error("broken document should fail loading")
	}
}

func TestCorpusUnrankedOrderDeterministic(t *testing.T) {
	c := testCorpus(t)
	c.Workers = 4
	baseline, err := c.Search(context.Background(), Request{Query: "name"})
	if err != nil {
		t.Fatal(err)
	}
	// Fragments must follow document insertion order, then document order
	// within each document — on every run, regardless of worker timing.
	seenTeam := false
	for _, f := range baseline.Fragments {
		if f.Document == "team" {
			seenTeam = true
		} else if seenTeam {
			t.Fatalf("insertion order violated: %v", baseline.Fragments)
		}
	}
	for run := 0; run < 20; run++ {
		res, err := c.Search(context.Background(), Request{Query: "name"})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Fragments) != len(baseline.Fragments) {
			t.Fatalf("run %d: %d fragments, want %d", run, len(res.Fragments), len(baseline.Fragments))
		}
		for i := range res.Fragments {
			if res.Fragments[i].Document != baseline.Fragments[i].Document ||
				res.Fragments[i].Root != baseline.Fragments[i].Root {
				t.Fatalf("run %d: order differs at %d", run, i)
			}
		}
	}
}

func TestCorpusSearchAggregatesStats(t *testing.T) {
	c := testCorpus(t)
	res, err := c.Search(context.Background(), Request{Query: "name"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats.Keywords) != 1 || res.Stats.Keywords[0] != "name" {
		t.Errorf("keywords = %v", res.Stats.Keywords)
	}
	if res.Stats.NumLCAs != len(res.Fragments) {
		t.Errorf("NumLCAs = %d, fragments = %d", res.Stats.NumLCAs, len(res.Fragments))
	}
	if res.Stats.KeywordNodes == 0 || res.Stats.Elapsed <= 0 {
		t.Errorf("stats = %+v", res.Stats)
	}
}

func TestCorpusSearchDocument(t *testing.T) {
	c := testCorpus(t)
	res, err := c.Search(context.Background(), Request{Query: "liu keyword", Document: "publications"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fragments) != 2 || res.Fragments[0].Document != "publications" {
		t.Fatalf("fragments = %+v", res.Fragments)
	}
	if res.PerDocument["publications"] != 2 {
		t.Errorf("PerDocument = %v", res.PerDocument)
	}
	if res.Stats.NumLCAs != 2 {
		t.Errorf("NumLCAs = %d", res.Stats.NumLCAs)
	}
	if _, err := c.Search(context.Background(), Request{Query: "liu", Document: "absent"}); !errors.Is(err, ErrUnknownDocument) {
		t.Errorf("unknown document error = %v", err)
	}
}

func TestCorpusDocumentsAndGeneration(t *testing.T) {
	c := testCorpus(t)
	docs := c.Documents()
	if len(docs) != 2 || docs[0].Name != "publications" || docs[1].Name != "team" {
		t.Fatalf("documents = %+v", docs)
	}
	for _, d := range docs {
		if d.Words == 0 || d.Nodes == 0 {
			t.Errorf("document %s missing sizes: %+v", d.Name, d)
		}
	}
	// Generation is a snapshot-vector hash, not a counter: assert it
	// changes on every structural mutation (monotonicity is not part of the
	// contract — staleness detection is exact-token matching plus the
	// snapshot registry).
	g0 := c.Generation()
	c.Add("extra", FromTree(reference.Team()))
	g1 := c.Generation()
	if g1 == g0 {
		t.Error("Add must change the generation")
	}
	if err := c.Engine("extra").AppendXML("0", `<member><name>new person</name></member>`); err != nil {
		t.Fatal(err)
	}
	g2 := c.Generation()
	if g2 == g1 {
		t.Error("AppendXML on a member engine must change the corpus generation")
	}
	// Replacing an engine gets a fresh registration nonce, so the token
	// can never revisit a value the replaced document's cache entries or
	// cursors were tagged with — even though the engine contents (and thus
	// its own version token) are identical.
	c.Add("extra", FromTree(reference.Team()))
	g3 := c.Generation()
	if g3 == g2 || g3 == g1 || g3 == g0 {
		t.Errorf("Generation after replacement = %d revisits an earlier token (%d %d %d)", g3, g0, g1, g2)
	}
}

func TestCorpusConcurrentSafety(t *testing.T) {
	c := testCorpus(t)
	c.Workers = 4
	done := make(chan error, 16)
	for i := 0; i < 16; i++ {
		go func() {
			_, err := c.Search(context.Background(), Request{Query: "name", Rank: true})
			done <- err
		}()
	}
	for i := 0; i < 16; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
