package xks

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"xks/internal/analysis"
	"xks/internal/reference"
	"xks/internal/store"
	"xks/internal/workload"
)

// TestCorpusWithStoreBackedEngines exercises a mixed corpus: one
// tree-backed document and one store-backed document (the paper's shredded
// relational layout) behind the same staged search path.
func TestCorpusWithStoreBackedEngines(t *testing.T) {
	c := NewCorpus()
	c.Add("tree.xml", FromTree(reference.Publications()))
	c.Add("store.xks", FromStore(store.Shred(reference.Publications(), analysis.New())))

	res, err := c.Search(context.Background(), Request{Query: reference.Q1})
	if err != nil {
		t.Fatal(err)
	}
	if res.PerDocument["tree.xml"] == 0 || res.PerDocument["store.xks"] == 0 {
		t.Fatalf("expected fragments from both documents, got %v", res.PerDocument)
	}
	if res.PerDocument["tree.xml"] != res.PerDocument["store.xks"] {
		t.Fatalf("tree and store shred the same document; fragment counts differ: %v", res.PerDocument)
	}
	byDoc := map[string][]CorpusFragment{}
	for _, f := range res.Fragments {
		byDoc[f.Document] = append(byDoc[f.Document], f)
	}
	for i, tf := range byDoc["tree.xml"] {
		sf := byDoc["store.xks"][i]
		if tf.Root != sf.Root || tf.Len() != sf.Len() {
			t.Fatalf("fragment %d: tree %s/%d nodes vs store %s/%d nodes",
				i, tf.Root, tf.Len(), sf.Root, sf.Len())
		}
		if sf.XML() == "" || sf.ASCII() == "" {
			t.Fatalf("store-backed fragment %d rendered empty", i)
		}
	}

	// Ranked + limited across the mixed corpus still materializes only the
	// selection, and store-backed fragments survive it.
	ranked, err := c.Search(context.Background(), Request{Query: reference.Q1, Rank: true, Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked.Fragments) != 2 {
		t.Fatalf("got %d fragments, want 2", len(ranked.Fragments))
	}
	for _, f := range ranked.Fragments {
		if f.XML() == "" {
			t.Fatalf("fragment %s from %s rendered empty", f.Root, f.Document)
		}
	}

	// A document-filtered search still reaches the store-backed engine.
	oneReq := Request{Query: reference.Q1}
	oneReq.Document = "store.xks"
	one, err := c.Search(context.Background(), oneReq)
	if err != nil {
		t.Fatal(err)
	}
	if len(one.Fragments) == 0 {
		t.Fatal("no fragments from store-backed document")
	}
}

// TestCorpusFragmentsStreams pins the corpus-level streaming iterator: it
// yields the same fragments as Search in the same order, an early break
// materializes exactly the consumed prefix, and the trailer's cursor
// resumes after it — the tentpole late-materialization contract of the
// streaming results API.
func TestCorpusFragmentsStreams(t *testing.T) {
	c := NewCorpus()
	for i := int64(0); i < 5; i++ {
		c.Add(fmt.Sprintf("doc%d.xml", i), crosscheckDBLPEngine(t, 30+i))
	}
	c.Workers = 4
	w := workload.DBLP()
	q, err := w.Expand(w.Queries[0])
	if err != nil {
		t.Fatal(err)
	}

	for _, rank := range []bool{false, true} {
		full, err := c.Search(context.Background(), Request{Query: q, Rank: rank})
		if err != nil {
			t.Fatal(err)
		}
		if len(full.Fragments) < 4 {
			t.Skipf("query %q yields %d fragments; need a few to stream", q, len(full.Fragments))
		}

		var streamed []CorpusFragment
		all, _ := c.Stream(context.Background(), Request{Query: q, Rank: rank})
		for f, err := range all {
			if err != nil {
				t.Fatal(err)
			}
			streamed = append(streamed, f)
		}
		if len(streamed) != len(full.Fragments) {
			t.Fatalf("rank=%v: streamed %d fragments, Search returned %d", rank, len(streamed), len(full.Fragments))
		}
		for i := range streamed {
			if streamed[i].Document != full.Fragments[i].Document || streamed[i].Root != full.Fragments[i].Root {
				t.Fatalf("rank=%v fragment %d: streamed %s/%s vs %s/%s", rank, i,
					streamed[i].Document, streamed[i].Root, full.Fragments[i].Document, full.Fragments[i].Root)
			}
		}

		// Early break: exactly the consumed fragments are assembled — the
		// acceptance contract of the streaming API.
		before := corpusAssembled(c)
		n := 0
		seq, trailer := c.Stream(context.Background(), Request{Query: q, Rank: rank})
		for _, err := range seq {
			if err != nil {
				t.Fatal(err)
			}
			if n++; n == 2 {
				break
			}
		}
		if assembled := corpusAssembled(c) - before; assembled != 2 {
			t.Fatalf("rank=%v: early break assembled %d fragments, want exactly 2", rank, assembled)
		}
		// The abandoned stream is resumable from its trailer.
		res := trailer()
		if next := nextOffset(t, res.Cursor); next != 2 {
			t.Fatalf("rank=%v: abandoned stream Cursor=%q resumes at %d, want 2", rank, res.Cursor, next)
		}
		rest, err := c.Search(context.Background(), Request{Query: q, Rank: rank, Cursor: res.Cursor})
		if err != nil {
			t.Fatal(err)
		}
		if got := 2 + len(rest.Fragments); got != len(full.Fragments) {
			t.Fatalf("rank=%v: prefix + resume = %d fragments, want %d", rank, got, len(full.Fragments))
		}
	}

	// An unknown document filter surfaces through the iterator.
	var got error
	absent, _ := c.Stream(context.Background(), Request{Query: q, Document: "absent.xml"})
	for _, err := range absent {
		got = err
	}
	if !errors.Is(got, ErrUnknownDocument) {
		t.Fatalf("unknown document stream: err = %v, want ErrUnknownDocument", got)
	}
}

// TestCorpusSearchAssemblyCounts asserts exact assembly counts for the
// buffered fan-out across its selection shapes: materialization must run
// for precisely the returned page, never for candidates other documents
// already covered.
func TestCorpusSearchAssemblyCounts(t *testing.T) {
	c := NewCorpus()
	for i := int64(0); i < 5; i++ {
		c.Add(fmt.Sprintf("doc%d.xml", i), crosscheckDBLPEngine(t, 40+i))
	}
	c.Workers = 4
	// Pick the workload query with the most candidates, so every paging
	// shape below has room to overshoot if the fix regresses.
	w := workload.DBLP()
	queries, err := w.ExpandAll()
	if err != nil {
		t.Fatal(err)
	}
	var (
		q     string
		total *Results
	)
	for _, cand := range queries {
		res, err := c.Search(context.Background(), Request{Query: cand})
		if err != nil {
			t.Fatal(err)
		}
		if total == nil || res.Stats.NumLCAs > total.Stats.NumLCAs {
			q, total = cand, res
		}
	}
	if total.Stats.NumLCAs < 8 {
		t.Skipf("richest query %q yields %d candidates; need several documents' worth", q, total.Stats.NumLCAs)
	}

	cases := []struct {
		name string
		req  Request
		want int
	}{
		{"ranked+limit", Request{Query: q, Rank: true, Limit: 3}, 3},
		{"ranked+limit+offset", Request{Query: q, Rank: true, Limit: 3, Offset: 2}, 3},
		{"unranked+limit", Request{Query: q, Limit: 4}, 4},
		{"unranked+limit satisfied by first docs", Request{Query: q, Limit: 2}, 2},
		{"ranked, no limit", Request{Query: q, Rank: true}, total.Stats.NumLCAs},
		{"best-effort ranked+limit", Request{Query: q, Rank: true, Limit: 3, Budget: BestEffort}, 3},
	}
	for _, tc := range cases {
		before := corpusAssembled(c)
		res, err := c.Search(context.Background(), tc.req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(res.Fragments) != tc.want {
			t.Fatalf("%s: %d fragments, want %d", tc.name, len(res.Fragments), tc.want)
		}
		if assembled := int(corpusAssembled(c) - before); assembled != tc.want {
			t.Errorf("%s: assembled %d fragments for a %d-fragment page (of %d candidates)",
				tc.name, assembled, tc.want, total.Stats.NumLCAs)
		}
	}
}

// TestCorpusRankedLimitedDeterministic runs the same ranked+limited search
// concurrently and repeatedly over a multi-worker corpus and asserts the
// selection across documents always yields the same ordered result (run
// under -race in CI).
func TestCorpusRankedLimitedDeterministic(t *testing.T) {
	c := NewCorpus()
	for i := int64(0); i < 5; i++ {
		c.Add(fmt.Sprintf("doc%d.xml", i), crosscheckDBLPEngine(t, 10+i))
	}
	c.Workers = 4

	w := workload.DBLP()
	q, err := w.Expand(w.Queries[0])
	if err != nil {
		t.Fatal(err)
	}
	opts := Request{Rank: true, Limit: 4}

	signature := func(res *Results) string {
		s := ""
		for _, f := range res.Fragments {
			s += fmt.Sprintf("%s/%s/%.9f;", f.Document, f.Root, f.Score)
		}
		return s
	}
	base, err := c.Search(context.Background(), withQuery(opts, q))
	if err != nil {
		t.Fatal(err)
	}
	want := signature(base)

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				res, err := c.Search(context.Background(), withQuery(opts, q))
				if err != nil {
					errs <- err
					return
				}
				if got := signature(res); got != want {
					errs <- fmt.Errorf("nondeterministic result:\n got %s\nwant %s", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
