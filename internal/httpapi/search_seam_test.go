package httpapi

// The service builds every buffered page with Backend.Search and runs
// Backend.Stream only for stream=1. This differential holds the two to one
// answer at that seam: the collected page and the drained stream, field by
// field and in encoded bytes, over every backend and request shape.

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"xks"
	"xks/internal/analysis"
	"xks/internal/datagen"
	"xks/internal/service"
	"xks/internal/store"
	"xks/internal/xmltree"
)

// seamTree is a document whose "alpha beta" answer spans several blocks of
// a collected page.
func seamTree(seed int64) *xmltree.Tree {
	return datagen.DBLP(datagen.DBLPConfig{
		Seed:       seed,
		NumRecords: 600,
		Keywords:   []datagen.KeywordSpec{{Word: "alpha", Count: 450}, {Word: "beta", Count: 450}},
	})
}

// drain is Backend.Stream run to its end and collected into a page.
func drain(ctx context.Context, b service.Backend, req xks.Request) (*xks.Results, error) {
	seq, trailer := b.Stream(ctx, req)
	var page []xks.CorpusFragment
	for f, err := range seq {
		if err != nil {
			return nil, err
		}
		page = append(page, f)
	}
	res := *trailer()
	res.Fragments = page
	return &res, nil
}

func TestBackendSearchIsTheDrainedStream(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dblp.xks")
	if err := store.Shred(seamTree(1), analysis.New()).SaveFile(path); err != nil {
		t.Fatal(err)
	}
	st, err := store.OpenFile(path, store.OpenOptions{Mode: store.OpenMmap})
	if err != nil {
		t.Fatal(err)
	}
	mapped := xks.FromStore(st)
	t.Cleanup(func() { mapped.Close() })
	corpus := xks.NewCorpus()
	corpus.Add("a", xks.FromTree(seamTree(1)))
	corpus.Add("b", xks.FromTree(seamTree(2)))
	corpus.Add("c", xks.FromTree(seamTree(3)))

	for _, b := range []struct {
		name string
		be   service.Backend
		doc  string
	}{
		{"tree", service.SingleDoc{Name: "dblp", Engine: xks.FromTree(seamTree(1))}, "dblp"},
		{"store-mmap", service.SingleDoc{Name: "dblp.xks", Engine: mapped}, "dblp.xks"},
		{"corpus", corpus, "b"},
	} {
		// compare runs req both ways, each under its own ctx (fault plans
		// are stateful), and fails unless they agree; it returns the page.
		compare := func(what string, req xks.Request, ctx func(context.Context) context.Context) *xks.Results {
			t.Helper()
			what = b.name + " " + what
			page, err := b.be.Search(ctx(t.Context()), req)
			drained, derr := drain(ctx(t.Context()), b.be, req)
			if err != nil || derr != nil {
				if err == nil || derr == nil || err.Error() != derr.Error() {
					t.Fatalf("%s: Search err %v, drained Stream err %v", what, err, derr)
				}
				return nil
			}
			if len(page.Fragments) != len(drained.Fragments) {
				t.Fatalf("%s: Search holds %d fragments, the drained stream %d", what, len(page.Fragments), len(drained.Fragments))
			}
			for i, f := range page.Fragments {
				g := drained.Fragments[i]
				if ToFragment(f, true) != ToFragment(g, true) || !reflect.DeepEqual(f.Nodes, g.Nodes) || f.Pruned != g.Pruned {
					t.Fatalf("%s: fragment %d: Search %+v, drained stream %+v", what, i, ToFragment(f, true), ToFragment(g, true))
				}
			}
			if !bytes.Equal(encodeRecords(page.Fragments, false), encodeRecords(drained.Fragments, false)) {
				t.Fatalf("%s: the encoded records differ", what)
			}
			ps, ds := page.Stats, drained.Stats
			if page.Query != drained.Query || page.Cursor != drained.Cursor ||
				page.Truncated != drained.Truncated || page.Truncation != drained.Truncation ||
				!reflect.DeepEqual(page.PerDocument, drained.PerDocument) ||
				!slices.Equal(ps.Keywords, ds.Keywords) || ps.KeywordNodes != ds.KeywordNodes ||
				ps.NumLCAs != ds.NumLCAs || ps.Selected != ds.Selected {
				t.Fatalf("%s: envelopes differ:\n  Search %+v\n  stream %+v", what, *page, *drained)
			}
			return page
		}
		plain := func(c context.Context) context.Context { return c }

		for _, doc := range []string{"", b.doc} {
			q := xks.Request{Query: "alpha beta", Document: doc}
			all := compare("doc="+doc+" unlimited", q, plain)
			if n := len(all.Fragments); n <= 128 || all.Cursor != "" {
				t.Fatalf("%s doc=%s: unlimited page of %d fragments, cursor %q; want more than two blocks, exhausted", b.name, doc, n, all.Cursor)
			}
			top := q
			top.Rank, top.Limit = true, 10
			if p := compare("doc="+doc+" rank=1&limit=10", top, plain); len(p.Fragments) != 10 {
				t.Fatalf("%s doc=%s: top-10 page holds %d fragments", b.name, doc, len(p.Fragments))
			}
			paged := q
			paged.Limit = 25
			page1 := compare("doc="+doc+" limit=25", paged, plain)
			if len(page1.Fragments) != 25 || page1.Cursor == "" {
				t.Fatalf("%s doc=%s: page 1 holds %d fragments, cursor %q", b.name, doc, len(page1.Fragments), page1.Cursor)
			}
			paged.Cursor = page1.Cursor
			if p := compare("doc="+doc+" limit=25 page 2", paged, plain); len(p.Fragments) != 25 || p.Fragments[0].Root == page1.Fragments[0].Root {
				t.Fatalf("%s doc=%s: page 2 holds %d fragments or did not advance", b.name, doc, len(p.Fragments))
			}

			// A BestEffort deadline burnt by the third fragment's
			// materialization cuts a block of 25 after two; its cursor
			// resumes the truncated prefix.
			cut := q
			cut.Limit, cut.Budget = 25, xks.BestEffort
			prefix := compare("doc="+doc+" best-effort cut", cut, func(c context.Context) context.Context {
				return within(t, materializeDeadline(c), 30*time.Millisecond)
			})
			if !prefix.Truncated || prefix.Truncation != xks.TruncMaterialize || len(prefix.Fragments) != 2 || prefix.Cursor == "" {
				t.Fatalf("%s doc=%s: best-effort page: truncated=%t (%q), %d fragments, cursor %q",
					b.name, doc, prefix.Truncated, prefix.Truncation, len(prefix.Fragments), prefix.Cursor)
			}
			cut.Cursor = prefix.Cursor
			rest := compare("doc="+doc+" truncated-prefix resume", cut, plain)
			if rest.Truncated || len(rest.Fragments) != 25 || rest.Fragments[0].Root != all.Fragments[2].Root {
				t.Fatalf("%s doc=%s: the resume holds %d fragments from %q, want 25 from the third fragment %q",
					b.name, doc, len(rest.Fragments), rest.Fragments[0].Root, all.Fragments[2].Root)
			}
		}

		if p := compare("unknown doc=", xks.Request{Query: "alpha beta", Document: "nope"}, plain); p != nil {
			t.Fatalf("%s: an unknown document answered a page", b.name)
		}
		if _, err := b.be.Search(t.Context(), xks.Request{Query: "alpha beta", Document: "nope"}); !errors.Is(err, xks.ErrUnknownDocument) {
			t.Fatalf("%s: unknown document: err %v, want ErrUnknownDocument", b.name, err)
		}
	}
}
