//go:build !race

package service_test

import (
	"context"
	"testing"

	"xks"
	"xks/internal/datagen"
	"xks/internal/service"
)

// TestSearchPageHitAllocs: a hit hands back the cache entry itself, so its
// allocations do not depend on the page — and it plans nothing: keying the
// request and timing it are all that is left, whatever the query's terms,
// posting lists or label predicates would cost to resolve. The key is the
// one string a canonical query costs (5 objects a hit, 10 while the key was
// written through fmt over a re-joined query; the bound was 12).
func TestSearchPageHitAllocs(t *testing.T) {
	sv := service.New(testCorpus(t), service.Config{CacheSize: 8})
	hit := func(req xks.Request) (allocs float64, fragments int) {
		page, _, err := sv.SearchPage(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		allocs = testing.AllocsPerRun(100, func() {
			if _, cached, err := sv.SearchPage(context.Background(), req); err != nil || !cached {
				t.Fatalf("cached=%t err=%v", cached, err)
			}
		})
		return allocs, len(page.Fragments)
	}
	// One query, so keying costs the same; only the page differs.
	one, n1 := hit(xks.Request{Query: "name", Limit: 1})
	all, n := hit(xks.Request{Query: "name"})
	if n1 != 1 || n <= n1 {
		t.Fatalf("pages have %d and %d fragments; want one and several", n1, n)
	}
	if one != all {
		t.Fatalf("a hit allocates %v times for a page of one fragment and %v for one of %d; want the same", one, all, n)
	}
	for _, q := range []string{"liu keyword", "liu keyword xml search", "title:xml author:liu keyword"} {
		if allocs, _ := hit(xks.Request{Query: q}); allocs > 7 {
			t.Errorf("a hit on %q allocates %v times, want <= 7: the request is being planned for its cache key", q, allocs)
		}
	}
}

// TestColdMissAllocs pins a cache miss — every request of a server whose
// cache cannot answer it — to what the backend's collected page costs: the
// buffered page is one Search, assembled as one block, so a ranked SLCA page
// of 40 fragments allocates what one of 10 does, over a single document and
// a corpus alike — also when the longer page meets keyword masks the shorter
// does not ([alpha] and [beta]; both pages hold [alpha beta]): a kept node
// holds its keyword mask, and the matched keywords are read off the plan's
// on demand (Fragment.NodeMatched). Draining the backend's stream instead
// costs several objects per fragment. The counts fell by one (60 → 59,
// 103 → 102) when the request-wide array of Matched slices went, and the
// corpus's by one more (102 → 101) when its fan-out stopped building a slice
// of document indices to hand its workers, and by nine more (59 → 50,
// 101 → 92) when the request's cache key and cursor fingerprint came to be
// appended with strconv from a query already in canonical form. They fell
// by two a document (50 → 48, 92 → 88) when the pipeline parameters came to
// carry the scorer and the content lookup the pinned source state holds
// instead of two method values built per search, and the corpus's by seven
// more (88 → 81) when its version token became an FNV-1a fold that neither
// boxes the document names for fmt nor puts the hash on the heap. They fell
// by five a document (48 → 43, 81 → 71) when the loser tree that the
// page's scoring pass built per search (its handle, positions, tree and
// reordered lists) gave way to the pooled mask merge, and the corpus's by
// one more (71 → 70) when its ranked page came to be selected from the
// documents' windows alone, with no top-K heap beside them. They fell by two
// a document (43 → 41, 70 → 66) when an untraced search stopped making the
// planner decision only explain reads, and by three and two more (41 → 38,
// 66 → 64) when a ranked window came to be sorted in place by
// slices.SortFunc: a lone document's is no longer copied, and no sort builds
// sort.Slice's reflect swapper.
func TestColdMissAllocs(t *testing.T) {
	tree := func(seed int64) *xks.Engine {
		return xks.FromTree(datagen.DBLP(datagen.DBLPConfig{Seed: seed, NumRecords: 400, Keywords: []datagen.KeywordSpec{
			{Word: "alpha", Count: 200}, {Word: "beta", Count: 200},
		}}))
	}
	corpus := xks.NewCorpus()
	corpus.Add("a", tree(3))
	corpus.Add("b", tree(4))
	corpus.Workers = 1
	for _, b := range []struct {
		name      string
		be        service.Backend
		ten, more float64
	}{
		{"single", service.SingleDoc{Name: "dblp", Engine: tree(3)}, 38, 38},
		{"corpus", corpus, 64, 64},
	} {
		sv := service.New(b.be, service.Config{}) // no cache: every request misses
		for _, c := range []struct {
			limit int
			want  float64
		}{{10, b.ten}, {40, b.more}} {
			req := xks.Request{Query: "alpha beta", Semantics: xks.SLCAOnly, Rank: true, Limit: c.limit}
			if p, _, err := sv.SearchPage(context.Background(), req); err != nil || len(p.Fragments) != c.limit {
				t.Fatalf("%s: limit=%d page: err %v", b.name, c.limit, err)
			}
			got := testing.AllocsPerRun(50, func() {
				if _, _, err := sv.SearchPage(context.Background(), req); err != nil {
					t.Fatal(err)
				}
			})
			if got != c.want {
				t.Errorf("%s: a cold miss of a limit=%d page allocates %.0f objects, want exactly %.0f", b.name, c.limit, got, c.want)
			}
		}
	}
}

// TestStreamMissAllocs pins a live bounded stream — a limit=10
// Service.Stream, drained, with the cache on — to what the backend's stream
// costs: the service keys nothing, collects nothing and stores nothing. Two
// requests alternate through a one-entry cache, so a service that cached
// drained streams would miss on each of them too. The count fell from 71 to
// 62 when streams stopped resolving a cache key and collecting their page
// into a slice for the cache.
func TestStreamMissAllocs(t *testing.T) {
	engine := xks.FromTree(datagen.DBLP(datagen.DBLPConfig{Seed: 3, NumRecords: 400, Keywords: []datagen.KeywordSpec{
		{Word: "alpha", Count: 200}, {Word: "beta", Count: 200},
	}}))
	sv := service.New(service.SingleDoc{Name: "dblp", Engine: engine}, service.Config{CacheSize: 1})
	reqs := [2]xks.Request{
		{Query: "alpha beta", Semantics: xks.SLCAOnly, Rank: true, Limit: 10},
		{Query: "beta alpha", Semantics: xks.SLCAOnly, Rank: true, Limit: 10},
	}
	i := 0
	got := testing.AllocsPerRun(50, func() {
		seq, trailer := sv.Stream(context.Background(), reqs[i%2])
		i++
		n := 0
		for _, err := range seq {
			if err != nil {
				t.Fatal(err)
			}
			n++
		}
		if n != 10 || trailer().Cursor == "" {
			t.Fatalf("the stream yielded %d fragments, cursor %q; want 10 and a next page", n, trailer().Cursor)
		}
	})
	if want := 62.0; got > want {
		t.Errorf("a drained limit=10 stream allocates %.0f objects, want at most %.0f", got, want)
	}
}
