//go:build !race

package service_test

import (
	"context"
	"testing"

	"xks"
	"xks/internal/service"
)

// TestSearchPageHitAllocs: a hit hands back the cache entry itself, so its
// allocations do not depend on the page — and it plans nothing: keying the
// request and timing it are all that is left, whatever the query's terms,
// posting lists or label predicates would cost to resolve.
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
		if allocs, _ := hit(xks.Request{Query: q}); allocs > 12 {
			t.Errorf("a hit on %q allocates %v times, want <= 12: the request is being planned for its cache key", q, allocs)
		}
	}
}
