//go:build !race

package service_test

import (
	"context"
	"testing"

	"xks"
	"xks/internal/service"
)

// TestSearchPageHitAllocs: a hit hands back the cache entry itself, so its
// allocations (planning and keying the request) do not depend on the page.
func TestSearchPageHitAllocs(t *testing.T) {
	sv := service.New(testCorpus(t), service.Config{CacheSize: 8})
	hit := func(limit int) (allocs float64, fragments int) {
		req := xks.Request{Query: "name", Limit: limit}
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
	// One query, so planning and keying cost the same; only the page differs.
	one, n1 := hit(1)
	all, n := hit(0)
	if n1 != 1 || n <= n1 {
		t.Fatalf("pages have %d and %d fragments; want one and several", n1, n)
	}
	if one != all {
		t.Fatalf("a hit allocates %v times for a page of one fragment and %v for one of %d; want the same", one, all, n)
	}
}
