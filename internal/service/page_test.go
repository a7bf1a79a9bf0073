package service_test

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"xks"
	"xks/internal/service"
)

// fakeEncode stands in for the API layer's encoder: n bytes, counted.
func fakeEncode(calls *atomic.Int64, n int) func() []byte {
	return func() []byte {
		calls.Add(1)
		return make([]byte, n)
	}
}

// TestPageEncodedOncePerCacheEntry: a page that lives in the cache runs its
// encode once, however many requests race for it, and every caller — the
// miss that produced the page and the hits after it — gets the same bytes.
func TestPageEncodedOncePerCacheEntry(t *testing.T) {
	sv := service.New(testCorpus(t), service.Config{CacheSize: 8})
	req := xks.Request{Query: "liu keyword"}
	miss, cached, err := sv.SearchPage(context.Background(), req)
	if err != nil || cached {
		t.Fatalf("miss: cached=%t err=%v", cached, err)
	}
	var calls atomic.Int64
	got := make([][]byte, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hit, cached, err := sv.SearchPage(context.Background(), req)
			if err != nil || !cached {
				t.Errorf("hit: cached=%t err=%v", cached, err)
				return
			}
			got[i] = hit.Encoded(fakeEncode(&calls, 100))
		}()
	}
	wg.Wait()
	first := miss.Encoded(fakeEncode(&calls, 100))
	if calls.Load() != 1 {
		t.Fatalf("encode ran %d times for one cache entry, want 1", calls.Load())
	}
	for i, e := range got {
		if len(e) != len(first) || &e[0] != &first[0] {
			t.Fatalf("caller %d got a different encoding than the others", i)
		}
	}
	if n := sv.CacheBodyBytes(); n != 100 {
		t.Fatalf("CacheBodyBytes = %d, want the entry's 100", n)
	}
}

// TestUncachedPageRetainsNothing: with the cache off there is no entry for
// the bytes to live with, so each call encodes.
func TestUncachedPageRetainsNothing(t *testing.T) {
	sv := service.New(testCorpus(t), service.Config{})
	page, _, err := sv.SearchPage(context.Background(), xks.Request{Query: "liu keyword"})
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	page.Encoded(fakeEncode(&calls, 100))
	page.Encoded(fakeEncode(&calls, 100))
	if calls.Load() != 2 || sv.CacheBodyBytes() != 0 {
		t.Fatalf("uncached page: %d encodes, %d bytes retained; want 2 and 0", calls.Load(), sv.CacheBodyBytes())
	}
}

// TestEncodedBytesFollowTheEntry: eviction and invalidation drop the bytes
// with the entry that held them — the next page under the key starts empty.
func TestEncodedBytesFollowTheEntry(t *testing.T) {
	e, err := xks.LoadString(`<bib><paper><title>xml search</title></paper></bib>`)
	if err != nil {
		t.Fatal(err)
	}
	sv := service.New(service.SingleDoc{Name: "bib", Engine: e}, service.Config{CacheSize: 1})
	var calls atomic.Int64
	fill := func(q string, n int) {
		t.Helper()
		page, _, err := sv.SearchPage(context.Background(), xks.Request{Query: q})
		if err != nil {
			t.Fatal(err)
		}
		page.Encoded(fakeEncode(&calls, n))
	}
	fill("search", 100)
	fill("xml", 7) // one entry of capacity: evicts "search"
	if n := sv.CacheBodyBytes(); n != 7 {
		t.Fatalf("after eviction CacheBodyBytes = %d, want 7", n)
	}
	if err := e.AppendXML("0", `<paper><title>more xml</title></paper>`); err != nil {
		t.Fatal(err)
	}
	fill("xml", 9) // new generation: a new page, encoded again
	if calls.Load() != 3 || sv.CacheBodyBytes() != 9 {
		t.Fatalf("after the append: %d encodes, %d bytes; want 3 and 9", calls.Load(), sv.CacheBodyBytes())
	}
}
