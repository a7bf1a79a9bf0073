package service_test

import (
	"context"
	"sync"
	"testing"

	"xks"
	"xks/internal/datagen"
	"xks/internal/service"
)

var (
	benchOnce     sync.Once
	benchSearcher service.Backend
)

// benchQueries is a repeated-query workload: a small hot set hit over and
// over, the locality pattern the cache exists for.
var benchQueries = []string{
	"lca keyword",
	"ranking fragment",
	"lca fragment",
	"keyword ranking",
}

func benchSetup(b *testing.B) service.Backend {
	benchOnce.Do(func() {
		specs := []datagen.KeywordSpec{
			{Word: "lca", Count: 120},
			{Word: "keyword", Count: 150},
			{Word: "fragment", Count: 90},
			{Word: "ranking", Count: 60},
		}
		tree := datagen.DBLP(datagen.DBLPConfig{Seed: 11, NumRecords: 800, Keywords: specs})
		benchSearcher = service.SingleDoc{Name: "dblp.xml", Engine: xks.FromTree(tree)}
	})
	return benchSearcher
}

func runRepeatedQueries(b *testing.B, sv *service.Service) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q := benchQueries[i%len(benchQueries)]
		if _, _, err := sv.Search(context.Background(), xks.Request{Query: q}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRepeatedQueryUncached is the baseline: every request re-runs
// the LCA → RTF → prune pipeline.
func BenchmarkRepeatedQueryUncached(b *testing.B) {
	sv := service.New(benchSetup(b), service.Config{CacheSize: 0})
	runRepeatedQueries(b, sv)
}

// BenchmarkRepeatedQueryCached serves the same workload through the LRU
// cache; after one cold miss per distinct query, every request is a hit.
// The acceptance bar is a >= 10x speedup over the uncached baseline.
func BenchmarkRepeatedQueryCached(b *testing.B) {
	sv := service.New(benchSetup(b), service.Config{CacheSize: 1024})
	runRepeatedQueries(b, sv)
}

// BenchmarkRepeatedQueryCachedParallel adds goroutine contention: the
// sharded cache and singleflight keep concurrent identical queries cheap.
func BenchmarkRepeatedQueryCachedParallel(b *testing.B) {
	sv := service.New(benchSetup(b), service.Config{CacheSize: 1024})
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			q := benchQueries[i%len(benchQueries)]
			i++
			if _, _, err := sv.Search(context.Background(), xks.Request{Query: q}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
