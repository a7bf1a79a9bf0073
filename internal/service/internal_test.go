package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xks"
	"xks/internal/reference"
)

func TestGroupCollapsesConcurrentCalls(t *testing.T) {
	var g group
	var execs atomic.Int64
	release := make(chan struct{})
	started := make(chan struct{})

	const n = 8
	var wg sync.WaitGroup
	sharedCount := atomic.Int64{}
	// Leader blocks inside fn until release closes, guaranteeing the
	// other callers arrive while the call is in flight.
	leaderDone := make(chan *Page, 1)
	go func() {
		val, shared, err := g.do(context.Background(), "k", func() (*Page, error) {
			execs.Add(1)
			close(started)
			<-release
			return &Page{Results: &xks.Results{Query: "q"}}, nil
		})
		if shared || err != nil {
			t.Errorf("leader: shared=%t err=%v", shared, err)
		}
		leaderDone <- val
	}()
	<-started
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			val, shared, err := g.do(context.Background(), "k", func() (*Page, error) {
				execs.Add(1)
				return &Page{Results: &xks.Results{Query: "other"}}, nil
			})
			if err != nil {
				t.Error(err)
			}
			if shared {
				sharedCount.Add(1)
			}
			if val == nil || val.Query != "q" {
				t.Errorf("joiner got %+v", val)
			}
		}()
	}
	time.Sleep(10 * time.Millisecond) // let joiners reach Wait
	close(release)
	wg.Wait()
	<-leaderDone

	if got := execs.Load(); got != 1 {
		t.Errorf("executions = %d, want 1", got)
	}
	if got := sharedCount.Load(); got != n {
		t.Errorf("shared callers = %d, want %d", got, n)
	}
}

func TestGroupDistinctKeysRunIndependently(t *testing.T) {
	var g group
	var execs atomic.Int64
	var wg sync.WaitGroup
	for _, key := range []string{"a", "b", "c"} {
		wg.Add(1)
		go func(key string) {
			defer wg.Done()
			if _, _, err := g.do(context.Background(), key, func() (*Page, error) {
				execs.Add(1)
				return nil, nil
			}); err != nil {
				t.Error(err)
			}
		}(key)
	}
	wg.Wait()
	if execs.Load() != 3 {
		t.Errorf("executions = %d, want 3", execs.Load())
	}
}

func TestGroupPropagatesError(t *testing.T) {
	var g group
	boom := errors.New("boom")
	_, _, err := g.do(context.Background(), "k", func() (*Page, error) { return nil, boom })
	if !errors.Is(err, boom) {
		t.Errorf("err = %v", err)
	}
	// The key is released after the call; the next call re-executes.
	val, shared, err := g.do(context.Background(), "k", func() (*Page, error) {
		return &Page{Results: &xks.Results{}}, nil
	})
	if val == nil || shared || err != nil {
		t.Errorf("retry: val=%v shared=%t err=%v", val, shared, err)
	}
}

func TestGroupLeaderPanicReleasesJoinersWithError(t *testing.T) {
	var g group
	started := make(chan struct{})
	joined := make(chan struct{})
	errs := make(chan error, 1)
	leaderErrs := make(chan error, 1)
	go func() {
		_, _, err := g.do(context.Background(), "k", func() (*Page, error) {
			close(started)
			<-joined
			panic("boom")
		})
		leaderErrs <- err
	}()
	<-started
	go func() {
		val, shared, err := g.do(context.Background(), "k", func() (*Page, error) {
			return &Page{Results: &xks.Results{}}, nil
		})
		if !shared || val != nil {
			t.Errorf("joiner: shared=%t val=%v", shared, val)
		}
		errs <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the joiner reach Wait
	close(joined)
	if err := <-errs; !errors.Is(err, xks.ErrInternal) {
		t.Fatalf("joiner err = %v, want ErrInternal when the leader panics", err)
	}
	// The leader absorbs its own panic into the same structured error (the
	// stack rides along in the PanicError) instead of re-raising it.
	lerr := <-leaderErrs
	if !errors.Is(lerr, xks.ErrInternal) {
		t.Fatalf("leader err = %v, want ErrInternal", lerr)
	}
	var pe *xks.PanicError
	if !errors.As(lerr, &pe) || len(pe.Stack) == 0 {
		t.Fatalf("leader err %v does not carry a stack-bearing PanicError", lerr)
	}
}

func TestCacheKeyNormalization(t *testing.T) {
	base := xks.Request{Query: "xml keyword"}.Key()
	if (xks.Request{Query: "  XML   Keyword "}).Key() != base {
		t.Error("whitespace/case folding should not change the key")
	}
	if (xks.Request{Query: "keyword xml"}).Key() == base {
		t.Error("term order is part of the key")
	}
	if (xks.Request{Query: "xml keyword", Document: "doc.xml"}).Key() == base {
		t.Error("document filter is part of the key")
	}
	if (xks.Request{Query: "xml keyword", Rank: true}).Key() == base {
		t.Error("options are part of the key")
	}
	if (xks.Request{Query: "xml keyword", Limit: 3}).Key() == base {
		t.Error("limit is part of the key")
	}
}

// TestCacheKeyStrategy pins that how a request executes — its deadline
// handling, and the plan the pipeline picks, which no request field names —
// is not keyed: every execution of a request computes the same page.
func TestCacheKeyStrategy(t *testing.T) {
	base := xks.Request{Query: "xml keyword"}.Key()
	if (xks.Request{Query: "xml keyword", Budget: xks.BestEffort}).Key() != base {
		t.Error("budget must not be part of the key")
	}
}

// TestMetricsHistogramQuantiles: the latency histogram's buckets on
// /metrics are what histogram_quantile reads p50/p95/p99 from, so each
// observation must land in its bucket: 90 requests at 80µs fall in
// le="0.0001" (not le="5e-05"), 10 at 40ms in le="0.05" (not le="0.025"),
// and _sum / _count is their average.
func TestMetricsHistogramQuantiles(t *testing.T) {
	sv := New(SingleDoc{Name: "d", Engine: xks.FromTree(reference.Publications())}, Config{})
	for range 90 {
		sv.metrics.observe(80 * time.Microsecond)
	}
	for range 10 {
		sv.metrics.observe(40 * time.Millisecond)
	}
	for series, want := range map[string]float64{
		`xks_request_duration_seconds_bucket{le="5e-05"}`:  0,
		`xks_request_duration_seconds_bucket{le="0.0001"}`: 90,
		`xks_request_duration_seconds_bucket{le="0.025"}`:  90,
		`xks_request_duration_seconds_bucket{le="0.05"}`:   100,
		`xks_request_duration_seconds_bucket{le="+Inf"}`:   100,
		`xks_request_duration_seconds_sum`:                 90*80e-6 + 10*40e-3,
		`xks_request_duration_seconds_count`:               100,
	} {
		if got := Sample(t, sv, series); math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", series, got, want)
		}
	}
}

// TestMetricsEmptySnapshot: a server that has observed nothing scrapes an
// all-zero latency histogram (every bucket, _sum and _count).
func TestMetricsEmptySnapshot(t *testing.T) {
	sv := New(SingleDoc{Name: "d", Engine: xks.FromTree(reference.Publications())}, Config{})
	n := 0
	for series, v := range Samples(t, sv) {
		if !strings.HasPrefix(series, "xks_request_duration_seconds") {
			continue
		}
		n++
		if v != 0 {
			t.Errorf("empty histogram series %s = %v, want 0", series, v)
		}
	}
	if want := numBuckets + 2; n != want {
		t.Errorf("%d xks_request_duration_seconds series, want %d", n, want)
	}
}

// TestMetricsOverflowBucket: an observation beyond the last bound (5s)
// shows only in the +Inf bucket, and _sum still carries its full value.
func TestMetricsOverflowBucket(t *testing.T) {
	sv := New(SingleDoc{Name: "d", Engine: xks.FromTree(reference.Publications())}, Config{})
	sv.metrics.observe(30 * time.Second)
	for series, want := range map[string]float64{
		`xks_request_duration_seconds_bucket{le="5"}`:    0,
		`xks_request_duration_seconds_bucket{le="+Inf"}`: 1,
		`xks_request_duration_seconds_sum`:               30,
		`xks_request_duration_seconds_count`:             1,
	} {
		if got := Sample(t, sv, series); got != want {
			t.Errorf("%s = %v, want %v", series, got, want)
		}
	}
}

// genBackend is a fake whose version token the test moves, so cached
// entries go stale; its page is one fragment per Limit slot, and the first
// page of a BestEffort request is cut after one fragment mid-materialization
// (a truncated page, which no cache entry keeps).
type genBackend struct {
	Buffered
	gen atomic.Uint64
}

func (g *genBackend) VersionFor(xks.Request) uint64 { return g.gen.Load() }

func newGenBackend() *genBackend {
	g := &genBackend{}
	g.Page = func(_ context.Context, req xks.Request) (*xks.Results, error) {
		r := &xks.Results{Query: req.Query, Fragments: make([]xks.CorpusFragment, max(req.Limit, 1))}
		if req.Budget == xks.BestEffort && req.Offset == 0 && req.Limit > 1 {
			r.Fragments, r.Truncated, r.Truncation = r.Fragments[:1], true, xks.TruncMaterialize
		}
		return r, nil
	}
	return g
}

// TestCacheBodyBytesIsTheWalk: the maintained xks_cache_body_bytes count
// equals the walk over the live entries' retained encodings after mixed
// traffic — LRU evictions, stale-generation drops, truncated pages that
// retain nothing, and encodes racing the drops.
func TestCacheBodyBytesIsTheWalk(t *testing.T) {
	g := newGenBackend()
	sv := New(g, Config{CacheSize: 16})
	query := func(i int) xks.Request { return xks.Request{Query: fmt.Sprintf("q%d", i%40), Limit: 2} }
	var wg sync.WaitGroup
	for w := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 400 {
				req := query(i*7 + w)
				if i%5 == 0 {
					req.Budget = xks.BestEffort
				}
				if i%97 == 0 {
					g.gen.Add(1)
				}
				p, _, err := sv.SearchPage(context.Background(), req)
				if err != nil {
					t.Error(err)
					return
				}
				p.Encoded(func() []byte { return make([]byte, 1+(i+w)%13) })
			}
		}()
	}
	wg.Wait()
	// The walk visits every key the traffic used; a lookup at the current
	// generation drops what went stale, which the count must follow too.
	var walk int64
	for i := range 40 {
		if p, ok := sv.cache.Get(query(i).Key(), g.gen.Load()); ok && p.retained != nil {
			if e := p.enc.Load(); e != nil {
				walk += int64(len(*e))
			}
		}
	}
	if got := sv.CacheBodyBytes(); got != walk || walk == 0 {
		t.Fatalf("CacheBodyBytes = %d, the walk over the live entries = %d (want equal and > 0)", got, walk)
	}
}
