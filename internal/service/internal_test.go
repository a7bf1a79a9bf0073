package service

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xks"
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
	base := cacheKey(xks.Request{Query: "xml keyword"})
	if cacheKey(xks.Request{Query: "  XML   Keyword "}) != base {
		t.Error("whitespace/case folding should not change the key")
	}
	if cacheKey(xks.Request{Query: "keyword xml"}) == base {
		t.Error("term order is part of the key")
	}
	if cacheKey(xks.Request{Query: "xml keyword", Document: "doc.xml"}) == base {
		t.Error("document filter is part of the key")
	}
	if cacheKey(xks.Request{Query: "xml keyword", Rank: true}) == base {
		t.Error("options are part of the key")
	}
	if cacheKey(xks.Request{Query: "xml keyword", Limit: 3}) == base {
		t.Error("limit is part of the key")
	}
}

// TestCacheKeyStrategy pins that how a request executes — its deadline,
// and the plan the pipeline picks, which no request field names — is not
// keyed: every execution of a request computes the same page.
func TestCacheKeyStrategy(t *testing.T) {
	base := cacheKey(xks.Request{Query: "xml keyword"})
	if cacheKey(xks.Request{Query: "xml keyword", Timeout: time.Second}) != base {
		t.Error("timeout must not be part of the key")
	}
}

func TestMetricsHistogramQuantiles(t *testing.T) {
	var m Metrics
	// 90 fast requests at ~80µs, 10 slow at ~40ms.
	for i := 0; i < 90; i++ {
		m.observe(80 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		m.observe(40 * time.Millisecond)
	}
	s := m.Snapshot()
	if s.P50LatencyMS <= 0 || s.P50LatencyMS > 0.1 {
		t.Errorf("p50 = %vms, want ~0.08ms", s.P50LatencyMS)
	}
	if s.P95LatencyMS < 25 || s.P95LatencyMS > 50 {
		t.Errorf("p95 = %vms, want within the 25–50ms bucket", s.P95LatencyMS)
	}
	if s.P99LatencyMS < s.P95LatencyMS {
		t.Errorf("p99 (%v) < p95 (%v)", s.P99LatencyMS, s.P95LatencyMS)
	}
	wantAvg := (90*0.08 + 10*40) / 100
	if s.AvgLatencyMS < wantAvg*0.9 || s.AvgLatencyMS > wantAvg*1.1 {
		t.Errorf("avg = %vms, want ~%vms", s.AvgLatencyMS, wantAvg)
	}
}

func TestMetricsEmptySnapshot(t *testing.T) {
	var m Metrics
	s := m.Snapshot()
	if s.Requests != 0 || s.AvgLatencyMS != 0 || s.P99LatencyMS != 0 || s.CacheHitRate != 0 {
		t.Errorf("empty snapshot = %+v", s)
	}
}

func TestMetricsOverflowBucket(t *testing.T) {
	var m Metrics
	m.observe(30 * time.Second) // beyond the last bound
	s := m.Snapshot()
	if s.P50LatencyMS != 5000 {
		t.Errorf("overflow p50 = %v, want clamped to 5000ms", s.P50LatencyMS)
	}
}
