package service

// Tests for the context-aware serving pieces: the length-prefixed cache
// key, xks.Request.Key (collision regression), and the singleflight group's
// detach/retry behavior under cancellation.

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"xks"
)

// TestCacheKeyNoConcatenationCollisions is the regression test for the
// separator-based key scheme: with plain concatenation, a separator
// embedded in the query could alias another request's document filter.
// Length-prefixing makes such pairs distinct.
func TestCacheKeyNoConcatenationCollisions(t *testing.T) {
	pairs := [][2]xks.Request{
		// The classic splice: query absorbs the old "\x00" separator and
		// the document's first byte.
		{{Query: "a\x00b"}, {Query: "a", Document: "b"}},
		{{Query: "a\x00b\x00c"}, {Query: "a", Document: "b\x00c"}},
		// Boundary shifts between the two variable-length fields.
		{{Query: "ab"}, {Query: "a", Document: "b"}},
		{{Query: "a", Document: "b0"}, {Query: "a", Document: "b", Limit: 0}},
	}
	for _, p := range pairs {
		if p[0].Key() == p[1].Key() {
			t.Errorf("Key collision: %+v and %+v -> %q", p[0], p[1], p[0].Key())
		}
	}
	// Pagination fields are part of the key: pages are distinct entries.
	if (xks.Request{Query: "q", Offset: 0}).Key() == (xks.Request{Query: "q", Offset: 10}).Key() {
		t.Error("offset must be part of the cache key")
	}
}

// TestGroupWaiterDetachesOnCancel: a waiter whose context ends while the
// leader computes returns its own ctx.Err() immediately; the leader's
// execution and result are unaffected.
func TestGroupWaiterDetachesOnCancel(t *testing.T) {
	var g group
	release := make(chan struct{})
	started := make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := g.do(context.Background(), "k", func() (*Page, error) {
			close(started)
			<-release
			return &Page{Results: &xks.Results{Query: "q"}}, nil
		})
		leaderDone <- err
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	begin := time.Now()
	_, shared, err := g.do(ctx, "k", func() (*Page, error) {
		t.Error("waiter must not execute")
		return nil, nil
	})
	// A detached waiter received nothing, so it must not count as a
	// collapsed request (shared=false keeps the metric honest).
	if shared || !errors.Is(err, context.Canceled) {
		t.Fatalf("detached waiter: shared=%t err=%v", shared, err)
	}
	if since := time.Since(begin); since > 2*time.Second {
		t.Fatalf("detach took %v; must not wait for the leader", since)
	}

	close(release)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader: %v", err)
	}
}

// TestGroupRetriesAfterLeaderCancelled: when the leader dies of its own
// cancellation, a waiter with a live context does not inherit that error —
// it re-executes as a fresh leader.
func TestGroupRetriesAfterLeaderCancelled(t *testing.T) {
	var g group
	var execs atomic.Int64
	started := make(chan struct{})
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	go func() {
		g.do(leaderCtx, "k", func() (*Page, error) {
			execs.Add(1)
			close(started)
			<-leaderCtx.Done()
			return nil, leaderCtx.Err()
		})
	}()
	<-started

	done := make(chan struct{})
	go func() {
		defer close(done)
		val, _, err := g.do(context.Background(), "k", func() (*Page, error) {
			execs.Add(1)
			return &Page{Results: &xks.Results{Query: "fresh"}}, nil
		})
		if err != nil || val == nil || val.Query != "fresh" {
			t.Errorf("retrying waiter: val=%v err=%v", val, err)
		}
	}()
	time.Sleep(5 * time.Millisecond) // let the waiter join before the leader dies
	cancelLeader()
	<-done
	if got := execs.Load(); got != 2 {
		t.Errorf("executions = %d, want 2 (cancelled leader + retry)", got)
	}
}

// blockingSearcher parks until its context ends, standing in for a slow
// pipeline.
func blockingSearcher(t *testing.T) Backend {
	e, err := xks.LoadString(`<doc/>`)
	if err != nil {
		t.Fatal(err)
	}
	return Buffered{Backend: SingleDoc{Name: "doc", Engine: e}, Page: func(ctx context.Context, req xks.Request) (*xks.Results, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}}
}

// TestServiceSearchPropagatesDeadline: a deadline on the caller's context
// reaches the backend and surfaces as context.DeadlineExceeded, counted as
// an error in the metrics.
func TestServiceSearchPropagatesDeadline(t *testing.T) {
	sv := New(blockingSearcher(t), Config{CacheSize: 8})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, cached, err := sv.Search(ctx, xks.Request{Query: "q"})
	if cached || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cached=%t err=%v, want context.DeadlineExceeded", cached, err)
	}
	if n := sv.metrics.errors.Load(); n != 1 {
		t.Errorf("errors = %d, want 1", n)
	}
	// A failed execution must not poison the cache.
	if sv.CacheLen() != 0 {
		t.Errorf("CacheLen = %d after a failed search", sv.CacheLen())
	}
}
