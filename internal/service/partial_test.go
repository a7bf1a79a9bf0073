package service_test

// Resumable-prefix tests: a deadline-truncated (TruncMaterialize) page is
// kept in the cache under its request key — never served as a hit — an
// identical retry resumes materialization at the cursor instead of
// reassembling the finished prefix, a completed stitch overwrites the prefix
// with the full page, and candidate-stage salvage pages — whose fragments
// are not a definitive prefix of the true order — are never kept. The
// fault-injection harness (internal/fault) makes the first request's
// truncation deterministic.

import (
	"context"
	"testing"
	"time"

	"xks"
	"xks/internal/fault"
	"xks/internal/paperdata"
	"xks/internal/service"
)

// partialCorpus builds a ten-copy corpus (one matching fragment each for
// the workload query): an injected deadline exhaustion on the fifth
// fragment's materialization leaves a four-fragment partial page.
func partialCorpus(t *testing.T) *xks.Corpus {
	t.Helper()
	c := xks.NewCorpus()
	for _, n := range []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"} {
		c.Add(n, xks.FromTree(paperdata.Publications()))
	}
	return c
}

// truncatedFirstPage runs one BestEffort search whose fifth fragment
// materialization burns the whole deadline, returning the service, the
// request, and the partial page it produced.
func truncatedFirstPage(t *testing.T, limit int) (*service.Service, xks.Request, *xks.Results) {
	t.Helper()
	sv := service.New(partialCorpus(t), service.Config{CacheSize: 32})

	req := xks.Request{Query: paperdata.Q1, Rank: true, Limit: limit}
	req.Budget = xks.BestEffort

	plan := fault.NewPlan(fault.Rule{
		Point:  fault.PointMaterialize,
		After:  4,
		Count:  1,
		Action: fault.Action{UntilDeadline: true},
	})
	ctx, cancel := context.WithTimeout(fault.NewContext(context.Background(), plan), 200*time.Millisecond)
	defer cancel()
	part, cached, err := sv.Search(ctx, req)
	if err != nil || cached {
		t.Fatalf("truncated search: cached=%t err=%v", cached, err)
	}
	if !part.Truncated || part.Truncation != xks.TruncMaterialize {
		t.Fatalf("truncation = (%v, %q), want (true, %q)", part.Truncated, part.Truncation, xks.TruncMaterialize)
	}
	if n := len(part.Fragments); n == 0 || n >= limit {
		t.Fatalf("partial page has %d fragments, want a non-empty strict prefix of %d", n, limit)
	}
	return sv, req, part
}

// TestPartialPageResumeStitchesAndPromotes pins the satellite end to end:
// the retry of a materialize-truncated page resumes at the cursor (the
// continuation runs with the prefix's length folded into Offset), the
// stitched page equals the fault-free page, the resume metric counts it,
// and the completed page is promoted so a third try is a plain cache hit.
func TestPartialPageResumeStitchesAndPromotes(t *testing.T) {
	const limit = 8
	// Fault-free baseline on an identical corpus: what the full page holds.
	baseline, err := partialCorpus(t).Search(context.Background(),
		xks.Request{Query: paperdata.Q1, Rank: true, Limit: limit})
	if err != nil {
		t.Fatal(err)
	}
	if len(baseline.Fragments) != limit {
		t.Fatalf("baseline page has %d fragments, want %d (corpus too small for the test)", len(baseline.Fragments), limit)
	}

	sv, req, part := truncatedFirstPage(t, limit)
	if n := sv.CacheLen(); n != 1 {
		t.Fatalf("CacheLen = %d after the truncated page, want 1: the prefix is an entry of the one cache", n)
	}

	// Identical retry, no faults: resumes from the partial page.
	full, cached, err := sv.Search(context.Background(), req)
	if err != nil || cached {
		t.Fatalf("retry: cached=%t err=%v", cached, err)
	}
	if full.Truncated {
		t.Fatalf("retry still truncated (%q) without any fault installed", full.Truncation)
	}
	if len(full.Fragments) != limit {
		t.Fatalf("stitched page has %d fragments, want %d", len(full.Fragments), limit)
	}
	for i, f := range full.Fragments {
		want := baseline.Fragments[i]
		if f.Document != want.Document || f.Root != want.Root {
			t.Fatalf("stitched fragment %d = %s/%s, want %s/%s (prefix and tail disagree with the fault-free page)",
				i, f.Document, f.Root, want.Document, want.Root)
		}
	}
	// The prefix objects are reused, not re-materialized.
	for i, f := range part.Fragments {
		if full.Fragments[i].Fragment != f.Fragment {
			t.Errorf("stitched fragment %d was re-materialized instead of reusing the cached prefix", i)
		}
	}
	if n := service.Sample(t, sv, "xks_partial_resumes_total"); n != 1 {
		t.Errorf("xks_partial_resumes_total = %v, want 1", n)
	}

	// The stitched page overwrote the prefix: one entry still, and it hits.
	if n := sv.CacheLen(); n != 1 {
		t.Fatalf("CacheLen = %d after the stitch, want 1: the full page replaces its prefix under the same key", n)
	}
	again, cached, err := sv.Search(context.Background(), req)
	if err != nil || !cached {
		t.Fatalf("third search: cached=%t err=%v, want a cache hit", cached, err)
	}
	if len(again.Fragments) != limit {
		t.Fatalf("promoted page has %d fragments, want %d", len(again.Fragments), limit)
	}
	if n := service.Sample(t, sv, "xks_partial_resumes_total"); n != 1 {
		t.Errorf("xks_partial_resumes_total after cache hit = %v, want still 1", n)
	}
}

// TestPartialPageResumeServesStream pins the streaming side: a stream of
// the same request replays the stitched page fragment by fragment with an
// untruncated trailer.
func TestPartialPageResumeServesStream(t *testing.T) {
	const limit = 8
	sv, req, _ := truncatedFirstPage(t, limit)

	seq, trailer := sv.Stream(context.Background(), req)
	n := 0
	for f, err := range seq {
		if err != nil {
			t.Fatal(err)
		}
		if f.Fragment == nil {
			t.Fatal("stream yielded a nil fragment")
		}
		n++
	}
	if n != limit {
		t.Fatalf("stream yielded %d fragments, want the full stitched page of %d", n, limit)
	}
	if tr := trailer(); tr.Truncated {
		t.Fatalf("stream trailer still truncated (%q)", tr.Truncation)
	}
	if n := service.Sample(t, sv, "xks_partial_resumes_total"); n != 1 {
		t.Errorf("xks_partial_resumes_total = %v, want 1", n)
	}
}

// TestSalvagedPageNotCachedAsPartial pins the cache-exclusion rule:
// a candidate-stage salvage page (TruncCandidates) covers only the
// documents that finished, so it is not a definitive prefix and must not
// be kept as a resumable prefix — the retry runs the full pipeline.
func TestSalvagedPageNotCachedAsPartial(t *testing.T) {
	sv := service.New(partialCorpus(t), service.Config{CacheSize: 32})

	req := xks.Request{Query: paperdata.Q1, Rank: true, Limit: 6}
	req.Budget = xks.BestEffort

	plan := fault.NewPlan(fault.Rule{
		Point:  fault.PointCandidates,
		Label:  "j",
		Action: fault.Action{UntilDeadline: true},
	})
	ctx, cancel := context.WithTimeout(fault.NewContext(context.Background(), plan), 150*time.Millisecond)
	defer cancel()
	part, _, err := sv.Search(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !part.Truncated || part.Truncation != xks.TruncCandidates {
		t.Fatalf("truncation = (%v, %q), want (true, %q)", part.Truncated, part.Truncation, xks.TruncCandidates)
	}

	full, cached, err := sv.Search(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("retry of a salvaged page must not hit any cache")
	}
	if full.Truncated {
		t.Fatalf("fault-free retry still truncated (%q)", full.Truncation)
	}
	if len(full.Fragments) != 6 {
		t.Fatalf("retry page has %d fragments, want 6", len(full.Fragments))
	}
	if n := service.Sample(t, sv, "xks_partial_resumes_total"); n != 0 {
		t.Errorf("xks_partial_resumes_total = %v, want 0: salvage pages must not be kept as a prefix", n)
	}
}
