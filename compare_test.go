package xks

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"xks/internal/dewey"
	"xks/internal/metrics"
	"xks/internal/reference"
)

// TestCompareIsTwoSearches: Compare's NumRTFs and ratios are metrics.Compute
// over the fragments of an unlimited ValidRTF Search and an unlimited
// MaxMatch Search on the same engine, bit for bit, over the paper's queries
// and datagen samples of the Figure 5/6 query sets, under both semantics.
func TestCompareIsTwoSearches(t *testing.T) {
	dblp, dblpQueries := dblpTestEngine(t)
	xmark, xmarkQueries := xmarkTestEngine(t)
	differ := 0
	for _, tc := range []struct {
		name    string
		e       *Engine
		queries []string
	}{
		{"publications", pubEngine(t), []string{reference.Q1, reference.Q2, reference.Q3, "zebra keyword"}},
		{"team", teamEngine(t), []string{reference.Q4, reference.Q5}},
		{"dblp", dblp, dblpQueries},
		{"xmark", xmark, xmarkQueries},
	} {
		for _, q := range tc.queries {
			for _, sem := range []Semantics{AllLCA, SLCAOnly} {
				req := Request{Query: q, Semantics: sem}
				cmp, err := tc.e.Compare(context.Background(), req)
				if err != nil {
					t.Fatalf("%s %q %v: %v", tc.name, q, sem, err)
				}
				want := searchRatios(t, tc.e, req)
				if cmp.NumRTFs != want.NumRTFs || ratioBits(cmp.Ratios) != ratioBits(want) {
					t.Errorf("%s %q %v: Compare = %d RTFs %+v, two Searches = %+v", tc.name, q, sem, cmp.NumRTFs, cmp.Ratios, want)
				}
				if cmp.Ratios.CFR < 1 {
					differ++
				}
			}
		}
	}
	if differ == 0 {
		t.Fatal("no query pruned differently under the two mechanisms: the ratios compared are all trivial")
	}
}

// searchRatios computes the ratios from two unlimited Searches of req, one
// per pruning mechanism, pairing their fragments by position.
func searchRatios(t *testing.T, e *Engine, req Request) metrics.Ratios {
	t.Helper()
	req.Algorithm = ValidRTF
	valid, err := e.Search(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	req.Algorithm = MaxMatch
	maxm, err := e.Search(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(valid.Fragments) != len(maxm.Fragments) {
		t.Fatalf("%q: %d ValidRTF fragments, %d MaxMatch", req.Query, len(valid.Fragments), len(maxm.Fragments))
	}
	codes := func(f *Fragment) []dewey.Code {
		out := make([]dewey.Code, len(f.Nodes))
		for i, n := range f.Nodes {
			out[i] = dewey.MustParse(n.Dewey)
		}
		return out
	}
	pairs := make([]metrics.FragmentPair, len(valid.Fragments))
	for i, v := range valid.Fragments {
		if m := maxm.Fragments[i]; m.Root != v.Root {
			t.Fatalf("%q: fragment %d rooted at %s under ValidRTF, %s under MaxMatch", req.Query, i, v.Root, m.Root)
		}
		pairs[i] = metrics.FragmentPair{Root: dewey.MustParse(v.Root), Valid: codes(v), Max: codes(maxm.Fragments[i])}
	}
	return metrics.Compute(pairs)
}

// ratioBits is the ratios with every float as its bit pattern, so == is
// bit-for-bit equality.
func ratioBits(r metrics.Ratios) [6]uint64 {
	return [6]uint64{uint64(r.NumRTFs), uint64(r.NumCommon),
		math.Float64bits(r.CFR), math.Float64bits(r.APR), math.Float64bits(r.MaxAPR), math.Float64bits(r.APRPrime)}
}

// TestCompareBestEffortDeadline: a BestEffort request whose deadline has
// already passed makes Compare fail with the deadline error rather than
// return ratios over a truncated page.
func TestCompareBestEffortDeadline(t *testing.T) {
	e, queries := xmarkTestEngine(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	cmp, err := e.Compare(ctx, Request{Query: queries[0], Budget: BestEffort})
	if !errors.Is(err, context.DeadlineExceeded) || cmp != nil {
		t.Fatalf("Compare under an expired BestEffort deadline = %+v, %v; want the deadline error", cmp, err)
	}
}
