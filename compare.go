package xks

import (
	"context"
	"fmt"
	"time"

	"xks/internal/dewey"
	"xks/internal/metrics"
)

// Comparison is the outcome of running ValidRTF and the revised MaxMatch on
// the same query, with the §5.1 effectiveness ratios.
type Comparison struct {
	Query string
	// NumRTFs is the number of interesting LCA fragments (|A|).
	NumRTFs int
	// ValidElapsed and MaxElapsed are the Stats.Elapsed of the ValidRTF and
	// the MaxMatch run, mirroring Figure 5: what an unlimited Search of each
	// mechanism reports, from the start of the candidate stage (LCA
	// computation + RTF construction) to the last fragment pruned and
	// assembled, planning excluded. The benchmark's fig5-full workload runs
	// the same two unlimited Searches per query and times them wall clock.
	ValidElapsed time.Duration
	MaxElapsed   time.Duration
	// Ratios holds CFR / APR / APR' / Max APR, mirroring Figure 6.
	Ratios metrics.Ratios
}

// Compare runs both pruning mechanisms over the same fragments and derives
// the paper's effectiveness ratios. Semantics and ExactContent follow req;
// the algorithm, ranking, budget and pagination window are ignored. It runs
// the request loop behind Search twice over snapshots pinned from the same
// head: an unlimited, unranked, Strict ValidRTF run, then the same run under
// MaxMatch, so both sides pay the same candidate-stage costs, as the paper's
// implementations do, and ValidElapsed and MaxElapsed are each run's
// Stats.Elapsed. The fragments are paired by position. ctx cancellation or
// deadline (one deadline over both runs) aborts either run with ctx.Err().
func (e *Engine) Compare(ctx context.Context, req Request) (*Comparison, error) {
	// The ratios need every fragment, in document order, and never a
	// truncated page.
	req.Rank, req.Limit, req.Offset, req.Cursor, req.Budget = false, 0, 0, "", Strict

	h := e.head.Load()
	run := func(alg Algorithm) ([]*Fragment, time.Duration, error) {
		v, err := e.viewAt(h, h.Tab.Len())
		if err != nil {
			return nil, 0, err
		}
		req.Algorithm = alg
		var frags []*Fragment
		var page Results
		err = runRequest(ctx, req, v.snap.Version(), []docRead{{eng: e, v: v}}, 0, blockSize, &page, func(_ string, f *Fragment) bool {
			frags = append(frags, f)
			return true
		})
		return frags, page.Stats.Elapsed, err
	}
	valid, validElapsed, err := run(ValidRTF)
	if err != nil {
		return nil, err
	}
	maxm, maxElapsed, err := run(MaxMatch)
	if err != nil {
		return nil, err
	}
	if len(valid) != len(maxm) {
		return nil, fmt.Errorf("xks: compare: %d ValidRTF fragments but %d MaxMatch", len(valid), len(maxm))
	}

	pairs := make([]metrics.FragmentPair, len(valid))
	for i, f := range valid {
		if maxm[i].Root != f.Root {
			return nil, fmt.Errorf("xks: compare: fragment %d is rooted at %s under ValidRTF but %s under MaxMatch", i, f.Root, maxm[i].Root)
		}
		kept := f.codes()
		pairs[i] = metrics.FragmentPair{Root: kept[0], Valid: kept, Max: maxm[i].codes()}
	}
	return &Comparison{
		Query:        req.Query,
		NumRTFs:      len(valid),
		ValidElapsed: validElapsed,
		MaxElapsed:   maxElapsed,
		Ratios:       metrics.Compute(pairs),
	}, nil
}

// codes returns the fragment's keep-set as codes derived from its pinned
// node table, in pre-order.
func (f *Fragment) codes() []dewey.Code { return f.v.snap.Table().Codes(f.keptIDs) }
