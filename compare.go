package xks

import (
	"context"
	"errors"
	"time"

	"xks/internal/dewey"
	"xks/internal/exec"
	"xks/internal/index"
	"xks/internal/metrics"
	"xks/internal/nid"
	"xks/internal/prune"
)

// Comparison is the outcome of running ValidRTF and the revised MaxMatch on
// the same query, with the §5.1 effectiveness ratios.
type Comparison struct {
	Query string
	// NumRTFs is the number of interesting LCA fragments (|A|).
	NumRTFs int
	// ValidElapsed and MaxElapsed time the two pipelines end to end
	// (LCA computation + RTF construction + pruning), mirroring Figure 5.
	ValidElapsed time.Duration
	MaxElapsed   time.Duration
	// Ratios holds CFR / APR / APR' / Max APR, mirroring Figure 6.
	Ratios metrics.Ratios
}

// Compare runs both pruning mechanisms over the same fragments and derives
// the paper's effectiveness ratios. Semantics follows req.Semantics;
// req.Algorithm (and the pagination window) are ignored. It drives the
// staged pipeline with every candidate selected and materialized twice —
// once per pruning mode — so both sides pay the same shared candidate-stage
// costs, as the paper's implementations do. ctx cancellation (and
// req.Timeout) aborts either pipeline between candidates with ctx.Err().
func (e *Engine) Compare(ctx context.Context, req Request) (*Comparison, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := req.applyTimeout(ctx)
	defer cancel()

	// One pinned snapshot serves both timed pipelines, so they compare the
	// same state even under concurrent appends.
	v := e.currentView()
	defer v.release()

	cmp := &Comparison{Query: req.Query}
	p, err := e.planAt(v, req.Query)
	if err != nil {
		var nm *index.ErrNoMatch
		if errors.As(err, &nm) {
			cmp.Ratios.CFR = 1
			return cmp, nil
		}
		return nil, err
	}
	params := e.paramsAt(v, req)
	params.Limit, params.Offset = 0, 0 // the ratios need every fragment

	// Timed ValidRTF pipeline.
	startValid := time.Now()
	cands, err := exec.Candidates(ctx, p, params, 0)
	if err != nil {
		return nil, err
	}
	validKept := make([][]nid.ID, len(cands))
	params.Mode = prune.ValidContributor
	for i, c := range cands {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		validKept[i], _ = exec.Materialize(c, params)
	}
	cmp.ValidElapsed = time.Since(startValid)

	// Timed MaxMatch pipeline (recomputing the candidate stage so both
	// sides are measured end to end).
	startMax := time.Now()
	candsM, err := exec.Candidates(ctx, p, params, 0)
	if err != nil {
		return nil, err
	}
	maxKept := make([][]nid.ID, len(candsM))
	params.Mode = prune.Contributor
	for i, c := range candsM {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		maxKept[i], _ = exec.Materialize(c, params)
	}
	cmp.MaxElapsed = time.Since(startMax)

	cmp.NumRTFs = len(cands)
	codes := func(ids []nid.ID) []dewey.Code {
		out := make([]dewey.Code, len(ids))
		for i, id := range ids {
			out[i] = params.Tab.Code(id)
		}
		return out
	}
	pairs := make([]metrics.FragmentPair, len(cands))
	for i := range cands {
		pairs[i] = metrics.FragmentPair{
			Root:  params.Tab.Code(cands[i].RTF.Root),
			Valid: codes(validKept[i]),
			Max:   codes(maxKept[i]),
		}
	}
	cmp.Ratios = metrics.Compute(pairs)
	return cmp, nil
}
