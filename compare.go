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
	// The ratios need every fragment, with its keyword events.
	params.Limit, params.Offset, params.DeferEvents = 0, 0, false

	// Timed ValidRTF pipeline, then the timed MaxMatch pipeline (recomputing
	// the candidate stage so both sides are measured end to end).
	params.Mode = prune.ValidContributor
	startValid := time.Now()
	validKept, err := keepSets(ctx, p, params)
	if err != nil {
		return nil, err
	}
	cmp.ValidElapsed = time.Since(startValid)
	params.Mode = prune.Contributor
	startMax := time.Now()
	maxKept, err := keepSets(ctx, p, params)
	if err != nil {
		return nil, err
	}
	cmp.MaxElapsed = time.Since(startMax)

	cmp.NumRTFs = len(validKept.roots)
	codes := func(ids []nid.ID) []dewey.Code {
		out := make([]dewey.Code, len(ids))
		for i, id := range ids {
			out[i] = params.Tab.Code(id)
		}
		return out
	}
	pairs := make([]metrics.FragmentPair, len(validKept.roots))
	for i, root := range validKept.roots {
		pairs[i] = metrics.FragmentPair{
			Root:  params.Tab.Code(root),
			Valid: codes(validKept.at(i)),
			Max:   codes(maxKept.at(i)),
		}
	}
	cmp.Ratios = metrics.Compute(pairs)
	return cmp, nil
}

// keptSlab is one pruning mode's outcome over every candidate: the fragment
// roots, and every keep-set back to back in one slab, candidate i's being
// kept[off[i]:off[i+1]].
type keptSlab struct {
	roots []nid.ID
	kept  []nid.ID
	off   []int
}

// keepSets runs one of Compare's pipelines: the candidate stage, then
// pruneRTF under params.Mode for every candidate, checking ctx between
// candidates. The candidates' borrowed events go back once the loop ends.
func keepSets(ctx context.Context, p exec.Plan, params exec.Params) (keptSlab, error) {
	cands, _, release, err := exec.Candidates(ctx, p, params, 0)
	if err != nil {
		return keptSlab{}, err
	}
	defer release()
	s := keptSlab{roots: make([]nid.ID, len(cands)), off: make([]int, 1, len(cands)+1)}
	for i, c := range cands {
		if err := ctx.Err(); err != nil {
			return keptSlab{}, err
		}
		s.roots[i] = c.RTF.Root
		s.kept, _ = exec.Materialize(s.kept, c.RTF, params)
		s.off = append(s.off, len(s.kept))
	}
	return s, nil
}

// at is candidate i's keep-set.
func (s keptSlab) at(i int) []nid.ID { return s.kept[s.off[i]:s.off[i+1]] }
