package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"time"

	"xks"
	"xks/internal/analysis"
	"xks/internal/store"
	"xks/internal/xmltree"
)

// fig5Op is one search of the Figure 5 mix: a paper query under one pruning
// algorithm, ELCA semantics, unranked, unlimited.
type fig5Op struct {
	Corpus int // index into the corpora
	Query  string
	Algo   xks.Algorithm
}

func (o fig5Op) key(corpora []*corpus) string {
	return fmt.Sprintf("%s/%s/%s", corpora[o.Corpus].Name, o.Query, o.Algo)
}

func (o fig5Op) request() xks.Request {
	return xks.Request{Query: o.Query, Algorithm: o.Algo}
}

// fig5Ops lists the mix: per corpus, per query, ValidRTF then MaxMatch, in a
// seeded shuffle (the order every pass of the run follows).
func fig5Ops(corpora []*corpus, seed int64) ([]fig5Op, error) {
	var ops []fig5Op
	for ci, c := range corpora {
		queries, err := c.W.ExpandAll()
		if err != nil {
			return nil, err
		}
		for _, q := range queries {
			ops = append(ops, fig5Op{ci, q, xks.ValidRTF}, fig5Op{ci, q, xks.MaxMatch})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops, nil
}

// fig5SetUp is what a user of the library waits for before the first
// search: parse each document and build its engine (index.Build inside).
func fig5SetUp(corpora []*corpus) ([]*xks.Engine, error) {
	engines := make([]*xks.Engine, len(corpora))
	for i, c := range corpora {
		e, err := xks.Load(bytes.NewReader(c.XML))
		if err != nil {
			return nil, err
		}
		engines[i] = e
	}
	return engines, nil
}

// runFig5 is the paper's Figure 5, in process, closed loop, one caller:
// whole round-robin passes over the 20 DBLP + 24 XMark queries, each run as
// Engine.Search with ValidRTF and with MaxMatch, until the window is used
// up.
func runFig5(cfg *config) (*result, error) {
	res := &result{Workload: "fig5-full", Seed: cfg.Seed}
	v := &res.Verdict
	var corpora []*corpus
	for _, kind := range []string{"dblp", "xmark"} {
		c, err := genCorpus(kind, cfg.Scale)
		if err != nil {
			return nil, err
		}
		corpora = append(corpora, c)
	}
	ops, err := fig5Ops(corpora, cfg.Seed)
	if err != nil {
		return nil, err
	}

	var (
		engines []*xks.Engine
		setups  []float64
	)
	for range setupRepeats {
		start := time.Now()
		if engines, err = fig5SetUp(corpora); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	setup := time.Duration(median(setups) * float64(time.Second))

	// Warm pass, untimed: fills lazy state, and yields the answers to pin
	// and the Figure 6 ratios.
	ctx := context.Background()
	p := pins{
		Inputs:  map[string]string{"dblp.xml": sha(corpora[0].XML), "xmark.xml": sha(corpora[1].XML)},
		Figure6: map[string][]fig6Row{},
	}
	answers := make([]answer, len(ops))
	valid := map[string]*xks.Result{} // corpus/query -> the ValidRTF result awaiting its MaxMatch twin
	rows := map[string]fig6Row{}
	for i, o := range ops {
		r, err := engines[o.Corpus].Search(ctx, o.request())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", o.key(corpora), err)
		}
		answers[i] = answerOf(r)
		v.pin(o.key(corpora), answers[i])
		pair := corpora[o.Corpus].Name + "/" + o.Query
		if other, ok := valid[pair]; ok {
			vr, mr := other, r
			if o.Algo == xks.ValidRTF {
				vr, mr = r, other
			}
			row, err := fig6(o.Query, vr, mr)
			if err != nil {
				v.note("figure 6: %v", err)
			}
			rows[pair] = row
			delete(valid, pair)
		} else {
			valid[pair] = r
		}
	}
	for _, c := range corpora { // figure order, whatever order the ops ran in
		queries, _ := c.W.ExpandAll()
		for _, q := range queries {
			p.Figure6[c.Name] = append(p.Figure6[c.Name], rows[c.Name+"/"+q])
		}
	}
	p.Answer = v.digest()

	if cfg.Trace {
		err := fig5Layers(cfg, res, corpora, engines, ops)
		return res, err
	}

	runtime.GC()
	debug.FreeOSMemory()
	m, err := startMeter(0, ownMemStats, false)
	if err != nil {
		return nil, err
	}
	// Each pass is one slice: the same 88 searches, so the per-pass
	// quantiles compare like with like and their median sheds a pass that a
	// collection or a neighbour disturbed.
	var searches []sample
	edges := []time.Duration{0}
	for time.Since(m.start) < cfg.Window {
		for i, o := range ops {
			start := time.Now()
			r, err := engines[o.Corpus].Search(ctx, o.request())
			searches = append(searches, sample{At: time.Since(m.start), Lat: time.Since(start)})
			v.Attempted++
			if err != nil {
				v.fail("%s: %v", o.key(corpora), err)
				continue
			}
			// Cheap per-op check; the full answers were pinned above.
			if r.Stats.NumLCAs != answers[i].NumLCAs || len(r.Fragments) != len(answers[i].Frags) {
				v.fail("%s: %d roots / %d fragments, warm pass saw %d / %d", o.key(corpora),
					r.Stats.NumLCAs, len(r.Fragments), answers[i].NumLCAs, len(answers[i].Frags))
			}
		}
		edges = append(edges, time.Since(m.start))
	}
	ws, err := m.finish()
	if err != nil {
		return nil, err
	}
	res.E2E, res.Samples = endToEndMetrics(setup, searches, nil, edges, ws)

	fig5CrossBacking(v, corpora, ops, answers)
	checkGolden(cfg, res.Workload, p, v)
	return res, nil
}

// setupRepeats is how many times a run sets the system up; setup_s is the
// median.
const setupRepeats = 3

// fig5CrossBacking re-answers every ValidRTF search of the mix on a
// store-backed engine (shredded in memory) and requires the same roots and
// node counts the tree-backed engine gave.
func fig5CrossBacking(v *verdict, corpora []*corpus, ops []fig5Op, answers []answer) {
	ctx := context.Background()
	for ci, c := range corpora {
		tree, err := xmltree.Parse(bytes.NewReader(c.XML))
		if err != nil {
			v.note("cross-backing: %v", err)
			return
		}
		e := xks.FromStore(store.Shred(tree, analysis.New()))
		for i, o := range ops {
			if o.Corpus != ci || o.Algo != xks.ValidRTF {
				continue
			}
			r, err := e.Search(ctx, o.request())
			if err != nil {
				v.note("cross-backing %s: %v", o.key(corpora), err)
				continue
			}
			if got := answerOf(r); got.String() != answers[i].String() {
				v.note("cross-backing %s: store-backed %s, tree-backed %s", o.key(corpora), clip(got.String()), clip(answers[i].String()))
			}
		}
	}
}
