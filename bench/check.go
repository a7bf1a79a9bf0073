package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"

	"xks"
	"xks/internal/dewey"
	"xks/internal/metrics"
)

// checkSample is how many searches of a serving workload are compared,
// answer for answer, with the in-process tree-backed engine (and, for the
// golden seed, pinned by digest). Every other response is checked for its
// status and a well-formed body only: parsing megabyte answers for every
// request would make the generator, not the server, the bottleneck on two
// shared cores.
const checkSample = 96

// reference answers a search in process on a tree-backed engine — the
// oracle the served answers must agree with, whatever backing served them.
func reference(e *xks.Engine, r searchReq) (answer, error) {
	res, err := e.Search(context.Background(), r.xks())
	if err != nil {
		return answer{}, err
	}
	return answerOf(res), nil
}

func answerOf(res *xks.Result) answer {
	a := answer{NumLCAs: res.Stats.NumLCAs}
	for _, f := range res.Fragments {
		a.Frags = append(a.Frags, fmt.Sprintf("%s:%d", f.Root, f.Len()))
	}
	return a
}

// verdict accumulates one run's correctness: operations attempted, the ones
// that failed (transport error, non-200, wrong answer, unsearchable append),
// the first few reasons, and the digest lines of the reference answers.
type verdict struct {
	Attempted int
	Failed    int
	Reasons   []string
	lines     []string
}

func (v *verdict) fail(format string, args ...any) {
	v.Failed++
	if len(v.Reasons) < 8 {
		v.Reasons = append(v.Reasons, fmt.Sprintf(format, args...))
	}
}

// note records a harness-level failure that is not one operation's (a
// golden mismatch, a set-up error): the run is incorrect even if every
// operation succeeded.
func (v *verdict) note(format string, args ...any) {
	v.fail(format, args...)
	v.Attempted = max(v.Attempted, v.Failed)
}

func (v *verdict) pin(key string, a answer) {
	v.lines = append(v.lines, key+" "+a.String())
}

// digest hashes the pinned reference answers, order-independently.
func (v *verdict) digest() string {
	lines := append([]string(nil), v.lines...)
	sort.Strings(lines)
	return sha([]byte(strings.Join(lines, "\n")))
}

// checkServed counts the failed operations of a served run and compares the
// sampled requests (indices into reqs, whose bodies the feed kept) with the
// reference engine. Every sampled request is pinned whether or not the
// window got as far as issuing it, so the digest does not depend on how fast
// the machine was.
func (v *verdict) checkServed(ops []op, reqs []searchReq, sample []int, ref *xks.Engine) {
	want := map[int]answer{}
	for _, idx := range sample {
		a, err := reference(ref, reqs[idx])
		if err != nil {
			v.note("%s: reference: %v", reqs[idx].path(""), err)
			continue
		}
		want[idx] = a
		v.pin(reqs[idx].path(""), a)
	}
	for i := range ops {
		o := &ops[i]
		v.Attempted++
		if o.failed() {
			v.fail("%s: status %d err %v", o.Req.path(o.Cursor), o.Status, o.Err)
			continue
		}
		if o.Bytes == 0 {
			v.fail("%s: empty body", o.Req.path(o.Cursor))
			continue
		}
		if o.Body == nil {
			continue
		}
		got, _, err := parseAnswer(o.Body, o.Req.Stream)
		if err != nil {
			v.fail("%s: %v", o.Req.path(o.Cursor), err)
			continue
		}
		if w, ok := want[o.Idx]; ok && !reflect.DeepEqual(got, w) {
			v.fail("%s: served %s, reference %s", o.Req.path(""), clip(got.String()), clip(w.String()))
		}
	}
}

func clip(s string) string {
	if len(s) > 160 {
		return s[:160] + "…"
	}
	return s
}

// fig6Row is one query's effectiveness ratios (the paper's Figure 6).
type fig6Row struct {
	Query    string  `json:"query"`
	RTFs     int     `json:"rtfs"`
	CFR      float64 `json:"cfr"`
	APRPrime float64 `json:"apr_prime"`
	MaxAPR   float64 `json:"max_apr"`
}

// fig6 derives the ratios from the two searches the Figure 5 workload runs
// anyway: the same fragment roots pruned by ValidRTF and by MaxMatch.
func fig6(query string, valid, maxm *xks.Result) (fig6Row, error) {
	if len(valid.Fragments) != len(maxm.Fragments) {
		return fig6Row{}, fmt.Errorf("%q: ValidRTF returned %d fragments, MaxMatch %d", query, len(valid.Fragments), len(maxm.Fragments))
	}
	codes := func(f *xks.Fragment) ([]dewey.Code, error) {
		out := make([]dewey.Code, len(f.Nodes))
		for i, n := range f.Nodes {
			c, err := dewey.Parse(n.Dewey)
			if err != nil {
				return nil, err
			}
			out[i] = c
		}
		return out, nil
	}
	pairs := make([]metrics.FragmentPair, len(valid.Fragments))
	for i, vf := range valid.Fragments {
		mf := maxm.Fragments[i]
		if vf.Root != mf.Root {
			return fig6Row{}, fmt.Errorf("%q: fragment %d rooted at %s under ValidRTF, %s under MaxMatch", query, i, vf.Root, mf.Root)
		}
		root, err := dewey.Parse(vf.Root)
		if err != nil {
			return fig6Row{}, err
		}
		vc, err := codes(vf)
		if err != nil {
			return fig6Row{}, err
		}
		mc, err := codes(mf)
		if err != nil {
			return fig6Row{}, err
		}
		pairs[i] = metrics.FragmentPair{Root: root, Valid: vc, Max: mc}
	}
	r := metrics.Compute(pairs)
	return fig6Row{Query: query, RTFs: r.NumRTFs, CFR: r.CFR, APRPrime: r.APRPrime, MaxAPR: r.MaxAPR}, nil
}

// goldenFile pins, for one seed at full scale, the generated inputs (so a
// silent datagen/workload change fails loudly instead of shifting the
// baseline), the reference answers of every workload's checked sample, and
// Figure 6.
type goldenFile struct {
	Schema  int                  `json:"schema"`
	Seed    int64                `json:"seed"`
	Inputs  map[string]string    `json:"inputs"`
	Answers map[string]string    `json:"answers"`
	Figure6 map[string][]fig6Row `json:"figure6,omitempty"`
}

const goldenSeed = 1

func goldenPath(benchDir string) string {
	return filepath.Join(benchDir, "golden", fmt.Sprintf("seed%d.json", goldenSeed))
}

func loadGolden(benchDir string) (*goldenFile, error) {
	b, err := os.ReadFile(goldenPath(benchDir))
	if err != nil {
		return nil, err
	}
	var g goldenFile
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath(benchDir), err)
	}
	return &g, nil
}

// pins is what one workload run contributes to (or checks against) the
// golden file.
type pins struct {
	Inputs  map[string]string
	Answer  string
	Figure6 map[string][]fig6Row
	// Seeded marks pins that depend on the run's seed (a seeded request
	// order); they are compared for the golden seed only. The rest — the
	// corpora, the fixed populations' answers, Figure 6 — hold for every seed.
	Seeded map[string]bool
}

// checkGolden compares a run's pins with the golden file (full scale only),
// or merges them into it under -update-golden with the golden seed. Pins
// marked Seeded are skipped on other seeds, which rely on the cross-backing
// comparison for them.
func checkGolden(cfg *config, workloadName string, p pins, v *verdict) {
	if cfg.Scale.Name != "full" {
		return
	}
	golden := cfg.Seed == goldenSeed
	if cfg.UpdateGolden {
		if !golden {
			v.note("golden: -update-golden wants -seed %d", goldenSeed)
			return
		}
		g, err := loadGolden(cfg.BenchDir)
		if err != nil {
			g = &goldenFile{}
		}
		g.Schema, g.Seed = 1, goldenSeed
		if g.Inputs == nil {
			g.Inputs, g.Answers = map[string]string{}, map[string]string{}
		}
		for k, h := range p.Inputs {
			g.Inputs[k] = h
		}
		g.Answers[workloadName] = p.Answer
		if p.Figure6 != nil {
			g.Figure6 = p.Figure6
		}
		b, _ := json.MarshalIndent(g, "", "  ")
		if err := os.MkdirAll(filepath.Dir(goldenPath(cfg.BenchDir)), 0o755); err == nil {
			err = os.WriteFile(goldenPath(cfg.BenchDir), append(b, '\n'), 0o644)
			if err != nil {
				v.note("golden: %v", err)
			}
		}
		return
	}
	g, err := loadGolden(cfg.BenchDir)
	if err != nil {
		v.note("golden: %v (run with -update-golden to create it)", err)
		return
	}
	for k, h := range p.Inputs {
		if p.Seeded[k] && !golden {
			continue
		}
		if g.Inputs[k] != h {
			v.note("golden: generated input %s hashes to %s, pinned %s — datagen/workload changed", k, h[:12], clip(g.Inputs[k]))
		}
	}
	if (golden || !p.Seeded["answers"]) && g.Answers[workloadName] != p.Answer {
		v.note("golden: reference answers of %s digest to %s, pinned %s", workloadName, p.Answer[:12], clip(g.Answers[workloadName]))
	}
	if p.Figure6 != nil && !reflect.DeepEqual(p.Figure6, g.Figure6) {
		v.note("golden: Figure 6 ratios differ from the pinned ones")
	}
}
