// Command bench is the repository's one benchmark: four workloads over the
// whole stack (the paper's Figure 5 in process, and a live xkserver hot,
// cold and under writes), end-to-end metrics measured with tracing off, and
// per-layer metrics from a traced in-process replay, layer microbenchmarks
// and the server's own counters. See README.md for the catalogue and
// ../BENCHMARK.json for the contract the PR pipeline runs it under.
//
//	bash bench/run.sh --workload serve-hot --seed 1 --seconds 12 --trace 0
//	go run -C bench . -seed 1 -trace both -out out/run.json     # all four
//	go run -C bench . -workload fig5-full -repeat 10            # spreads
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// config is one invocation's settings, shared by every workload.
type config struct {
	Seed         int64
	Window       time.Duration
	Scale        scale
	Trace        bool
	UpdateGolden bool
	BenchDir     string // this package's directory (golden/, out/)
	OutDir       string // scratch: corpora, stores, server logs, span files
	BinDir       string // xkserver, xkshred
}

// result is one workload run: correctness plus the metrics of the mode it
// ran in (end-to-end with tracing off, per-layer with tracing on).
type result struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Verdict  verdict            `json:"-"`
	E2E      map[string]float64 `json:"e2e,omitempty"`
	Layers   map[string]float64 `json:"layers,omitempty"`
	Samples  map[string]int     `json:"samples,omitempty"`
}

type workloadFunc func(cfg *config) (*result, error)

var workloadFuncs = map[string]workloadFunc{
	"fig5-full":   runFig5,
	"serve-hot":   runServeHot,
	"serve-cold":  runServeCold,
	"serve-write": runServeWrite,
}

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload (default: all four, one after another)")
		seed         = flag.Int64("seed", 1, "shapes every generated input: corpora, request order, arrival schedule")
		seconds      = flag.Int("seconds", runSeconds, "length of each workload's timed window")
		traceMode    = flag.String("trace", "0", "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics; both")
		scaleName    = flag.String("scale", "full", "corpus scale: full (the large presets) or smoke (tests)")
		repeat       = flag.Int("repeat", 1, "run each workload N times on seeds seed..seed+N-1 and print median, quartiles and spread")
		out          = flag.String("out", "", "also write the results as JSON to this file")
		updateGolden = flag.Bool("update-golden", false, "rewrite golden/seed1.json from this run (seed 1, full scale)")
		emitContract = flag.Bool("benchmark-json", false, "print the BENCHMARK.json this catalogue implies and exit")
	)
	flag.Parse()
	if *emitContract {
		os.Stdout.Write(benchmarkJSON())
		return
	}
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	sc, ok := scales[*scaleName]
	if !ok {
		fatal(fmt.Errorf("unknown -scale %q", *scaleName))
	}
	var modes []bool
	switch *traceMode {
	case "0":
		modes = []bool{false}
	case "1":
		modes = []bool{true}
	case "both":
		modes = []bool{false, true}
	default:
		fatal(fmt.Errorf("-trace wants 0, 1 or both, not %q", *traceMode))
	}
	names := workloadNames()
	if *workloadName != "" {
		if workloadFuncs[*workloadName] == nil {
			fatal(fmt.Errorf("unknown -workload %q (have %s)", *workloadName, strings.Join(names, ", ")))
		}
		names = []string{*workloadName}
	}

	benchDir, repoRoot, err := locate()
	if err != nil {
		fatal(err)
	}
	cfg := &config{
		Window:       time.Duration(*seconds) * time.Second,
		Scale:        sc,
		UpdateGolden: *updateGolden,
		BenchDir:     benchDir,
		OutDir:       filepath.Join(benchDir, "out"),
		BinDir:       filepath.Join(repoRoot, ".bench_build", "bin"),
	}
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		fatal(err)
	}
	if err := buildChildren(repoRoot, cfg.BinDir); err != nil {
		fatal(err)
	}

	var all []*result
	ok = true
	for _, name := range names {
		for _, traced := range modes {
			var runs []*result
			for i := range *repeat {
				cfg.Seed, cfg.Trace = *seed+int64(i), traced
				r, err := workloadFuncs[name](cfg)
				if err != nil {
					fatal(fmt.Errorf("%s: %w", name, err))
				}
				printResult(r, traced)
				ok = ok && r.Verdict.Failed == 0
				runs = append(runs, r)
			}
			if *repeat > 1 {
				printSpread(name, runs, traced)
			}
			all = append(all, runs...)
		}
	}
	if *out != "" {
		if err := writeOut(*out, repoRoot, *seed, all); err != nil {
			fatal(err)
		}
	}
	// The contract's last line: one JSON object for the (last) run.
	last := all[len(all)-1]
	os.Stdout.Write(append(driverLine(last, modes[len(modes)-1]), '\n'))
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// locate finds this package's directory and the repository root above it,
// whether the harness was started from the root (run.sh) or from bench/
// (go run -C bench .).
func locate() (benchDir, repoRoot string, err error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", "", err
	}
	for _, root := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(root, "bench", "golden")); err != nil {
			continue
		}
		if _, err := os.Stat(filepath.Join(root, "cmd", "xkserver")); err == nil {
			return filepath.Join(root, "bench"), root, nil
		}
	}
	return "", "", fmt.Errorf("run from the repository root or from bench/ (cwd %s has neither bench/golden nor ../cmd/xkserver)", wd)
}

// printResult prints every metric of a run as `workload  name  value  unit`.
func printResult(r *result, traced bool) {
	defs, values := endToEnd, r.E2E
	if traced {
		defs, values = perLayer, r.Layers
	}
	for _, d := range defs {
		note := ""
		if n, ok := r.Samples[d.Name]; ok {
			note = fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Printf("%-12s %-40s %14.4f %-8s%s\n", r.Workload, d.Name, values[d.Name], d.Unit, note)
	}
	fmt.Printf("%-12s seed=%d attempted=%d failed=%d\n", r.Workload, r.Seed, r.Verdict.Attempted, r.Verdict.Failed)
	for _, why := range r.Verdict.Reasons {
		fmt.Printf("%-12s FAILED: %s\n", r.Workload, why)
	}
}

// printSpread prints the repeat-run table (a markdown table, so NOISE.md is
// this output verbatim).
func printSpread(name string, runs []*result, traced bool) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	fmt.Printf("\n| workload | metric | unit | runs | median | q1 | q3 | spread (q3-q1)/median |\n|---|---|---|---|---|---|---|---|\n")
	for _, d := range defs {
		var vals []float64
		for _, r := range runs {
			if traced {
				vals = append(vals, r.Layers[d.Name])
			} else {
				vals = append(vals, r.E2E[d.Name])
			}
		}
		s := summarize(vals)
		fmt.Printf("| %s | %s | %s | %d | %.4g | %.4g | %.4g | %.1f%% |\n", name, d.Name, d.Unit, s.N, s.Median, s.Q1, s.Q3, 100*s.Spread)
	}
	fmt.Println()
}

// driverLine renders the contract's result object: correct, attempted,
// failed, and every metric of the mode with its unit.
func driverLine(r *result, traced bool) []byte {
	defs, values := endToEnd, r.E2E
	if traced {
		defs, values = perLayer, r.Layers
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]mv{}
	for _, d := range defs {
		ms[d.Name] = mv{Value: values[d.Name], Unit: d.Unit}
	}
	b, _ := json.Marshal(map[string]any{
		"correct":   r.Verdict.Failed == 0,
		"attempted": max(r.Verdict.Attempted, 1),
		"failed":    r.Verdict.Failed,
		"metrics":   ms,
	})
	return b
}

// writeOut writes the run file: schema, provenance, and per workload the
// end-to-end and per-layer metrics with their sample counts.
func writeOut(path, repoRoot string, seed int64, all []*result) error {
	type entry struct {
		E2E       map[string]float64 `json:"e2e,omitempty"`
		Layers    map[string]float64 `json:"layers,omitempty"`
		Samples   map[string]int     `json:"samples,omitempty"`
		Attempted int                `json:"attempted"`
		Failed    int                `json:"failed"`
	}
	sha := "unknown"
	if b, err := exec.Command("git", "-C", repoRoot, "rev-parse", "HEAD").Output(); err == nil {
		sha = strings.TrimSpace(string(b))
	}
	doc := struct {
		Schema    int               `json:"schema"`
		GitSHA    string            `json:"git_sha"`
		GoVersion string            `json:"go_version"`
		NProc     int               `json:"nproc"`
		Seed      int64             `json:"seed"`
		Workloads map[string]*entry `json:"workloads"`
	}{1, sha, runtime.Version(), runtime.NumCPU(), seed, map[string]*entry{}}
	for _, r := range all {
		if r.Seed != seed {
			continue // -repeat: the file records the first seed's runs
		}
		e := doc.Workloads[r.Workload]
		if e == nil {
			e = &entry{Samples: map[string]int{}}
			doc.Workloads[r.Workload] = e
		}
		if r.E2E != nil {
			e.E2E = r.E2E
		}
		if r.Layers != nil {
			e.Layers = r.Layers
		}
		for k, n := range r.Samples {
			e.Samples[k] = n
		}
		e.Attempted += r.Verdict.Attempted
		e.Failed += r.Verdict.Failed
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
