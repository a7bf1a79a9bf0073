package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestSmoke runs all four workloads end to end at smoke scale (400-record
// DBLP, one-second windows), tracing off and on: corpus generation, child
// build, xkshred, xkserver start on a free port, load, checks, scrape,
// replay, stop. Every run must be correct and fill every metric of its mode.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts child processes")
	}
	benchDir, repoRoot, err := locate()
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	cfg := &config{
		Seed: 3, Window: time.Second, Scale: scales["smoke"],
		BenchDir: benchDir, OutDir: filepath.Join(tmp, "out"), BinDir: filepath.Join(tmp, "bin"),
	}
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := buildChildren(repoRoot, cfg.BinDir); err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			cfg.Trace = traced
			r, err := workloadFuncs[name](cfg)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", name, traced, err)
			}
			if r.Verdict.Failed != 0 || r.Verdict.Attempted == 0 {
				t.Errorf("%s (trace %v): attempted %d, failed %d: %v", name, traced, r.Verdict.Attempted, r.Verdict.Failed, r.Verdict.Reasons)
			}
			if !traced {
				for _, d := range endToEnd {
					if v, ok := r.E2E[d.Name]; !ok || v <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v", name, d.Name, v)
					}
				}
				continue
			}
			for k := range r.Layers {
				known := false
				for _, d := range perLayer {
					known = known || d.Name == k
				}
				if !known {
					t.Errorf("%s: layer metric %s is not in the catalogue", name, k)
				}
			}
			if u := r.Layers["bench.unattributed_share"]; u <= 0 || u > 0.5 {
				t.Errorf("%s: unattributed share %v", name, u)
			}
			if _, err := os.Stat(filepath.Join(cfg.OutDir, "trace-"+name+".json")); err != nil {
				t.Errorf("%s: no span file: %v", name, err)
			}
			if name == "serve-write" != (r.Layers["share.delta"] > 0) {
				t.Errorf("%s: share.delta = %v; delta must be on the path of serve-write only", name, r.Layers["share.delta"])
			}
		}
	}
}
