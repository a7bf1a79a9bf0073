package main

import (
	"bytes"
	"os"
	"regexp"
	"testing"
)

// BENCHMARK.json is generated from the catalogue (`-benchmark-json`); the
// committed file must be that output, and must stay inside the limits the
// PR pipeline refuses a file for.
func TestBenchmarkJSONMatchesTheCatalogue(t *testing.T) {
	want := benchmarkJSON()
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("../BENCHMARK.json differs from the catalogue; regenerate it with `go run -C bench . -benchmark-json > BENCHMARK.json`")
	}
	if len(want) > 64<<10 {
		t.Fatalf("BENCHMARK.json is %d bytes, over 64 KiB", len(want))
	}
}

func TestCatalogueLimits(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("bad name %q", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloadDefs); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range workloadDefs {
		check(w.Name)
		if len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("why of %s: %d chars, one line of at most 200 wanted", w.Name, len(w.Why))
		}
		if workloadFuncs[w.Name] == nil {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	hasSetup := false
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		check(d.Name)
		if !unit.MatchString(d.Unit) {
			t.Errorf("bad unit %q of %s", d.Unit, d.Name)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("better of %s is %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("bound of %s is %v", d.Name, d.Bound)
		}
		if d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}
}
