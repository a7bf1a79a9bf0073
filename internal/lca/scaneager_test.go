package lca

import (
	"math/rand"
	"testing"

	"xks/internal/dewey"
	"xks/internal/reference"
)

// SLCAScanEager agrees with the naive definition over thousands of random
// inputs.
func TestScanEagerAgreesRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(314))
	for trial := 0; trial < 3000; trial++ {
		k := 1 + rng.Intn(4)
		sets := randomSets(rng, k)
		got := reference.SLCAScanEager(sets)
		want := reference.SLCANaive(sets)
		assertSame(t, trial, "ScanEager vs naive", got, want, sets)
	}
}

func TestScanEagerPaperQueries(t *testing.T) {
	sets := setsFor(t, "Liu keyword", true)
	wantCodes(t, reference.SLCAScanEager(sets), "0.2.0.3.0")
	sets = setsFor(t, "VLDB title XML keyword search", true)
	wantCodes(t, reference.SLCAScanEager(sets), "0")
}

func TestScanEagerEmpty(t *testing.T) {
	if reference.SLCAScanEager(nil) != nil {
		t.Error("nil input")
	}
	if reference.SLCAScanEager([][]dewey.Code{{dewey.MustParse("0.1")}, {}}) != nil {
		t.Error("empty posting list should give nil")
	}
}
