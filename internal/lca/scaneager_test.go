package lca

import (
	"math/rand"
	"testing"

	"xks/internal/dewey"
)

// SLCAScanEager computes the smallest LCA set with the Scan Eager strategy
// of Xu & Papakonstantinou (SIGMOD 2005): a single merge scan over all
// posting lists in document order, emitting a candidate whenever the
// running LCA window closes, then removing non-minimal candidates. A test
// reference: the engine evaluates SLCA with the galloping indexed kernel
// alone.
func SLCAScanEager(sets [][]dewey.Code) []dewey.Code {
	if len(sets) == 0 {
		return nil
	}
	for _, s := range sets {
		if len(s) == 0 {
			return nil
		}
	}
	events := MergeSets(sets)

	// Sliding window over the merged stream: maintain, for each keyword,
	// the most recent occurrence; when all keywords have been seen, the
	// LCA of the current "closest" occurrence set is a candidate. A
	// linear scan with per-keyword last-seen codes reproduces Scan Eager's
	// behaviour without the original paper's cursor bookkeeping.
	last := make([]dewey.Code, len(sets))
	var candidates []dewey.Code
	for _, ev := range events {
		for i := range sets {
			if ev.Mask&(1<<uint(i)) != 0 {
				last[i] = ev.Code
			}
		}
		ready := true
		var acc dewey.Code
		for i := range last {
			if last[i] == nil {
				ready = false
				break
			}
			if acc == nil {
				acc = last[i].Clone()
			} else {
				acc = dewey.LCA(acc, last[i])
			}
		}
		if ready && acc != nil {
			candidates = append(candidates, acc)
		}
	}
	if len(candidates) == 0 {
		return nil
	}
	dewey.Sort(candidates)
	candidates = dewey.Dedup(candidates)
	return removeAncestors(candidates)
}

// SLCAScanEager agrees with the naive definition over thousands of random
// inputs.
func TestScanEagerAgreesRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(314))
	for trial := 0; trial < 3000; trial++ {
		k := 1 + rng.Intn(4)
		sets := randomSets(rng, k)
		got := SLCAScanEager(sets)
		want := SLCANaive(sets)
		assertSame(t, trial, "ScanEager vs naive", got, want, sets)
	}
}

func TestScanEagerPaperQueries(t *testing.T) {
	sets := setsFor(t, "Liu keyword", true)
	wantCodes(t, SLCAScanEager(sets), "0.2.0.3.0")
	sets = setsFor(t, "VLDB title XML keyword search", true)
	wantCodes(t, SLCAScanEager(sets), "0")
}

func TestScanEagerEmpty(t *testing.T) {
	if SLCAScanEager(nil) != nil {
		t.Error("nil input")
	}
	if SLCAScanEager([][]dewey.Code{{dewey.MustParse("0.1")}, {}}) != nil {
		t.Error("empty posting list should give nil")
	}
}

func BenchmarkSLCAScanEager(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	sets := benchmarkSets(rng, 3, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SLCAScanEager(sets)
	}
}
