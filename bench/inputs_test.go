package main

import (
	"fmt"
	"testing"
	"time"

	"xks/internal/workload"
)

// Equal seeds must give byte-identical inputs, different seeds different
// ones: the seed is the only thing that shapes a run.
func TestInputsAreAFunctionOfTheSeed(t *testing.T) {
	w := workload.DBLP()
	gen := func(seed int64) string {
		return fmt.Sprint(
			newZipf(256, 1.0, seed).draws(500),
			hashRequests(coldPopulation(w, seed)),
			arrivals(400, time.Second, seed),
			appendDocs(w, seed, 20),
		)
	}
	if gen(7) != gen(7) {
		t.Fatal("same seed, different inputs")
	}
	if gen(7) == gen(8) {
		t.Fatal("different seeds, same inputs")
	}
	a, err := genCorpus("dblp", scales["smoke"])
	if err != nil {
		t.Fatal(err)
	}
	b, _ := genCorpus("dblp", scales["smoke"])
	if sha(a.XML) != sha(b.XML) {
		t.Fatal("the corpus must be the same document on every run")
	}
}

func TestPopulations(t *testing.T) {
	w := workload.DBLP()
	hot := hotPopulation(w)
	if len(hot) != 256 {
		t.Fatalf("hot population = %d requests, want 256", len(hot))
	}
	cold := coldPopulation(w, 1)
	if want := (190 + 1140) * 3; len(cold) != want {
		t.Fatalf("cold population = %d requests, want %d", len(cold), want)
	}
	for _, pop := range [][]searchReq{hot, cold} {
		seen := map[string]bool{}
		for _, r := range pop {
			if seen[r.path("")] {
				t.Fatalf("duplicate request %s", r.path(""))
			}
			seen[r.path("")] = true
		}
	}
}

func TestZipfFavoursLowRanks(t *testing.T) {
	counts := make([]int, 256)
	for _, d := range newZipf(256, 1.0, 1).draws(100000) {
		counts[d]++
	}
	// P(rank 0) = 1/H(256) ≈ 0.1633; P(rank 1) half of that.
	if p := float64(counts[0]) / 100000; p < 0.15 || p > 0.18 {
		t.Fatalf("rank 0 drawn with frequency %v, want ≈ 0.163", p)
	}
	if r := float64(counts[0]) / float64(counts[1]); r < 1.8 || r > 2.2 {
		t.Fatalf("rank 0 / rank 1 = %v, want ≈ 2", r)
	}
}

func TestArrivalsCoverTheWindowAtTheRate(t *testing.T) {
	due := arrivals(400, 10*time.Second, 3)
	if n := len(due); n < 3700 || n > 4300 {
		t.Fatalf("%d arrivals in 10 s at 400/s", n)
	}
	for i := 1; i < len(due); i++ {
		if due[i] < due[i-1] {
			t.Fatal("schedule not ascending")
		}
	}
	if due[len(due)-1] >= 10*time.Second {
		t.Fatal("arrival past the window")
	}
}
