package main

import (
	"math"
	"testing"
)

func TestSupportedTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, {9999, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90}, {99, 75}, {40, 75}, {39, 50}, {0, 50},
	} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = p%g, want p%g", c.n, got, c.want)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for q, want := range map[float64]float64{0.5: 5, 0.95: 10, 0.9: 9, 0.1: 1, 1: 10} {
		if got := quantile(xs, q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of an empty sample must be 0")
	}
}

// summarize must agree with Python's statistics.quantiles(values, n=4), the
// rule the PR pipeline judges spreads by.
func TestSummarizeMatchesPythonQuartiles(t *testing.T) {
	s := summarize([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 {
		t.Fatalf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", s.Q1, s.Median, s.Q3)
	}
	if math.Abs(s.Spread-1.0) > 1e-12 {
		t.Fatalf("spread = %v, want 1", s.Spread)
	}
	s = summarize([]float64{10, 12, 11, 13, 9})
	if s.Q1 != 9.5 || s.Median != 11 || s.Q3 != 12.5 {
		t.Fatalf("quartiles = %v %v %v, want 9.5 11 12.5", s.Q1, s.Median, s.Q3)
	}
}

func TestMedian(t *testing.T) {
	if median([]float64{3, 1, 2}) != 2 || median([]float64{4, 1, 2, 3}) != 2.5 || median(nil) != 0 {
		t.Fatal("median")
	}
}
