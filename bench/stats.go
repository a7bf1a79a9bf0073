package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 < q <= 1) of an ascending sample by
// nearest rank: the smallest value with at least q·n samples at or below
// it. Zero for an empty sample.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(n))) - 1
	return sorted[min(max(i, 0), n-1)]
}

// tailPercentiles are the tail percentiles a latency report may name, highest
// first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75}

// supportedTail returns the highest tail percentile with at least ten samples
// beyond it in a sample of n (the choosing-metrics rule), or 50 when even
// p75 has fewer.
func supportedTail(n int) float64 {
	for _, p := range tailPercentiles {
		beyond := n - int(math.Ceil(p/100*float64(n)-1e-9)) // 99.9 % of 10000 is 9990, not 9990.000000000002
		if beyond >= 10 {
			return p
		}
	}
	return 50
}

// summary is the repeat-run digest of one metric: median, quartiles as
// statistics.quantiles(values, n=4) defines them (exclusive method), and
// the interquartile range as a share of the median.
type summary struct {
	N              int
	Median, Q1, Q3 float64
	Spread         float64
}

func summarize(values []float64) summary {
	xs := append([]float64(nil), values...)
	sort.Float64s(xs)
	n := len(xs)
	s := summary{N: n}
	if n == 0 {
		return s
	}
	if n == 1 {
		s.Median, s.Q1, s.Q3 = xs[0], xs[0], xs[0]
		return s
	}
	// Python's exclusive method: the i-th of m cut points sits at position
	// i·(n+1)/m (1-based), linearly interpolated and clamped to the sample.
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1)) - float64(j*4)
		return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	s.Q1, s.Median, s.Q3 = cut(1), cut(2), cut(3)
	if s.Median != 0 {
		s.Spread = (s.Q3 - s.Q1) / math.Abs(s.Median)
	}
	return s
}

// latencies collects per-operation latencies and reports them in
// milliseconds.
type latencies []time.Duration

func usec(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func msec(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (l latencies) sortedMS() []float64 {
	out := make([]float64, len(l))
	for i, d := range l {
		out[i] = msec(d)
	}
	sort.Float64s(out)
	return out
}

// median is the middle value, or the mean of the two middle values.
func median(values []float64) float64 {
	xs := append([]float64(nil), values...)
	sort.Float64s(xs)
	n := len(xs)
	if n == 0 {
		return 0
	}
	return (xs[(n-1)/2] + xs[n/2]) / 2
}
