package planner

import (
	"math/rand"
	"testing"
)

func TestRarestFirstOrdering(t *testing.T) {
	cases := []struct {
		sizes []int
		want  []int
	}{
		{[]int{5}, []int{0}},
		{[]int{10, 2, 7}, []int{1, 2, 0}},
		{[]int{3, 3, 1}, []int{2, 0, 1}}, // stable on ties
		{[]int{0, 9, 0}, []int{0, 2, 1}},
	}
	for _, c := range cases {
		d := Decide(c.sizes, Stats{Postings: 1, DepthSum: 4}, Default)
		if len(d.Order) != len(c.want) {
			t.Fatalf("sizes %v: order %v", c.sizes, d.Order)
		}
		for i := range c.want {
			if d.Order[i] != c.want[i] {
				t.Errorf("sizes %v: order = %v, want %v", c.sizes, d.Order, c.want)
				break
			}
		}
	}
}

func TestRarestFirstIsPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.Intn(12)
		sizes := make([]int, k)
		for i := range sizes {
			sizes[i] = rng.Intn(1000)
		}
		order := rarestFirst(sizes)
		seen := make([]bool, k)
		for _, idx := range order {
			if idx < 0 || idx >= k || seen[idx] {
				t.Fatalf("sizes %v: order %v is not a permutation", sizes, order)
			}
			seen[idx] = true
		}
		for i := 1; i < k; i++ {
			if sizes[order[i-1]] > sizes[order[i]] {
				t.Fatalf("sizes %v: order %v not ascending", sizes, order)
			}
		}
	}
}

func TestDecideCrossover(t *testing.T) {
	st := Stats{Postings: 1, DepthSum: 5}
	// Similar-magnitude lists: one scan beats per-occurrence probing.
	d := Decide([]int{1000, 1200, 900}, st, Default)
	if d.Strategy != ScanMerge {
		t.Errorf("balanced lists resolved to %v, want ScanMerge (estScan=%.0f estIndexed=%.0f)",
			d.Strategy, d.EstScan, d.EstIndexed)
	}
	// Heavy skew: the rare list drives indexed lookups.
	d = Decide([]int{5, 200000, 150000}, st, Default)
	if d.Strategy != IndexedEager {
		t.Errorf("skewed lists resolved to %v, want IndexedEager (estScan=%.0f estIndexed=%.0f)",
			d.Strategy, d.EstScan, d.EstIndexed)
	}
	if d.Skew < 1000 {
		t.Errorf("Skew = %v", d.Skew)
	}
	if !d.Skip {
		t.Error("Auto decision should enable dispatch galloping")
	}
	// Single term: nothing to intersect, scan it.
	d = Decide([]int{42}, st, Default)
	if d.Strategy != ScanMerge {
		t.Errorf("single term resolved to %v", d.Strategy)
	}
}

func TestDecideMonotoneInSkew(t *testing.T) {
	// Shrinking the smallest list must never flip the decision from
	// IndexedEager back to ScanMerge (estIndexed is monotone in minSize).
	st := Stats{Postings: 1, DepthSum: 6}
	flipped := false
	for minSize := 100000; minSize >= 1; minSize /= 2 {
		d := Decide([]int{minSize, 100000}, st, Default)
		if d.Strategy == IndexedEager {
			flipped = true
		} else if flipped {
			t.Fatalf("decision flipped back to ScanMerge at minSize=%d", minSize)
		}
	}
	if !flipped {
		t.Fatal("no skew ever selected IndexedEager")
	}
}

func TestOrderString(t *testing.T) {
	if got := (Decision{Order: []int{2, 0, 1}}).OrderString(3); got != "2,0,1" {
		t.Errorf("OrderString = %q", got)
	}
	if got := (Decision{}).OrderString(3); got != "0,1,2" {
		t.Errorf("identity OrderString = %q", got)
	}
	if got := (Decision{}).OrderString(0); got != "" {
		t.Errorf("empty OrderString = %q", got)
	}
}
