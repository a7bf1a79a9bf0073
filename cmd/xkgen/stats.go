package main

import (
	"fmt"
	"sort"
	"strings"

	"xks/internal/xmltree"
)

// report holds the structural statistics of one dataset, what -stats prints:
// node counts, depth distribution, label histogram and fan-out — the
// numbers one quotes when describing an evaluation corpus (§5.1 of the
// paper quotes sizes and keyword frequencies).
type report struct {
	Nodes        int
	MaxDepth     int
	AvgDepth     float64
	Leaves       int
	MaxFanOut    int
	AvgFanOut    float64 // over internal nodes
	Labels       int
	TopLabels    []labelCount
	DepthCounts  []int // index = depth
	TextNodes    int
	TotalTextLen int
}

// labelCount is one label histogram entry.
type labelCount struct {
	Label string
	Count int
}

// analyze walks the tree and fills a report. topN limits TopLabels (0 = all
// labels).
func analyze(t *xmltree.Tree, topN int) *report {
	r := &report{}
	var depthSum, internal, fanSum int
	t.Walk(func(n *xmltree.Node) bool {
		r.Nodes++
		d := n.Level()
		if d >= len(r.DepthCounts) {
			grown := make([]int, d+1)
			copy(grown, r.DepthCounts)
			r.DepthCounts = grown
		}
		r.DepthCounts[d]++
		depthSum += d
		if d > r.MaxDepth {
			r.MaxDepth = d
		}
		if n.IsLeaf() {
			r.Leaves++
		} else {
			internal++
			fanSum += len(n.Children)
			if len(n.Children) > r.MaxFanOut {
				r.MaxFanOut = len(n.Children)
			}
		}
		if n.Text != "" {
			r.TextNodes++
			r.TotalTextLen += len(n.Text)
		}
		return true
	})
	if r.Nodes > 0 {
		r.AvgDepth = float64(depthSum) / float64(r.Nodes)
	}
	if internal > 0 {
		r.AvgFanOut = float64(fanSum) / float64(internal)
	}
	hist := t.LabelHistogram()
	r.Labels = len(hist)
	for l, c := range hist {
		r.TopLabels = append(r.TopLabels, labelCount{Label: l, Count: c})
	}
	sort.Slice(r.TopLabels, func(i, j int) bool {
		if r.TopLabels[i].Count != r.TopLabels[j].Count {
			return r.TopLabels[i].Count > r.TopLabels[j].Count
		}
		return r.TopLabels[i].Label < r.TopLabels[j].Label
	})
	if topN > 0 && len(r.TopLabels) > topN {
		r.TopLabels = r.TopLabels[:topN]
	}
	return r
}

// String renders the report as an aligned text block.
func (r *report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "nodes:        %d\n", r.Nodes)
	fmt.Fprintf(&b, "max depth:    %d (avg %.2f)\n", r.MaxDepth, r.AvgDepth)
	fmt.Fprintf(&b, "leaves:       %d\n", r.Leaves)
	fmt.Fprintf(&b, "max fan-out:  %d (avg %.2f)\n", r.MaxFanOut, r.AvgFanOut)
	fmt.Fprintf(&b, "labels:       %d\n", r.Labels)
	fmt.Fprintf(&b, "text nodes:   %d (total %d bytes)\n", r.TextNodes, r.TotalTextLen)
	if len(r.TopLabels) > 0 {
		b.WriteString("top labels:\n")
		for _, lc := range r.TopLabels {
			fmt.Fprintf(&b, "  %-20s %d\n", lc.Label, lc.Count)
		}
	}
	return b.String()
}
