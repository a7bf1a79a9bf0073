package main

import (
	"strings"
	"testing"

	"xks/internal/reference"
	"xks/internal/xmltree"
)

func TestAnalyzePublications(t *testing.T) {
	tree := reference.Publications()
	r := analyze(tree, 0)
	if r.Nodes != tree.Size() {
		t.Errorf("Nodes = %d, want %d", r.Nodes, tree.Size())
	}
	if r.MaxDepth != 5 {
		t.Errorf("MaxDepth = %d, want 5", r.MaxDepth)
	}
	if r.Labels != len(tree.LabelHistogram()) {
		t.Errorf("Labels = %d", r.Labels)
	}
	sum := 0
	for _, c := range r.DepthCounts {
		sum += c
	}
	if sum != r.Nodes {
		t.Errorf("depth counts sum %d != nodes %d", sum, r.Nodes)
	}
	if r.DepthCounts[0] != 1 {
		t.Errorf("one root expected, got %d", r.DepthCounts[0])
	}
	if r.Leaves == 0 || r.Leaves >= r.Nodes {
		t.Errorf("Leaves = %d of %d", r.Leaves, r.Nodes)
	}
	if r.AvgDepth <= 0 || r.AvgDepth > float64(r.MaxDepth) {
		t.Errorf("AvgDepth = %v", r.AvgDepth)
	}
	if r.MaxFanOut < 3 { // Publications has 3 children
		t.Errorf("MaxFanOut = %d", r.MaxFanOut)
	}
	if r.TextNodes == 0 || r.TotalTextLen == 0 {
		t.Error("text statistics empty")
	}
}

func TestTopLabelsSortedAndLimited(t *testing.T) {
	tree := reference.Publications()
	r := analyze(tree, 3)
	if len(r.TopLabels) != 3 {
		t.Fatalf("TopLabels = %d", len(r.TopLabels))
	}
	for i := 1; i < len(r.TopLabels); i++ {
		if r.TopLabels[i-1].Count < r.TopLabels[i].Count {
			t.Fatalf("TopLabels not sorted: %+v", r.TopLabels)
		}
	}
}

func TestReportString(t *testing.T) {
	r := analyze(reference.Team(), 2)
	out := r.String()
	for _, want := range []string{"nodes:", "max depth:", "top labels:", "player"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestAnalyzeSingleNode(t *testing.T) {
	tree := xmltree.Build(xmltree.E{Label: "only"})
	r := analyze(tree, 0)
	if r.Nodes != 1 || r.Leaves != 1 || r.MaxDepth != 0 || r.MaxFanOut != 0 {
		t.Errorf("single node report = %+v", r)
	}
}
