//go:build !race

package analysis_test

import (
	"testing"

	"xks/internal/analysis"
	"xks/internal/datagen"
	"xks/internal/index"
)

// TestContentSetAllocs pins build-time analysis: a vocabulary that has seen
// a node's words analyses the node without allocating, and a whole build's
// analysis (index.Analyze: a new vocabulary, every node's row) allocates at
// most one object per node with content — the vocabulary's one string per
// distinct word and the growth of its maps and rows, nothing per node.
func TestContentSetAllocs(t *testing.T) {
	tr := datagen.DBLP(datagen.DBLPConfig{Seed: 1, NumRecords: 3000})
	an := analysis.New()
	nodes := tr.Nodes()
	v := an.NewVocab()
	var (
		ids    []uint32
		pieces []string
	)
	withContent := 0
	analyse := func() {
		withContent = 0
		for _, n := range nodes {
			pieces = n.AppendContentPieces(pieces[:0])
			if ids = v.AppendContent(ids[:0], pieces...); len(ids) > 0 {
				withContent++
			}
		}
	}
	analyse()
	if allocs := testing.AllocsPerRun(3, analyse); allocs != 0 {
		t.Errorf("a warm vocabulary allocates %.0f objects analysing %d nodes; want 0", allocs, len(nodes))
	}
	allocs := testing.AllocsPerRun(3, func() { index.Analyze(tr, an) })
	if allocs > float64(withContent) {
		t.Errorf("analysing %d nodes with content allocates %.0f objects; want at most one a node", withContent, allocs)
	}
}

// TestNewAllocs: every Analyzer shares one read-only stop set, built once,
// so New allocates the Analyzer and nothing else.
func TestNewAllocs(t *testing.T) {
	analysis.New()
	if allocs := testing.AllocsPerRun(100, func() { analysis.New() }); allocs > 1 {
		t.Errorf("New allocates %.0f objects; want at most 1", allocs)
	}
}
