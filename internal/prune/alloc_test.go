//go:build !race

package prune

import (
	"runtime"
	"testing"
	"unsafe"
)

// TestPruneScratchReuseAllocBytes: a released scratch goes back to the pool
// whatever its size, so building and pruning a document-root-sized RTF again
// allocates the result and little else — under 5 % of the node array, which
// alone used to be allocated (and zeroed) afresh for every fragment past
// 1 MB. The race detector's sync.Pool drops entries at random, hence the
// build tag.
func TestPruneScratchReuseAllocBytes(t *testing.T) {
	s := sameLabelChildren(25000)
	run := func() (nodes int) {
		f := BuildFragmentIDs(s.tab, s.idRTF, s.labelOfID, s.contentOfID, Options{})
		nodes = f.Size()
		f.KeptIDs(ValidContributor, Options{})
		f.Release()
		return nodes
	}
	nodes := run()
	if nodes < 50000 {
		t.Fatalf("fragment has %d nodes, want at least 50000", nodes)
	}
	nodeBytes := uint64(nodes) * uint64(unsafe.Sizeof(node{}))
	// A collection between Release and the next build may empty the pool:
	// the best of a few runs is the steady state.
	best := ^uint64(0)
	var before, after runtime.MemStats
	for range 5 {
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("second build+prune of %d nodes allocates %d bytes; the node array is %d", nodes, best, nodeBytes)
	if best*20 >= nodeBytes {
		t.Errorf("second build+prune allocates %d bytes, %.0f%% of the %d-byte node array; want under 5%%: the scratch is not being reused",
			best, 100*float64(best)/float64(nodeBytes), nodeBytes)
	}
}
