//go:build !race

package prune

import (
	"runtime"
	"testing"
	"unsafe"

	"xks/internal/nid"
)

// TestPruneScratchReuseAllocBytes: a released scratch goes back to the pool
// whatever its size, with the Fragment handle inside it, so building and
// pruning a document-root-sized RTF again allocates the kept-ID result and
// next to nothing besides — where the node array alone (1.2 MB here) used to
// be allocated and zeroed afresh for every fragment past 1 MB. The slack is
// the allocator rounding a result past 32 KB up to whole 8 KB pages; the
// smallest pooled array that could be reallocated (a byte per node) is three
// times it. The race detector's sync.Pool drops entries at random, hence the
// build tag.
func TestPruneScratchReuseAllocBytes(t *testing.T) {
	const slack = 16 << 10
	s := sameLabelChildren(25000)
	run := func() (nodes, kept int) {
		f := BuildFragment(s.tab, s.idRTF, s.column, s.content, Options{})
		ids, nodes := f.AppendKeptIDs(nil, ValidContributor, Options{})
		f.Release()
		return nodes, len(ids)
	}
	nodes, kept := run()
	if nodes < 50000 {
		t.Fatalf("fragment has %d nodes, want at least 50000", nodes)
	}
	result := uint64(kept) * uint64(unsafe.Sizeof(nid.ID(0)))
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
	t.Logf("second build+prune of %d nodes allocates %d bytes; the %d kept IDs take %d", nodes, best, kept, result)
	if best > result+slack {
		t.Errorf("second build+prune allocates %d bytes, %d beyond the %d-byte kept-ID result; want at most %d: the scratch is not being reused",
			best, best-result, result, slack)
	}
}
