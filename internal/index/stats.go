package index

import (
	"xks/internal/nid"
	"xks/internal/planner"
)

// maxDepthBuckets caps the depth histogram; deeper postings fold into the
// last bucket (matching planner.Stats.DepthHist semantics).
const maxDepthBuckets = 32

// Stats returns the planner statistics for this index. They are computed
// lazily on first use (one pass over the node table and posting lists) and
// cached; a store load that carries persisted statistics preempts the scan
// via SetStats. The index is immutable, so they never go stale; the
// postings a delta segment adds are counted by the snapshot that holds it.
func (ix *Index) Stats() planner.Stats {
	ix.statsOnce.Do(func() {
		if !ix.statsSet {
			ix.stats = ix.computeStats()
			ix.statsSet = true
		}
	})
	return ix.stats
}

// SetStats installs precomputed statistics (every store-backed index), so
// opening a persisted index plans without rescanning posting lists. It must
// be called before the first Stats call to take effect.
func (ix *Index) SetStats(st planner.Stats) {
	ix.statsOnce.Do(func() {
		ix.stats = st
		ix.statsSet = true
	})
}

func (ix *Index) computeStats() planner.Stats {
	st := planner.Stats{
		Nodes: ix.tab.Len(),
		Words: ix.NumWords(),
		Docs:  1,
	}
	var depthSum int64
	var hist [maxDepthBuckets]int64
	maxBucket := 0
	// This decodes every compressed list; a store installs its persisted
	// statistics via SetStats instead.
	for _, l := range ix.lists {
		list := l.decoded(&ix.decoded)
		st.Postings += len(list)
		if len(list) > st.MaxPostings {
			st.MaxPostings = len(list)
		}
		for _, id := range list {
			d := int(ix.tab.Depth(id))
			depthSum += int64(d)
			if d > st.MaxDepth {
				st.MaxDepth = d
			}
			b := min(d, maxDepthBuckets-1)
			hist[b]++
			if b > maxBucket {
				maxBucket = b
			}
		}
	}
	if st.Postings > 0 {
		st.AvgDepth = float64(depthSum) / float64(st.Postings)
		st.DepthHist = append([]int64(nil), hist[:maxBucket+1]...)
	}
	// Fanout: children per internal node, from the table's parent links.
	children := 0
	isParent := make([]bool, ix.tab.Len())
	for i := 0; i < ix.tab.Len(); i++ {
		p := ix.tab.Parent(nid.ID(i))
		if p >= 0 && int(p) < ix.tab.Len() && p != nid.ID(i) {
			children++
			isParent[p] = true
		}
	}
	internal := 0
	for _, b := range isParent {
		if b {
			internal++
		}
	}
	if internal > 0 {
		st.AvgFanout = float64(children) / float64(internal)
	}
	return st
}
