// Package planner implements the cost-based query planner: from a query's
// posting-list sizes and two additive counts an index sums when it is built
// (Stats), it decides in which order the posting lists feed the k-way merge
// and whether the RTF dispatch gallops between roots. It also estimates a scan-merge and an
// indexed-lookup SLCA evaluation for explain output, but the engine no
// longer runs what it picks: SLCA always runs the galloping indexed kernel
// (internal/lca), ELCA the stack merge, and the decision carries what ran.
//
// The planner never changes answers: the rarest-first order is a leaf
// permutation of the loser tree whose coalesced event stream is independent
// of term order, and galloping skips only events that dispatch nowhere.
// internal/exec's one-pass tests and internal/rtf's scored-build tests pin
// that a random order and galloping leave roots, events and score bits
// unchanged.
package planner

import (
	"math"
	"strconv"
)

// Strategy names an LCA evaluation strategy: what Decide estimates
// cheapest, and — once the engine stamps a decision — the algorithm that ran
// (IndexedEager for SLCA, ScanMerge for ELCA).
type Strategy int

const (
	// Auto is the zero value: a strategy not yet resolved. Decide never
	// returns it.
	Auto Strategy = iota
	// IndexedEager drives evaluation from the rarest posting list using
	// indexed lookups into the other lists (the paper's Indexed Lookup
	// Eager algorithm). Wins when list sizes are skewed: cost is governed
	// by the smallest list, not the sum.
	IndexedEager
	// ScanMerge streams every posting list through the k-way loser-tree
	// merge (the paper's Scan Eager family). Wins when the keyword
	// frequencies are of similar magnitude: one cheap pass over the data
	// beats per-occurrence binary searches.
	ScanMerge
)

func (s Strategy) String() string {
	switch s {
	case IndexedEager:
		return "IndexedEager"
	case ScanMerge:
		return "ScanMerge"
	default:
		return "Auto"
	}
}

// Stats are the statistics the planner reads of an index or a snapshot:
// how many keyword postings it holds and the sum of their nodes' depths.
// Both add, so every structure gets them when it is built — an index from
// its rows, a delta segment when it is published, a snapshot or a folded
// base as the sum of its parts — and nothing ever scans for them. They are
// advisory: plans never affect answers.
type Stats struct {
	Postings int   // keyword postings across all lists
	DepthSum int64 // sum of the postings' node depths
}

// AvgDepth is the mean keyword-node depth, 0 when there are no postings.
func (s Stats) AvgDepth() float64 {
	if s.Postings == 0 {
		return 0
	}
	return float64(s.DepthSum) / float64(s.Postings)
}

// CostModel holds the calibrated unit costs the planner plugs into its
// estimates. The constants are in arbitrary "work units" (roughly
// nanoseconds on the calibration machine); only their ratios matter for the
// crossover.
type CostModel struct {
	// ScanEvent is the cost of pushing one posting through the loser-tree
	// merge and the ELCA stack (per log2(k) comparison level).
	ScanEvent float64
	// ProbeStep is the per-level cost of one binary-search step while the
	// indexed strategy looks up the closest occurrence in another list.
	ProbeStep float64
	// ChainStep is the per-ancestor cost of the parent-chain LCA walks the
	// indexed strategy performs per probe.
	ChainStep float64
}

// Default is the cost model calibrated on the Figure-5 workload mixes (DBLP
// + XMark generators; bench/ reports planner.scan_share and
// planner.decide_us over them): the measured crossover has ScanMerge winning
// while the posting lists are within roughly an order of magnitude of each
// other and IndexedEager winning beyond that, which these ratios reproduce.
var Default = CostModel{
	ScanEvent: 6,
	ProbeStep: 4,
	ChainStep: 3,
}

// Decision is the planner's resolved per-query plan.
type Decision struct {
	// Strategy is the resolved evaluation strategy; never Auto.
	Strategy Strategy
	// Order is the rarest-first permutation of term indices feeding the
	// k-way merge (Order[leaf] = original term index). nil means query
	// order — the planner-off baseline.
	Order []int
	// Skip enables subtree galloping in the RTF dispatch pass a ranked
	// SLCA page scores with (every other request dispatches in its LCA
	// pass or reads subtree windows): when an event lands outside every
	// interesting root, all merge sources jump directly to the next root.
	// Output-neutral (the skipped events dispatch nowhere); enabled by
	// Decide.
	Skip bool

	// EstScan and EstIndexed are the model's cost estimates (work units)
	// for the two strategies, surfaced in explain output next to the
	// actual event counters.
	EstScan    float64
	EstIndexed float64
	// Skew is the largest/smallest posting-list length ratio.
	Skew float64
}

// OrderString renders the effective merge order for explain output, e.g.
// "2,0,1". A nil Order renders as the identity (query order) over n terms.
func (d Decision) OrderString(n int) string {
	order := d.Order
	if order == nil {
		order = make([]int, n)
		for i := range order {
			order[i] = i
		}
	}
	b := make([]byte, 0, 2*len(order))
	for i, t := range order {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(t), 10)
	}
	return string(b)
}

// Decide resolves the plan for a query whose terms have the given
// posting-list sizes. The returned decision orders the merge rarest-first,
// enables dispatch galloping, and picks the strategy whose estimated cost
// is lower under the model.
func Decide(sizes []int, st Stats, m CostModel) Decision {
	k := len(sizes)
	d := Decision{Strategy: ScanMerge, Skip: true}
	if k == 0 {
		return d
	}

	d.Order = rarestFirst(sizes)
	minSize := sizes[d.Order[0]]
	maxSize := sizes[d.Order[k-1]]
	total := 0
	for _, n := range sizes {
		total += n
	}
	if minSize > 0 {
		d.Skew = float64(maxSize) / float64(minSize)
	}

	// Scan: every posting passes through the loser tree (log2 k comparison
	// levels) and the ELCA stack.
	levels := 1 + math.Log2(float64(max(k, 2)))
	d.EstScan = m.ScanEvent * float64(total) * levels

	// Indexed: each occurrence of the rarest term probes the k-1 other
	// lists (binary search over the list, then parent-chain LCA walks of
	// roughly the mean keyword depth).
	probe := m.ProbeStep*math.Log2(float64(max(maxSize, 2))) + m.ChainStep*max(st.AvgDepth(), 1)
	d.EstIndexed = float64(minSize) * float64(max(k-1, 1)) * probe

	if k > 1 && d.EstIndexed < d.EstScan {
		d.Strategy = IndexedEager
	}
	return d
}

// rarestFirst returns term indices sorted by ascending posting-list size,
// ties broken by query position (stable).
func rarestFirst(sizes []int) []int {
	order := make([]int, len(sizes))
	for i := range order {
		order[i] = i
	}
	// Insertion sort: k is tiny (≤ 64) and the slice is nearly sorted for
	// typical queries.
	for i := 1; i < len(order); i++ {
		for j := i; j > 0; j-- {
			a, b := order[j-1], order[j]
			if sizes[a] <= sizes[b] {
				break
			}
			order[j-1], order[j] = b, a
		}
	}
	return order
}
