package exec

// Differential test of the one-pass candidate stage: the ELCA stack merge
// dispatching getRTF's keyword nodes as its roots pop, and SLCA roots taking
// their subtree windows, against the two-pass reference (the roots, then
// rtf.BuildIDs over them) on random forests, generated DBLP and XMark
// documents, and posting lists read through a delta overlay.

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"xks/internal/analysis"
	"xks/internal/datagen"
	"xks/internal/delta"
	"xks/internal/dewey"
	"xks/internal/index"
	"xks/internal/lca"
	"xks/internal/nid"
	"xks/internal/rank"
	"xks/internal/reference"
	"xks/internal/rtf"
	"xks/internal/workload"
	"xks/internal/xmltree"
)

// onePassRun is one (root, events) pair a producer handed its sink.
type onePassRun struct {
	root   nid.ID
	events []lca.IDEvent
}

// collect returns a sink appending to runs. The events are kept as handed
// over, not copied: a run must stay valid while its buffer does.
func collect(runs *[]onePassRun) func(nid.ID, []lca.IDEvent) {
	return func(root nid.ID, events []lca.IDEvent) {
		*runs = append(*runs, onePassRun{root, events})
	}
}

// exactBuf is a working buffer of exactly Σ|Dᵢ| events, so a producer that
// needs one more event overruns it.
func exactBuf(sets [][]nid.ID) []lca.IDEvent {
	n := 0
	for _, s := range sets {
		n += len(s)
	}
	return make([]lca.IDEvent, n)
}

func requireRuns(t *testing.T, label string, got []onePassRun, want []*rtf.IDRTF) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d runs, want %d", label, len(got), len(want))
	}
	for i, r := range got {
		if r.root != want[i].Root || !slices.Equal(r.events, want[i].KeywordNodes) {
			t.Fatalf("%s: run %d is root %d with %v, want root %d with %v",
				label, i, r.root, r.events, want[i].Root, want[i].KeywordNodes)
		}
		if cap(r.events) != len(r.events) {
			t.Fatalf("%s: run %d has capacity %d past its %d events", label, i, cap(r.events), len(r.events))
		}
	}
}

// checkOnePass runs every one-pass producer over one input and compares it
// with the reference, directly and through Candidates.
func checkOnePass(t *testing.T, label string, tab *nid.Table, sets [][]nid.ID, order []int, rng *rand.Rand) {
	t.Helper()
	ctx := context.Background()
	words := make([]string, len(sets))
	idf := map[string]float64{}
	for i := range words {
		words[i] = fmt.Sprintf("w%d", i)
		idf[words[i]] = 0.5 + 4*rng.Float64()
	}
	scorer := &rank.Scorer{Decay: 0.8, IDF: func(w string) float64 { return idf[w] }}
	params := Params{Tab: tab, Rank: true, Scorer: scorer}
	plan := Plan{IDFWords: words, Sets: sets}
	skip := rng.Intn(2) == 0

	for _, slca := range []bool{false, true} {
		label := fmt.Sprintf("%s slca=%t", label, slca)
		var roots []nid.ID
		var got []onePassRun
		if slca {
			roots, _ = lca.SLCAIDsCtx(ctx, tab, sets)
			if err := rtf.DispatchWindows(ctx, tab, roots, sets, exactBuf(sets), collect(&got)); err != nil {
				t.Fatal(err)
			}
		} else {
			roots, _ = lca.ELCAStackMergeIDsOrderedCtx(ctx, tab, sets, nil)
			sinkRoots, err := lca.ELCAStackDispatch(ctx, nil, tab, sets, exactBuf(sets), collect(&got))
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(sinkRoots, roots) {
				t.Fatalf("%s: the sink run returned roots %v, the nil sink %v", label, sinkRoots, roots)
			}
			// Post-order: a root arrives after every root below it.
			for i := 1; i < len(got); i++ {
				if tab.IsAncestorOf(got[i-1].root, got[i].root) {
					t.Fatalf("%s: root %d arrived before its descendant %d", label, got[i-1].root, got[i].root)
				}
			}
			slices.SortFunc(got, func(a, b onePassRun) int { return cmp.Compare(a.root, b.root) })
		}
		want, _ := rtf.BuildIDsPlanned(ctx, tab, roots, sets, nil, false)
		requireRuns(t, label, got, want)

		// Unlimited and ranked: every candidate carries its events and the
		// score the Dewey-code reference gives them.
		unlimited := params
		unlimited.SLCAOnly = slca
		cands, _, release, err := Candidates(ctx, plan, unlimited, 0)
		if err != nil {
			t.Fatal(err)
		}
		got = got[:0]
		for _, c := range cands {
			got = append(got, onePassRun{c.RTF.Root, c.RTF.KeywordNodes})
			if c.Roots != nil {
				t.Fatalf("%s: an unlimited candidate shares the roots", label)
			}
		}
		requireRuns(t, label+" unlimited", got, want)
		for i, c := range cands {
			events := make([]reference.Event, len(want[i].KeywordNodes))
			for j, ev := range want[i].KeywordNodes {
				events[j] = reference.Event{Code: tab.Code(ev.ID), Mask: ev.Mask}
			}
			ref := reference.Score(scorer.Decay, scorer.IDF, tab.Code(want[i].Root), events, words)
			if math.Float64bits(c.Score) != math.Float64bits(ref) {
				t.Fatalf("%s: unlimited score of root %d is %v, want %v", label, c.RTF.Root, c.Score, ref)
			}
		}
		release()

		// A ranked page: scores bit-identical to the scoring dispatch pass,
		// no events kept.
		page := unlimited
		page.DeferEvents = true
		cands, _, release, err = Candidates(ctx, plan, page, 0)
		if err != nil {
			t.Fatal(err)
		}
		release()
		scored, err := rtf.BuildScoredIDsCtx(ctx, tab, roots, sets, scorer.Incremental(words), order, skip)
		if err != nil {
			t.Fatal(err)
		}
		if len(cands) != len(scored) {
			t.Fatalf("%s: ranked page has %d candidates, the scoring pass %d", label, len(cands), len(scored))
		}
		for i, c := range cands {
			if c.RTF.Root != scored[i].Root || math.Float64bits(c.Score) != math.Float64bits(scored[i].Score) ||
				c.RTF.KeywordNodes != nil || !slices.Equal(c.Roots, roots) {
				t.Fatalf("%s: ranked page candidate %d is root %d score %v (%d events), want root %d score %v",
					label, i, c.RTF.Root, c.Score, len(c.RTF.KeywordNodes), scored[i].Root, scored[i].Score)
			}
		}
	}
}

// randomForest builds a random table over ancestor-closed codes (several
// top-level trees, so the ELCA stack empties mid-stream) and k skewed
// posting lists over it.
func randomForest(rng *rand.Rand, nodes, k int) (*nid.Table, [][]nid.ID) {
	codes := make([]dewey.Code, nodes)
	for i := range codes {
		c := make(dewey.Code, 1+rng.Intn(7))
		for d := range c {
			c[d] = uint32(rng.Intn(3))
		}
		codes[i] = c
	}
	tab := nid.FromCodes(codes)
	sets := make([][]nid.ID, k)
	for i := range sets {
		seen := map[nid.ID]bool{}
		for range 1 + rng.Intn(tab.Len()/(i+1)+1) {
			seen[nid.ID(rng.Intn(tab.Len()))] = true
		}
		for id := range seen {
			sets[i] = append(sets[i], id)
		}
		slices.Sort(sets[i])
	}
	return tab, sets
}

// maybeOrder is a random planner merge order half the time, query order
// otherwise.
func maybeOrder(rng *rand.Rand, k int) []int {
	if rng.Intn(2) == 0 {
		return nil
	}
	return rng.Perm(k)
}

func TestOnePassMatchesTwoPass(t *testing.T) {
	rng := rand.New(rand.NewSource(2801))
	for trial := range 600 {
		k := 1 + rng.Intn(9)
		tab, sets := randomForest(rng, 10+rng.Intn(300), k)
		checkOnePass(t, fmt.Sprintf("forest trial %d (k=%d)", trial, k), tab, sets, maybeOrder(rng, k), rng)
	}
}

// TestOnePassOverDocuments runs the producers over generated DBLP and XMark
// documents — with the paper's workload keywords planted — before and after
// tail appends, so the lists are read through a delta overlay.
func TestOnePassOverDocuments(t *testing.T) {
	rng := rand.New(rand.NewSource(2802))
	an := analysis.New()
	docs := []struct {
		name string
		w    workload.Workload
		tree func([]datagen.KeywordSpec) *xmltree.Tree
	}{
		{"dblp", workload.DBLP(), func(s []datagen.KeywordSpec) *xmltree.Tree {
			return datagen.DBLP(datagen.DBLPConfig{Seed: 3, NumRecords: 300, Keywords: s})
		}},
		{"xmark", workload.XMark(), func(s []datagen.KeywordSpec) *xmltree.Tree {
			return datagen.XMark(datagen.XMarkConfig{Seed: 3, Items: 80, Keywords: s})
		}},
	}
	for _, doc := range docs {
		specs, err := doc.w.Specs(0, 0.02)
		if err != nil {
			t.Fatal(err)
		}
		tree := doc.tree(specs)
		base := index.Build(tree, an)
		var planted []string
		for _, kw := range doc.w.Keywords {
			planted = append(planted, an.Normalize(kw.Word))
		}
		// Grow the document by tail records under its root, each carrying
		// a few planted words.
		tab := base.Table()
		h := &delta.Head{Tab: tab, Base: base}
		next := uint32(len(tree.Root.Children))
		for range 4 {
			top := dewey.Code{0, next}
			next++
			rec := []dewey.Code{top, top.Child(0), top.Child(1)}
			start := nid.ID(tab.Len())
			grown, ids, err := tab.Extend(rec)
			if err != nil {
				t.Fatal(err)
			}
			post := map[string][]nid.ID{}
			for _, id := range ids[1:] {
				for _, w := range planted {
					if rng.Intn(3) == 0 {
						post[w] = append(post[w], id)
					}
				}
			}
			sg, err := delta.NewSegment(start, nid.ID(grown.Len()), post)
			if err != nil {
				t.Fatal(err)
			}
			tab, h = grown, h.Append(grown, sg)
		}
		snap, err := h.At(tab.Len(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if snap.Segments() == 0 {
			t.Fatalf("%s: no live segment", doc.name)
		}
		for trial := range 60 {
			k := 1 + rng.Intn(9)
			var baseSets, deltaSets [][]nid.ID
			for _, i := range rng.Perm(len(planted))[:min(k, len(planted))] {
				if l := base.LookupIDs(planted[i]); len(l) > 0 {
					baseSets = append(baseSets, l)
					deltaSets = append(deltaSets, snap.LookupIDs(planted[i]))
				}
			}
			if len(baseSets) == 0 {
				continue
			}
			label := fmt.Sprintf("%s trial %d (k=%d)", doc.name, trial, len(baseSets))
			order := maybeOrder(rng, len(baseSets))
			checkOnePass(t, label+" base", base.Table(), baseSets, order, rng)
			checkOnePass(t, label+" delta", snap.Table(), deltaSets, order, rng)
		}
		snap.Release()
	}
}
