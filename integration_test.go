package xks

// End-to-end invariant tests: run the full pipeline over the synthetic
// datasets and check the structural guarantees the paper's definitions
// promise, independent of any expected-output golden data.

import (
	"context"
	"strings"
	"testing"

	"xks/internal/analysis"
	"xks/internal/datagen"
	"xks/internal/store"
	"xks/internal/workload"
	"xks/internal/xmltree"
)

func dblpTestEngine(t *testing.T) (*Engine, []string) {
	t.Helper()
	tree, queries := dblpTestTree(t)
	return FromTree(tree), queries
}

// dblpTestTree is the document dblpTestEngine serves, with its queries.
func dblpTestTree(t *testing.T) (*xmltree.Tree, []string) {
	t.Helper()
	w := workload.DBLP()
	specs, err := w.Specs(0, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	tree := datagen.DBLP(datagen.DBLPConfig{Seed: 21, NumRecords: 400, Keywords: specs})
	queries, err := w.ExpandAll()
	if err != nil {
		t.Fatal(err)
	}
	return tree, queries
}

func xmarkTestEngine(t *testing.T) (*Engine, []string) {
	t.Helper()
	w := workload.XMark()
	specs, err := w.Specs(0, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	tree := datagen.XMark(datagen.XMarkConfig{Seed: 22, Items: 150, Keywords: specs})
	queries, err := w.ExpandAll()
	if err != nil {
		t.Fatal(err)
	}
	return FromTree(tree), queries
}

// Invariant 1 (keyword requirement): every returned fragment covers every
// query keyword, under every algorithm and semantics.
func TestIntegrationEveryFragmentCoversQuery(t *testing.T) {
	for _, setup := range []func(*testing.T) (*Engine, []string){dblpTestEngine, xmarkTestEngine} {
		engine, queries := setup(t)
		for _, q := range queries {
			for _, opts := range []Request{
				{},
				{Algorithm: MaxMatch},
				{Algorithm: RawRTF},
				{Semantics: SLCAOnly},
			} {
				res, err := engine.Search(context.Background(), withQuery(opts, q))
				if err != nil {
					t.Fatalf("%q: %v", q, err)
				}
				keywords := res.Stats.Keywords
				for _, f := range res.Fragments {
					covered := map[string]bool{}
					for i := range f.Nodes {
						for _, m := range f.NodeMatched(i) {
							covered[m] = true
						}
					}
					for _, k := range keywords {
						if !covered[k] {
							t.Fatalf("%q %+v: fragment %s misses keyword %q",
								q, opts, f.Root, k)
						}
					}
				}
			}
		}
	}
}

// Invariant 2 (uniqueness): fragment roots are unique and pre-order sorted;
// SLCA-only roots are a subset of the all-LCA roots.
func TestIntegrationRootUniquenessAndSLCASubset(t *testing.T) {
	engine, queries := xmarkTestEngine(t)
	for _, q := range queries {
		all, err := engine.Search(context.Background(), Request{Query: q})
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, f := range all.Fragments {
			if seen[f.Root] {
				t.Fatalf("%q: duplicate root %s", q, f.Root)
			}
			seen[f.Root] = true
		}
		slca, err := engine.Search(context.Background(), Request{Query: q, Semantics: SLCAOnly})
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range slca.Fragments {
			if !seen[f.Root] {
				t.Fatalf("%q: SLCA root %s missing from all-LCA roots", q, f.Root)
			}
			if !f.IsSLCA {
				t.Fatalf("%q: SLCA-only fragment %s not flagged IsSLCA", q, f.Root)
			}
		}
		if len(slca.Fragments) > len(all.Fragments) {
			t.Fatalf("%q: more SLCA fragments than all-LCA fragments", q)
		}
	}
}

// Invariant 3 (pruning containment): ValidRTF and MaxMatch keep subsets of
// the raw RTF; the raw RTF keeps the fragment root; every kept node's
// parent within the fragment is kept (ancestor closure).
func TestIntegrationPruningContainment(t *testing.T) {
	engine, queries := dblpTestEngine(t)
	for _, q := range queries[:10] {
		raw, err := engine.Search(context.Background(), Request{Query: q, Algorithm: RawRTF})
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range []Algorithm{ValidRTF, MaxMatch} {
			res, err := engine.Search(context.Background(), Request{Query: q, Algorithm: algo})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Fragments) != len(raw.Fragments) {
				t.Fatalf("%q/%s: fragment count differs from raw", q, algo)
			}
			for i, f := range res.Fragments {
				rawSet := map[string]bool{}
				for _, n := range raw.Fragments[i].Nodes {
					rawSet[n.Dewey] = true
				}
				if !f.Contains(f.Root) {
					t.Fatalf("%q/%s: root pruned away", q, algo)
				}
				for _, n := range f.Nodes {
					if !rawSet[n.Dewey] {
						t.Fatalf("%q/%s: node %s not in raw RTF", q, algo, n.Dewey)
					}
					if n.Dewey != f.Root {
						parent := n.Dewey[:strings.LastIndex(n.Dewey, ".")]
						if !f.Contains(parent) && parent != f.Root[:max(0, strings.LastIndex(f.Root, "."))] {
							if len(n.Dewey) > len(f.Root) && !f.Contains(parent) {
								t.Fatalf("%q/%s: kept node %s has pruned parent %s", q, algo, n.Dewey, parent)
							}
						}
					}
				}
			}
		}
	}
}

// Invariant 4: Compare's CFR is consistent with running the two searches
// separately and comparing kept node sets.
func TestIntegrationCompareConsistency(t *testing.T) {
	engine, queries := xmarkTestEngine(t)
	for _, q := range queries[:8] {
		cmp, err := engine.Compare(context.Background(), Request{Query: q})
		if err != nil {
			t.Fatal(err)
		}
		valid, err := engine.Search(context.Background(), Request{Query: q})
		if err != nil {
			t.Fatal(err)
		}
		maxm, err := engine.Search(context.Background(), Request{Query: q, Algorithm: MaxMatch})
		if err != nil {
			t.Fatal(err)
		}
		if cmp.NumRTFs != len(valid.Fragments) || cmp.NumRTFs != len(maxm.Fragments) {
			t.Fatalf("%q: fragment counts inconsistent", q)
		}
		same := 0
		for i := range valid.Fragments {
			a, b := valid.Fragments[i], maxm.Fragments[i]
			if a.Len() != b.Len() {
				continue
			}
			equal := true
			for j := range a.Nodes {
				if a.Nodes[j].Dewey != b.Nodes[j].Dewey {
					equal = false
					break
				}
			}
			if equal {
				same++
			}
		}
		wantCFR := 1.0
		if cmp.NumRTFs > 0 {
			wantCFR = float64(same) / float64(cmp.NumRTFs)
		}
		if diff := cmp.Ratios.CFR - wantCFR; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("%q: Compare CFR %v but recomputed %v", q, cmp.Ratios.CFR, wantCFR)
		}
	}
}

// Invariant 5: shred → save → load → search gives identical fragments to
// searching the in-memory shred, at dataset scale.
func TestIntegrationStoreRoundTripAtScale(t *testing.T) {
	tree, queries := dblpTestTree(t)
	st := store.Shred(tree, analysis.New())
	engine := FromStore(st)
	fromStore := reopened(t, st, store.OpenHeap)
	for _, q := range queries[:8] {
		a, err := engine.Search(context.Background(), Request{Query: q})
		if err != nil {
			t.Fatal(err)
		}
		b, err := fromStore.Search(context.Background(), Request{Query: q})
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Fragments) != len(b.Fragments) {
			t.Fatalf("%q: %d vs %d fragments", q, len(a.Fragments), len(b.Fragments))
		}
		for i := range a.Fragments {
			if a.Fragments[i].Root != b.Fragments[i].Root || a.Fragments[i].Len() != b.Fragments[i].Len() {
				t.Fatalf("%q fragment %d differs", q, i)
			}
		}
	}
}

// Invariant 6: ranked results are a permutation of unranked results with
// non-increasing scores.
func TestIntegrationRankingPermutation(t *testing.T) {
	engine, queries := xmarkTestEngine(t)
	for _, q := range queries[:8] {
		plain, err := engine.Search(context.Background(), Request{Query: q})
		if err != nil {
			t.Fatal(err)
		}
		ranked, err := engine.Search(context.Background(), Request{Query: q, Rank: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(plain.Fragments) != len(ranked.Fragments) {
			t.Fatalf("%q: ranking changed fragment count", q)
		}
		seen := map[string]bool{}
		for _, f := range plain.Fragments {
			seen[f.Root] = true
		}
		prev := -1.0
		for i, f := range ranked.Fragments {
			if !seen[f.Root] {
				t.Fatalf("%q: ranked root %s not in unranked set", q, f.Root)
			}
			if i > 0 && f.Score > prev+1e-12 {
				t.Fatalf("%q: scores not non-increasing at %d: %v > %v", q, i, f.Score, prev)
			}
			prev = f.Score
		}
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
