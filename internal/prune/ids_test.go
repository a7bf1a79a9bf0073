package prune

import (
	"testing"

	"xks/internal/analysis"
	"xks/internal/dewey"
	"xks/internal/index"
	"xks/internal/lca"
	"xks/internal/nid"
	"xks/internal/paperdata"
	"xks/internal/rtf"
	"xks/internal/xmltree"
)

// TestBuildFragmentIDsMatchesBuildFragment cross-checks the ID path-stack
// fragment builder against the code-based reference over the paper's
// running examples: identical kept sets under every mode and option, plus
// KeptIDs coherent with Kept.
func TestBuildFragmentIDsMatchesBuildFragment(t *testing.T) {
	cases := []struct {
		name  string
		tree  *xmltree.Tree
		query string
	}{
		{"publications/Q1", paperdata.Publications(), paperdata.Q1},
		{"publications/Q2", paperdata.Publications(), paperdata.Q2},
		{"publications/Q3", paperdata.Publications(), paperdata.Q3},
		{"team/Q4", paperdata.Team(), paperdata.Q4},
		{"team/Q5", paperdata.Team(), paperdata.Q5},
	}
	an := analysis.New()
	for _, tc := range cases {
		ix := index.Build(tc.tree, an)
		tab := ix.Table()
		_, sets, err := ix.KeywordSets(tc.query)
		if err != nil {
			t.Fatalf("%s: KeywordSets: %v", tc.name, err)
		}
		_, idSets, err := ix.KeywordSetIDs(tc.query)
		if err != nil {
			t.Fatalf("%s: KeywordSetIDs: %v", tc.name, err)
		}

		codeRTFs := rtf.Build(lca.ELCAStackMerge(sets), sets)
		idRTFs := rtf.BuildIDs(tab, lca.ELCAStackMergeIDs(tab, idSets), idSets)
		if len(codeRTFs) != len(idRTFs) {
			t.Fatalf("%s: %d RTFs vs %d", tc.name, len(codeRTFs), len(idRTFs))
		}

		tree := tc.tree
		labelOf := func(c dewey.Code) string { return tree.NodeAt(c).Label }
		contentOf := func(c dewey.Code) []string { return an.ContentSet(tree.NodeAt(c).ContentPieces()...) }
		idLabelOf := func(id nid.ID) string { return tree.NodeAt(tab.Code(id)).Label }
		idContentOf := func(id nid.ID) []string {
			return an.ContentSet(tree.NodeAt(tab.Code(id)).ContentPieces()...)
		}

		for _, opts := range []Options{{}, {ExactContent: true}} {
			for i := range codeRTFs {
				cf := BuildFragment(codeRTFs[i], labelOf, contentOf, opts)
				idf := BuildFragmentIDs(tab, idRTFs[i], idLabelOf, idContentOf, opts)
				if cf.Size() != idf.Size() {
					t.Fatalf("%s fragment %d: size %d vs %d", tc.name, i, idf.Size(), cf.Size())
				}
				for _, mode := range []Mode{ValidContributor, Contributor, NoPruning} {
					want := cf.Prune(mode, opts)
					got := idf.Prune(mode, opts)
					if !equalKept(want, got) {
						t.Fatalf("%s fragment %d mode %s (exact=%v):\nid:   %v\ncode: %v",
							tc.name, i, mode, opts.ExactContent, got.Kept, want.Kept)
					}
					if len(got.KeptIDs) != len(got.Kept) {
						t.Fatalf("%s fragment %d: KeptIDs len %d vs Kept %d",
							tc.name, i, len(got.KeptIDs), len(got.Kept))
					}
					for j, id := range got.KeptIDs {
						if !dewey.Equal(tab.Code(id), got.Kept[j]) {
							t.Fatalf("%s fragment %d: KeptIDs[%d] resolves to %s, Kept has %s",
								tc.name, i, j, tab.Code(id), got.Kept[j])
						}
					}
				}
			}
		}
	}
}
