package exec

import (
	"context"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"xks/internal/dewey"
	"xks/internal/nid"
	"xks/internal/prune"
	"xks/internal/rank"
)

func mkCand(doc, seq int, score float64) *Candidate {
	return &Candidate{Doc: doc, Seq: seq, Score: score}
}

func keys(cands []*Candidate) [][3]float64 {
	out := make([][3]float64, len(cands))
	for i, c := range cands {
		out[i] = [3]float64{c.Score, float64(c.Doc), float64(c.Seq)}
	}
	return out
}

// ranked drains t's survivors best-first, once its producers are done.
func ranked(t *TopK) []*Candidate {
	out := t.h.h
	t.h.h = nil
	SortRanked(out)
	return out
}

func TestTopKMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		var all []*Candidate
		for doc := 0; doc < 4; doc++ {
			n := rng.Intn(8)
			for seq := 0; seq < n; seq++ {
				// Coarse scores force plenty of ties, the case where the
				// (doc, seq) tie-break must match the eager stable sort.
				all = append(all, mkCand(doc, seq, float64(rng.Intn(3))))
			}
		}
		k := 1 + rng.Intn(6)

		ref := make([]*Candidate, len(all))
		copy(ref, all)
		sort.SliceStable(ref, func(i, j int) bool { return ref[i].Score > ref[j].Score })
		if len(ref) > k {
			ref = ref[:k]
		}

		topk := NewTopK(k)
		// Offer in randomized chunks to simulate worker interleaving.
		perm := rng.Perm(len(all))
		for len(perm) > 0 {
			n := 1 + rng.Intn(len(perm))
			chunk := make([]*Candidate, 0, n)
			for _, idx := range perm[:n] {
				chunk = append(chunk, all[idx])
			}
			perm = perm[n:]
			topk.Offer(chunk...)
		}
		got := ranked(topk)

		if !reflect.DeepEqual(keys(ref), keys(got)) {
			t.Fatalf("trial %d (k=%d):\n got %v\nwant %v", trial, k, keys(got), keys(ref))
		}
	}
}

func TestTopKConcurrentOfferDeterministic(t *testing.T) {
	var all []*Candidate
	for doc := 0; doc < 8; doc++ {
		for seq := 0; seq < 20; seq++ {
			all = append(all, mkCand(doc, seq, float64((doc*seq)%5)))
		}
	}
	want := make([]*Candidate, len(all))
	copy(want, all)
	SortRanked(want)
	want = want[:10]

	for trial := 0; trial < 20; trial++ {
		topk := NewTopK(10)
		var wg sync.WaitGroup
		for doc := 0; doc < 8; doc++ {
			wg.Add(1)
			go func(doc int) {
				defer wg.Done()
				topk.Offer(all[doc*20 : (doc+1)*20]...)
			}(doc)
		}
		wg.Wait()
		got := ranked(topk)
		if !reflect.DeepEqual(keys(want), keys(got)) {
			t.Fatalf("trial %d:\n got %v\nwant %v", trial, keys(got), keys(want))
		}
	}
}

func TestSelectUnranked(t *testing.T) {
	cands := []*Candidate{mkCand(0, 0, 0), mkCand(0, 1, 0), mkCand(0, 2, 0)}
	got := Select(cands, Params{})
	if !reflect.DeepEqual(cands, got) {
		t.Fatalf("unranked select reordered candidates")
	}
	got = Select(cands, Params{Limit: 2})
	if len(got) != 2 || got[0].Seq != 0 || got[1].Seq != 1 {
		t.Fatalf("unranked limited select: got %v", keys(got))
	}
}

func TestSelectRanked(t *testing.T) {
	cands := []*Candidate{mkCand(0, 0, 1), mkCand(0, 1, 3), mkCand(0, 2, 2), mkCand(0, 3, 3)}
	got := Select(cands, Params{Rank: true})
	wantSeqs := []int{1, 3, 2, 0} // ties by ascending seq
	for i, c := range got {
		if c.Seq != wantSeqs[i] {
			t.Fatalf("ranked select order: got %v", keys(got))
		}
	}
	got = Select(cands, Params{Rank: true, Limit: 2})
	if len(got) != 2 || got[0].Seq != 1 || got[1].Seq != 3 {
		t.Fatalf("ranked limited select: got %v", keys(got))
	}
	// Limit >= len falls back to the full sort.
	got = Select(cands, Params{Rank: true, Limit: 10})
	if len(got) != 4 || got[0].Seq != 1 {
		t.Fatalf("ranked oversized limit: got %v", keys(got))
	}
}

func TestSelectOffsetPaging(t *testing.T) {
	cands := []*Candidate{mkCand(0, 0, 1), mkCand(0, 1, 3), mkCand(0, 2, 2), mkCand(0, 3, 3)}
	// Ranked order is seq 1, 3, 2, 0; the [1,3) window is seq 3, 2.
	got := Select(cands, Params{Rank: true, Limit: 2, Offset: 1})
	if len(got) != 2 || got[0].Seq != 3 || got[1].Seq != 2 {
		t.Fatalf("ranked page: got %v", keys(got))
	}
	// Unranked paging slices document order.
	got = Select(cands, Params{Limit: 2, Offset: 2})
	if len(got) != 2 || got[0].Seq != 2 || got[1].Seq != 3 {
		t.Fatalf("unranked page: got %v", keys(got))
	}
	// Offset past the end is an empty page; offset with no limit drops the
	// prefix.
	if got = Select(cands, Params{Rank: true, Offset: 10}); len(got) != 0 {
		t.Fatalf("past-the-end page: got %v", keys(got))
	}
	if got = Select(cands, Params{Rank: true, Offset: 3}); len(got) != 1 || got[0].Seq != 0 {
		t.Fatalf("tail page: got %v", keys(got))
	}
}

// TestCandidatesAndMaterialize runs the stages end to end over a tiny
// hand-built instance: keywords a={0.0.0, 0.1.0}, b={0.0.1, 0.1.1} under
// roots 0.0 and 0.1.
func TestCandidatesAndMaterialize(t *testing.T) {
	code := dewey.MustParse
	codeSets := [][]dewey.Code{
		{code("0.0.0"), code("0.1.0")},
		{code("0.0.1"), code("0.1.1")},
	}
	var all []dewey.Code
	for _, s := range codeSets {
		all = append(all, s...)
	}
	tab := nid.FromCodes(all)
	mustID := func(c dewey.Code) nid.ID {
		id, ok := tab.Find(c)
		if !ok {
			t.Fatalf("code %s missing from table", c)
		}
		return id
	}
	sets := make([][]nid.ID, len(codeSets))
	for i, s := range codeSets {
		for _, c := range s {
			sets[i] = append(sets[i], mustID(c))
		}
	}
	p := Plan{
		Keywords: []string{"a", "b"},
		IDFWords: []string{"a", "b"},
		Sets:     sets,
	}
	labels := map[string]string{
		"0": "root", "0.0": "item", "0.1": "item",
		"0.0.0": "x", "0.0.1": "y", "0.1.0": "x", "0.1.1": "y",
	}
	var column prune.Labels
	names := map[string]uint32{}
	for id := range nid.ID(tab.Len()) {
		l := labels[tab.Code(id).String()]
		if _, ok := names[l]; !ok {
			names[l] = uint32(len(column.Names))
			column.Names = append(column.Names, l)
		}
		column.IDs = append(column.IDs, names[l])
	}
	params := Params{
		Tab:       tab,
		Rank:      true,
		Scorer:    &rank.Scorer{},
		Labels:    column,
		ContentOf: func(id nid.ID) []string { return []string{labels[tab.Code(id).String()]} },
		Mode:      prune.ValidContributor,
	}
	cands, _, release, err := Candidates(context.Background(), p, params, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if len(cands) != 2 {
		t.Fatalf("got %d candidates, want 2", len(cands))
	}
	for i, c := range cands {
		if c.Doc != 3 || c.Seq != i {
			t.Fatalf("candidate %d tagged (doc=%d, seq=%d)", i, c.Doc, c.Seq)
		}
		if !c.IsSLCA {
			t.Fatalf("candidate %d (%s) should be an SLCA", i, tab.Code(c.RTF.Root))
		}
		if c.Score == 0 {
			t.Fatalf("candidate %d unscored despite Rank", i)
		}
		kept, visited := Materialize(nil, c.RTF, params)
		if len(kept) != 3 || visited != 3 { // root + two keyword children
			t.Fatalf("candidate %d kept %d of %d nodes, want 3 of 3", i, len(kept), visited)
		}
		if kept[0] != c.RTF.Root {
			t.Fatalf("candidate %d pruned its own root", i)
		}
	}
	if cands[0].RTF.Root != mustID(code("0.0")) || cands[1].RTF.Root != mustID(code("0.1")) {
		t.Fatalf("roots %s, %s", tab.Code(cands[0].RTF.Root), tab.Code(cands[1].RTF.Root))
	}
}

func TestCandidatesEmptyPlan(t *testing.T) {
	if got, _, _, err := Candidates(context.Background(), Plan{}, Params{}, 0); got != nil || err != nil {
		t.Fatalf("empty plan produced %d candidates", len(got))
	}
}

func TestPlanKeywordNodes(t *testing.T) {
	p := Plan{Sets: [][]nid.ID{{1}, {2, 3}}}
	if got := p.KeywordNodes(); got != 3 {
		t.Fatalf("KeywordNodes = %d, want 3", got)
	}
}
