package rank

import (
	"testing"

	"xks/internal/analysis"
	"xks/internal/dewey"
	"xks/internal/index"
	"xks/internal/lca"
	"xks/internal/nid"
	"xks/internal/reference"
)

// scoreCodes scores a fragment written in Dewey codes with the production
// fold: the codes become a node table and the events its IDs, in the order
// given.
func scoreCodes(s *Scorer, root dewey.Code, events []reference.Event, words []string) float64 {
	codes := []dewey.Code{root}
	for _, ev := range events {
		codes = append(codes, ev.Code)
	}
	tab := nid.FromCodes(codes)
	id := func(c dewey.Code) nid.ID {
		id, ok := tab.Find(c)
		if !ok {
			panic("code " + c.String() + " missing from the table built over it")
		}
		return id
	}
	ids := make([]lca.IDEvent, len(events))
	for i, ev := range events {
		ids[i] = lca.IDEvent{ID: id(ev.Code), Mask: ev.Mask}
	}
	return s.ScoreIDs(tab, id(root), ids, words)
}

func TestNewScorerIDF(t *testing.T) {
	ix := index.Build(reference.Publications(), analysis.New())
	s := NewScorerFrom(ix)
	rare := s.IDF("vldb")      // frequency 1
	common := s.IDF("keyword") // frequency 3
	if rare <= common {
		t.Errorf("idf(vldb)=%v should exceed idf(keyword)=%v", rare, common)
	}
	if s.IDF("zebra") != 0 {
		t.Error("idf of absent word should be 0")
	}
}

func TestCloserOccurrenceScoresHigher(t *testing.T) {
	s := &Scorer{Decay: 0.5, IDF: func(string) float64 { return 1 }}
	words := []string{"w"}
	root := dewey.MustParse("0")
	near := scoreCodes(s, root, []reference.Event{{Code: dewey.MustParse("0.1"), Mask: 1}}, words)
	far := scoreCodes(s, root, []reference.Event{{Code: dewey.MustParse("0.1.1.1"), Mask: 1}}, words)
	if near <= far {
		t.Errorf("near=%v should exceed far=%v", near, far)
	}
}

func TestMoreSupportScoresHigher(t *testing.T) {
	s := &Scorer{Decay: 0.5, IDF: func(string) float64 { return 1 }}
	words := []string{"w"}
	root := dewey.MustParse("0")
	one := scoreCodes(s, root, []reference.Event{{Code: dewey.MustParse("0.1"), Mask: 1}}, words)
	two := scoreCodes(s, root, []reference.Event{
		{Code: dewey.MustParse("0.1"), Mask: 1},
		{Code: dewey.MustParse("0.2"), Mask: 1},
	}, words)
	if two <= one {
		t.Errorf("two occurrences %v should beat one %v", two, one)
	}
}

func TestRootOccurrenceDistanceClamped(t *testing.T) {
	s := &Scorer{Decay: 0.5, IDF: func(string) float64 { return 2 }}
	words := []string{"w"}
	root := dewey.MustParse("0.1")
	got := scoreCodes(s, root, []reference.Event{{Code: dewey.MustParse("0.1"), Mask: 1}}, words)
	if got != 2 {
		t.Errorf("score at root = %v, want 2 (no decay)", got)
	}
}

func TestBadDecayDefaults(t *testing.T) {
	s := &Scorer{Decay: -3, IDF: func(string) float64 { return 1 }}
	words := []string{"w"}
	root := dewey.MustParse("0")
	if got := scoreCodes(s, root, []reference.Event{{Code: dewey.MustParse("0.1"), Mask: 1}}, words); got <= 0 {
		t.Errorf("score with bad decay = %v", got)
	}
}

func TestNilIDFDefaultsToOne(t *testing.T) {
	s := &Scorer{Decay: 1}
	words := []string{"w"}
	root := dewey.MustParse("0")
	if got := scoreCodes(s, root, []reference.Event{{Code: dewey.MustParse("0.1"), Mask: 1}}, words); got != 1 {
		t.Errorf("score = %v, want 1", got)
	}
}

func TestOrder(t *testing.T) {
	ranked := reference.Order([]float64{1.0, 3.0, 2.0, 3.0})
	wantIdx := []int{1, 3, 2, 0} // stable: equal scores keep document order
	for i, w := range wantIdx {
		if ranked[i].Index != w {
			t.Fatalf("Order = %+v, want indices %v", ranked, wantIdx)
		}
	}
	if len(reference.Order(nil)) != 0 {
		t.Error("Order(nil) should be empty")
	}
}

func TestMultiKeywordScore(t *testing.T) {
	s := &Scorer{Decay: 0.5, IDF: func(w string) float64 {
		if w == "rare" {
			return 4
		}
		return 1
	}}
	words := []string{"rare", "common"}
	root := dewey.MustParse("0")
	ev := []reference.Event{
		{Code: dewey.MustParse("0.1"), Mask: 0b01},
		{Code: dewey.MustParse("0.2"), Mask: 0b10},
	}
	got := scoreCodes(s, root, ev, words)
	want := 0.5*4 + 0.5*1
	if got != want {
		t.Errorf("score = %v, want %v", got, want)
	}
}
