package reference

import (
	"testing"

	"xks/internal/dewey"
)

func TestLCAAll(t *testing.T) {
	got := LCAAll(dewey.MustParse("0.2.0.0.0.0"), dewey.MustParse("0.2.0.1"), dewey.MustParse("0.2.0.2"))
	if got.String() != "0.2.0" {
		t.Errorf("LCAAll = %s, want 0.2.0", got)
	}
	if LCAAll() != nil {
		t.Error("LCAAll() should be nil")
	}
	one := LCAAll(dewey.MustParse("0.1.2"))
	if one.String() != "0.1.2" {
		t.Errorf("LCAAll(x) = %s", one)
	}
}

func TestSearchGE(t *testing.T) {
	cs := []dewey.Code{dewey.MustParse("0.0"), dewey.MustParse("0.1"), dewey.MustParse("0.1.2"), dewey.MustParse("0.3")}
	cases := []struct {
		q    string
		want int
	}{
		{"0", 0},
		{"0.0", 0},
		{"0.0.5", 1},
		{"0.1", 1},
		{"0.1.2", 2},
		{"0.2", 3},
		{"0.3", 3},
		{"0.4", 4},
	}
	for _, c := range cases {
		if got := SearchGE(cs, dewey.MustParse(c.q)); got != c.want {
			t.Errorf("SearchGE(%s) = %d, want %d", c.q, got, c.want)
		}
	}
}

func TestDedup(t *testing.T) {
	m := dewey.MustParse
	cs := []dewey.Code{m("0.0"), m("0.0"), m("0.1"), m("0.1"), m("0.1"), m("0.2")}
	got := Dedup(cs)
	if len(got) != 3 {
		t.Fatalf("Dedup len = %d, want 3", len(got))
	}
	if Dedup(nil) != nil {
		t.Error("Dedup(nil) should be nil")
	}
}
