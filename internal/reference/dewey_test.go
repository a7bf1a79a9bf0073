package reference

import (
	"math/rand"
	"testing"
	"testing/quick"

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

func TestAncestor(t *testing.T) {
	cases := []struct {
		a, b       string
		anc, ancOS bool
	}{
		{"0", "0.2.0.1", true, true},
		{"0.2", "0.2.0.1", true, true},
		{"0.2.0.1", "0.2.0.1", false, true},
		{"0.2.0.1", "0.2", false, false},
		{"0.1", "0.2.0", false, false},
		{"0.2.0", "0.2.1", false, false},
	}
	for _, c := range cases {
		a, b := dewey.MustParse(c.a), dewey.MustParse(c.b)
		if got := IsAncestor(a, b); got != c.anc {
			t.Errorf("IsAncestor(%s, %s) = %v, want %v", a, b, got, c.anc)
		}
		if got := IsAncestorOrSelf(a, b); got != c.ancOS {
			t.Errorf("IsAncestorOrSelf(%s, %s) = %v, want %v", a, b, got, c.ancOS)
		}
	}
}

func TestLCA(t *testing.T) {
	cases := []struct{ a, b, want string }{
		{"0.2.0.1", "0.2.0.3", "0.2.0"},
		{"0.2.0.1", "0.2.0.1", "0.2.0.1"},
		{"0.2.0.1", "0.2", "0.2"},
		{"0.0", "0.2.0.3.0", "0"},
		{"0", "0", "0"},
	}
	for _, c := range cases {
		got := LCA(dewey.MustParse(c.a), dewey.MustParse(c.b))
		if got.String() != c.want {
			t.Errorf("LCA(%s,%s) = %s, want %s", c.a, c.b, got, c.want)
		}
	}
	if LCA(nil, dewey.MustParse("0.1")) != nil {
		t.Error("LCA(nil, x) should be nil")
	}
}

func TestKeyOrderMatchesCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		a := randomCode(rng)
		b := randomCode(rng)
		cmpKeys := 0
		ka, kb := Key(a), Key(b)
		if ka < kb {
			cmpKeys = -1
		} else if ka > kb {
			cmpKeys = 1
		}
		if got := dewey.Compare(a, b); got != cmpKeys {
			t.Fatalf("Compare(%s,%s)=%d but key order %d", a, b, got, cmpKeys)
		}
	}
}

func randomCode(rng *rand.Rand) dewey.Code {
	n := 1 + rng.Intn(6)
	c := make(dewey.Code, n)
	for i := range c {
		c[i] = uint32(rng.Intn(5))
	}
	return c
}

// Property: LCA is commutative, idempotent and is an ancestor-or-self of both
// arguments.
func TestLCAProperties(t *testing.T) {
	f := func(aRaw, bRaw []uint8) bool {
		a := codeFromBytes(aRaw)
		b := codeFromBytes(bRaw)
		l := LCA(a, b)
		l2 := LCA(b, a)
		if !dewey.Equal(l, l2) {
			return false
		}
		if l == nil {
			return len(a) == 0 || len(b) == 0 || a[0] != b[0]
		}
		return IsAncestorOrSelf(l, a) && IsAncestorOrSelf(l, b) && dewey.Equal(LCA(l, a), l)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func codeFromBytes(raw []uint8) dewey.Code {
	if len(raw) > 8 {
		raw = raw[:8]
	}
	c := make(dewey.Code, 0, len(raw)+1)
	c = append(c, 0) // shared root, as in a real document
	for _, r := range raw {
		c = append(c, uint32(r%4))
	}
	return c
}

func BenchmarkLCA(b *testing.B) {
	x := dewey.MustParse("0.2.0.1.5.3.2")
	y := dewey.MustParse("0.2.0.4.5.3.4")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		LCA(x, y)
	}
}
