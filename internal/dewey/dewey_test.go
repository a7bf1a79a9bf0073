package dewey

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestParseString(t *testing.T) {
	cases := []struct {
		in   string
		want Code
		ok   bool
	}{
		{"0", Code{0}, true},
		{"0.2.0.1", Code{0, 2, 0, 1}, true},
		{"10.20.30", Code{10, 20, 30}, true},
		{"9.99.100.4294967295", Code{9, 99, 100, 4294967295}, true},
		{"", nil, false},
		{"0..1", nil, false},
		{"a.b", nil, false},
		{"-1", nil, false},
		{"4294967296", nil, false}, // out of uint32 range
	}
	for _, c := range cases {
		got, err := Parse(c.in)
		if c.ok && err != nil {
			t.Errorf("Parse(%q) unexpected error: %v", c.in, err)
			continue
		}
		if !c.ok {
			if err == nil {
				t.Errorf("Parse(%q) expected error, got %v", c.in, got)
			}
			continue
		}
		if !Equal(got, c.want) {
			t.Errorf("Parse(%q) = %v, want %v", c.in, got, c.want)
		}
		if got.String() != c.in {
			t.Errorf("String round trip: %q != %q", got.String(), c.in)
		}
		if got.StringLen() != len(c.in) {
			t.Errorf("StringLen(%q) = %d", c.in, got.StringLen())
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse on bad input did not panic")
		}
	}()
	MustParse("not a code")
}

func TestNilString(t *testing.T) {
	if got := Code(nil).String(); got != "ε" {
		t.Errorf("nil code String() = %q", got)
	}
}

func TestCompare(t *testing.T) {
	ordered := []string{"0", "0.0", "0.0.0", "0.0.1", "0.1", "0.2", "0.2.0", "0.2.0.1", "0.2.1", "0.10", "1"}
	for i := range ordered {
		for j := range ordered {
			a, b := MustParse(ordered[i]), MustParse(ordered[j])
			got := Compare(a, b)
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got != want {
				t.Errorf("Compare(%s,%s) = %d, want %d", a, b, got, want)
			}
		}
	}
}

func TestParentChildLevel(t *testing.T) {
	c := MustParse("0.2.0")
	child := c.Child(3)
	if got := child.String(); got != "0.2.0.3" {
		t.Errorf("Child = %s", got)
	}
	if parent := child[:len(child)-1]; !Equal(parent, c) {
		t.Errorf("parent of Child = %s, want %s", parent, c)
	}
	if got := MustParse("0").Level(); got != 0 {
		t.Errorf("root Level = %d", got)
	}
	if got := c.Level(); got != 2 {
		t.Errorf("Level = %d", got)
	}
	if got := Code(nil).Level(); got != -1 {
		t.Errorf("nil Level = %d", got)
	}
}

func TestChildDoesNotAliasParentStorage(t *testing.T) {
	c := MustParse("0.1")
	a := c.Child(0)
	b := c.Child(1)
	if !Equal(a, MustParse("0.1.0")) || !Equal(b, MustParse("0.1.1")) {
		t.Fatalf("children corrupted: %s %s", a, b)
	}
}

func randomCode(rng *rand.Rand) Code {
	n := 1 + rng.Intn(6)
	c := make(Code, n)
	for i := range c {
		c[i] = uint32(rng.Intn(5))
	}
	return c
}

func TestSortMatchesStdSort(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(100)
		a := make([]Code, n)
		for i := range a {
			a[i] = randomCode(rng)
		}
		b := make([]Code, n)
		copy(b, a)
		Sort(a)
		sort.Slice(b, func(i, j int) bool { return Compare(b[i], b[j]) < 0 })
		for i := range a {
			if !Equal(a[i], b[i]) {
				t.Fatalf("trial %d: Sort mismatch at %d: %s vs %s", trial, i, a[i], b[i])
			}
		}
	}
}

// Property: Compare defines a total order consistent with ancestor
// relations: an ancestor always precedes its descendants.
func TestAncestorPrecedesDescendant(t *testing.T) {
	f := func(raw []uint8, extra []uint8) bool {
		a := codeFromBytes(raw)
		if len(a) == 0 {
			return true
		}
		b := slices.Clone(a)
		for _, e := range extra {
			b = append(b, uint32(e%4))
		}
		if len(extra) == 0 {
			return Compare(a, b) == 0
		}
		return CommonPrefixLen(a, b) == len(a) && Compare(a, b) < 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func codeFromBytes(raw []uint8) Code {
	if len(raw) > 8 {
		raw = raw[:8]
	}
	c := make(Code, 0, len(raw)+1)
	c = append(c, 0) // shared root, as in a real document
	for _, r := range raw {
		c = append(c, uint32(r%4))
	}
	return c
}

func BenchmarkCompare(b *testing.B) {
	x := MustParse("0.2.0.1.5.3.2")
	y := MustParse("0.2.0.1.5.3.4")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Compare(x, y)
	}
}
