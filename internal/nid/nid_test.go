package nid

import (
	"testing"

	"xks/internal/dewey"
)

func codes(ss ...string) []dewey.Code {
	out := make([]dewey.Code, len(ss))
	for i, s := range ss {
		out[i] = dewey.MustParse(s)
	}
	return out
}

// TestFromCodesClosure: the table is the sorted ancestor closure of the
// input, with pre-order IDs and correct parents, depths and codes.
func TestFromCodesClosure(t *testing.T) {
	tab := FromCodes(codes("0.2.0.1", "0.0", "0.2.0.1", "0.1.3"))
	want := []string{"0", "0.0", "0.1", "0.1.3", "0.2", "0.2.0", "0.2.0.1"}
	if tab.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", tab.Len(), len(want))
	}
	for i, w := range want {
		c := tab.Code(ID(i))
		if c.String() != w {
			t.Errorf("Code(%d) = %s, want %s", i, c, w)
		}
		if got := int(tab.Depth(ID(i))); got != len(c)-1 {
			t.Errorf("Depth(%d) = %d, want %d", i, got, len(c)-1)
		}
		if len(c) == 1 {
			if tab.Parent(ID(i)) != None {
				t.Errorf("root %s should have no parent", c)
			}
		} else if pc := tab.Code(tab.Parent(ID(i))); !dewey.Equal(pc, c[:len(c)-1]) {
			t.Errorf("Parent(%s) = %s", c, pc)
		}
	}
	for i, w := range want {
		id, ok := tab.Find(dewey.MustParse(w))
		if !ok || id != ID(i) {
			t.Errorf("Find(%s) = (%d, %v), want (%d, true)", w, id, ok, i)
		}
	}
	if _, ok := tab.Find(dewey.MustParse("0.9")); ok {
		t.Error("Find of absent code succeeded")
	}
}

// TestBuilderOutOfOrderPanics pins the dense-ID invariant guard.
func TestBuilderOutOfOrderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order Add did not panic")
		}
	}()
	b := NewBuilder(2)
	b.Add(dewey.MustParse("0.1"))
	b.Add(dewey.MustParse("0.0"))
}

// TestPushMatchesAdd: a table pushed by depth is the one Add builds from
// the same nodes' codes — parents, depths, codes — and a depth that skips
// a level panics.
func TestPushMatchesAdd(t *testing.T) {
	cs := codes("0", "0.0", "0.0.0", "0.0.1", "0.1", "0.2", "0.2.0", "0.2.0.0", "0.3", "1", "1.0")
	byCode, byDepth := NewBuilder(0), NewBuilder(len(cs))
	for _, c := range cs {
		byCode.Add(c)
		byDepth.Push(c.Level())
	}
	want, got := byCode.Table(), byDepth.Table()
	if got.Len() != want.Len() {
		t.Fatalf("Len = %d, want %d", got.Len(), want.Len())
	}
	for i := range want.Len() {
		id := ID(i)
		if !dewey.Equal(got.Code(id), want.Code(id)) || got.Parent(id) != want.Parent(id) || got.Depth(id) != want.Depth(id) {
			t.Errorf("node %d: code %s parent %d depth %d, want %s %d %d", i, got.Code(id), got.Parent(id), got.Depth(id), want.Code(id), want.Parent(id), want.Depth(id))
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Push two levels below the previous node did not panic")
		}
	}()
	b := NewBuilder(2)
	b.Push(0)
	b.Push(2)
}
