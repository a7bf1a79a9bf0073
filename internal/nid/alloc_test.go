//go:build !race

// The file is excluded from -race builds: the race detector changes
// allocation behaviour, so CI runs this test in its race-free step.

package nid

import (
	"testing"

	"xks/internal/dewey"
)

// TestCodeOnDemandAllocs: a code is walked from the parent chain into the
// caller's buffer, so AppendCode into a buffer with room and Find allocate
// nothing, while Code allocates its one fresh slice; and a sparse code set
// round-trips, each node holding its own code's last component.
func TestCodeOnDemandAllocs(t *testing.T) {
	in := codes("0.5.3", "0.5.9", "2.0")
	tab := FromCodes(in)
	a, ok := tab.Find(dewey.MustParse("0.5.9"))
	if !ok || tab.Ordinal(a) != 9 {
		t.Fatalf("Find(0.5.9) = %d, %v, ordinal %d", a, ok, tab.Ordinal(a))
	}
	buf := make(dewey.Code, 0, 8)
	if n := testing.AllocsPerRun(100, func() { buf = tab.AppendCode(buf[:0], a) }); n != 0 {
		t.Errorf("AppendCode into a buffer with room: %v allocations", n)
	}
	if n := testing.AllocsPerRun(100, func() { tab.Find(in[1]) }); n != 0 {
		t.Errorf("Find: %v allocations", n)
	}
	if n := testing.AllocsPerRun(100, func() { tab.Code(a) }); n != 1 {
		t.Errorf("Code: %v allocations, want 1", n)
	}
	for _, c := range in {
		if id, ok := tab.Find(c); !ok || !dewey.Equal(tab.Code(id), c) {
			t.Errorf("sparse code %s does not round-trip", c)
		}
	}
	if got := tab.Codes([]ID{0, a}); got[0].String() != "0" || got[1].String() != "0.5.9" || cap(got[0]) != 1 {
		t.Errorf("Codes = %v (capacity %d)", got, cap(got[0]))
	}
}
