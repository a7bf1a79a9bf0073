package lca

import (
	"maps"
	"slices"
	"testing"

	"xks/internal/nid"
)

// decodeMergeInput reads a fuzz input as k lists (1..64) over n (1..256)
// IDs spaced stride (1..256) apart, so lists collide and a window can span
// many of the merge's chunks, the number of events the first, abandoned
// read takes, and the cut points of the windows: after a 4-byte header,
// each byte pair (a, b) adds the ID of rank b%n to list a%k, or, when
// a ≥ 0xC0, cuts a window at rank b%(n+1).
func decodeMergeInput(data []byte) (lists [][]nid.ID, span nid.ID, abandon int, cuts []nid.ID) {
	if len(data) < 4 {
		return nil, 0, 0, nil
	}
	k, n, stride := 1+int(data[0])%64, nid.ID(1+int(data[1])), nid.ID(1+int(data[3]))
	lists = make([][]nid.ID, k)
	for rest := data[4:]; len(rest) >= 2; rest = rest[2:] {
		if a, b := rest[0], nid.ID(rest[1]); a >= 0xC0 {
			cuts = append(cuts, b%(n+1)*stride)
		} else {
			lists[int(a)%k] = append(lists[int(a)%k], b%n*stride)
		}
	}
	span = n * stride
	for i, l := range lists {
		slices.Sort(l)
		lists[i] = slices.Compact(l)
	}
	cuts = append(cuts, 0, span)
	slices.Sort(cuts)
	return lists, span, int(data[2]), slices.Compact(cuts)
}

// naiveMerge is the merged stream by its definition: every ID of some list
// in [lo, hi), ascending, with the OR of the bits of the lists holding it.
func naiveMerge(lists [][]nid.ID, lo, hi nid.ID) []IDEvent {
	masks := map[nid.ID]uint64{}
	for i, l := range lists {
		for _, id := range l {
			if lo <= id && id < hi {
				masks[id] |= 1 << uint(i)
			}
		}
	}
	var out []IDEvent
	for _, id := range slices.Sorted(maps.Keys(masks)) {
		out = append(out, IDEvent{ID: id, Mask: masks[id]})
	}
	return out
}

// FuzzMerge holds the mask merge to the naive sorted union, window by
// window, on a scratch that has just served a merge abandoned mid-stream,
// and requires the scratch to be all zero whenever a merge lets go of it.
func FuzzMerge(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		lists, n, abandon, cuts := decodeMergeInput(data)
		if lists == nil {
			return
		}
		m := NewMerge(lists)
		defer m.Release()
		m.Window(0, n)
		for i := 0; i < abandon; i++ {
			if _, ok := m.Next(); !ok {
				break
			}
		}
		m.reset(lists)
		requireClean(t, m)
		for i := 1; i < len(cuts); i++ {
			lo, hi := cuts[i-1], cuts[i]
			got := appendWindow(m, nil, lo, hi)
			if want := naiveMerge(lists, lo, hi); !slices.Equal(got, want) {
				t.Fatalf("window [%d, %d) of %v: merged %v, want %v", lo, hi, lists, got, want)
			}
			requireClean(t, m)
		}
	})
}

// appendWindow reads m's window [lo, hi) whole, appending its events to dst.
func appendWindow(m *Merge, dst []IDEvent, lo, hi nid.ID) []IDEvent {
	m.Window(lo, hi)
	for ev, ok := m.Next(); ok; ev, ok = m.Next() {
		dst = append(dst, ev)
	}
	return dst
}

// requireClean fails unless the merge's mask array and summary are all zero.
func requireClean(t *testing.T, m *Merge) {
	t.Helper()
	for x, v := range m.masks {
		if v != 0 {
			t.Fatalf("mask of offset %d is %b after the window was read", x, v)
		}
	}
	for w, v := range m.seen {
		if v != 0 {
			t.Fatalf("summary word %d is %b after the window was read", w, v)
		}
	}
}
