package postings

import (
	"bytes"
	"math/rand"
	"testing"

	"xks/internal/nid"
)

// randomList generates a strictly increasing ID list of length n with the
// given gap profile.
func randomList(r *rand.Rand, n, maxGap int) []nid.ID {
	out := make([]nid.ID, n)
	cur := int64(r.Intn(3))
	for i := range out {
		out[i] = nid.ID(cur)
		cur += 1 + int64(r.Intn(maxGap))
	}
	return out
}

func TestRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	cases := [][]nid.ID{
		nil,
		{0},
		{5},
		{0, 1, 2, 3},
		randomList(r, BlockSize, 3),
		randomList(r, BlockSize+1, 3),
		randomList(r, 2*BlockSize, 1000),
		randomList(r, 10*BlockSize+17, 7),
		randomList(r, 300, 1<<22),
		{0, 1 << 7, 1 << 14, 1 << 21, 1 << 28},
	}
	for ci, ids := range cases {
		enc := AppendEncode(nil, ids)
		l, err := FromBytes(enc)
		if err != nil {
			t.Fatalf("case %d: FromBytes: %v", ci, err)
		}
		if l.Len() != len(ids) {
			t.Fatalf("case %d: Len = %d, want %d", ci, l.Len(), len(ids))
		}
		if l.EncodedLen() != len(enc) {
			t.Fatalf("case %d: EncodedLen = %d, want %d", ci, l.EncodedLen(), len(enc))
		}
		got, err := l.Decode()
		if err != nil {
			t.Fatalf("case %d: Decode: %v", ci, err)
		}
		if len(got) != len(ids) {
			t.Fatalf("case %d: decoded %d IDs, want %d", ci, len(got), len(ids))
		}
		for i := range ids {
			if got[i] != ids[i] {
				t.Fatalf("case %d: id[%d] = %d, want %d", ci, i, got[i], ids[i])
			}
		}
		// Iterator drain matches.
		it := l.Iterator()
		for i, want := range ids {
			v, ok := it.Next()
			if !ok || v != want {
				t.Fatalf("case %d: Next[%d] = %d,%v, want %d", ci, i, v, ok, want)
			}
		}
		if _, ok := it.Next(); ok {
			t.Fatalf("case %d: Next past end returned ok", ci)
		}
		if it.Err() != nil {
			t.Fatalf("case %d: drained iterator Err = %v", ci, it.Err())
		}
	}
	// EncodeAll lays the same encodings out in one blob, sized exactly: the
	// last list ends at the blob's capacity.
	all := EncodeAll(cases)
	for ci, ids := range cases {
		if got := all[ci].AppendBytes(nil); !bytes.Equal(got, AppendEncode(nil, ids)) {
			t.Fatalf("case %d: EncodeAll's list differs from AppendEncode's", ci)
		}
	}
	if last := all[len(all)-1].b; cap(last) != len(last) {
		t.Fatalf("EncodeAll's blob has %d bytes of slack", cap(last)-len(last))
	}
}

func TestFromBytesTrailingBytesIgnored(t *testing.T) {
	ids := []nid.ID{1, 5, 9}
	enc := append(AppendEncode(nil, ids), 0xAA, 0xBB)
	l, err := FromBytes(enc)
	if err != nil {
		t.Fatal(err)
	}
	if l.Len() != 3 {
		t.Fatalf("Len = %d", l.Len())
	}
}

// TestSeekGE pins SeekGE against the reference "linear scan + Next"
// implementation over random lists and random target sequences.
func TestSeekGE(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(5*BlockSize)
		ids := randomList(r, n, 1+r.Intn(20))
		l, err := FromBytes(AppendEncode(nil, ids))
		if err != nil {
			t.Fatal(err)
		}
		it := l.Iterator()
		pos := 0 // reference cursor into ids
		for step := 0; step < 200; step++ {
			if r.Intn(3) == 0 {
				// Interleave Next calls.
				v, ok := it.Next()
				wantOK := pos < len(ids)
				if ok != wantOK || (ok && v != ids[pos]) {
					t.Fatalf("trial %d: Next = %d,%v at pos %d", trial, v, ok, pos)
				}
				if ok {
					pos++
				}
				continue
			}
			// Monotone-ish targets with occasional backward probes.
			var target nid.ID
			if pos < len(ids) {
				target = ids[pos] + nid.ID(r.Intn(50)) - 5
			} else {
				target = ids[len(ids)-1] + 1
			}
			if target < 0 {
				target = 0
			}
			// Reference: discard remaining IDs below target, take the next.
			wp := pos
			for wp < len(ids) && ids[wp] < target {
				wp++
			}
			v, ok := it.SeekGE(target)
			if wp >= len(ids) {
				if ok {
					t.Fatalf("trial %d: SeekGE(%d) = %d, want exhausted", trial, target, v)
				}
				pos = len(ids)
				continue
			}
			// A backward target returns the head of the remaining stream.
			want := ids[wp]
			if want < target {
				want = ids[wp]
			}
			if !ok || v != want {
				t.Fatalf("trial %d: SeekGE(%d) = %d,%v, want %d", trial, target, v, ok, want)
			}
			pos = wp + 1
		}
	}
}

// TestSeekGEBackwardTarget pins the contract for targets at or below the
// consumed prefix: the head of the remaining stream comes back.
func TestSeekGEBackwardTarget(t *testing.T) {
	ids := []nid.ID{10, 20, 30, 40}
	l, _ := FromBytes(AppendEncode(nil, ids))
	it := l.Iterator()
	if v, _ := it.Next(); v != 10 {
		t.Fatal("first Next")
	}
	if v, ok := it.SeekGE(5); !ok || v != 20 {
		t.Fatalf("SeekGE(5) = %d,%v, want 20", v, ok)
	}
}

// TestMalformedNeverPanics drives the decoder over corrupted encodings.
func TestMalformedNeverPanics(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	base := AppendEncode(nil, randomList(r, 3*BlockSize+7, 5))
	for trial := 0; trial < 2000; trial++ {
		b := append([]byte(nil), base...)
		switch r.Intn(3) {
		case 0:
			b = b[:r.Intn(len(b))]
		case 1:
			for k := 0; k < 1+r.Intn(8); k++ {
				b[r.Intn(len(b))] ^= byte(1 + r.Intn(255))
			}
		case 2:
			b = b[:r.Intn(len(b))]
			for k := 0; len(b) > 0 && k < 4; k++ {
				b[r.Intn(len(b))] ^= byte(1 + r.Intn(255))
			}
		}
		l, err := FromBytes(b)
		if err != nil {
			continue
		}
		if _, err := l.Decode(); err != nil {
			continue
		}
		it := l.Iterator()
		for {
			if _, ok := it.Next(); !ok {
				break
			}
		}
		it = l.Iterator()
		for target := nid.ID(0); ; target += 37 {
			if _, ok := it.SeekGE(target); !ok {
				break
			}
		}
	}
}

func BenchmarkDecode(b *testing.B) {
	r := rand.New(rand.NewSource(4))
	ids := randomList(r, 64*BlockSize, 9)
	l, _ := FromBytes(AppendEncode(nil, ids))
	buf := make([]nid.ID, 0, len(ids))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		var err error
		buf, err = l.AppendDecode(buf)
		if err != nil {
			b.Fatal(err)
		}
	}
	_ = buf
}
