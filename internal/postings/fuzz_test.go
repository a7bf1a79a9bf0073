package postings

import (
	"math/rand"
	"slices"
	"testing"

	"xks/internal/nid"
)

// FuzzPostingsFromBytes checks the list decoder on arbitrary bytes:
// FromBytes either errors, or the full Decode and an Iterator walk both
// return the same strictly increasing IDs, Len() of them, or both error.
// Never a panic, SeekGE walks included.
func FuzzPostingsFromBytes(f *testing.F) {
	r := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, BlockSize, BlockSize + 1} {
		enc := AppendEncode(nil, randomList(r, n, 7))
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
		f.Add(enc[:len(enc)-1])
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		l, err := FromBytes(b)
		if err != nil {
			return
		}
		ids, decErr := l.Decode()
		var walked []nid.ID
		it := l.Iterator()
		// SeekGE trusts the skip table to bound a block; a payload that
		// disagrees with it must end the walk, not index past the block.
		for target := nid.ID(0); ; target += 37 {
			if _, ok := it.SeekGE(target); !ok {
				break
			}
		}
		it = l.Iterator()
		for id, ok := it.Next(); ok; id, ok = it.Next() {
			walked = append(walked, id)
		}
		if (decErr == nil) != (it.Err() == nil) {
			t.Fatalf("Decode error %v, Iterator error %v", decErr, it.Err())
		}
		if decErr != nil {
			return
		}
		if len(ids) != l.Len() || !slices.Equal(ids, walked) {
			t.Fatalf("Decode gave %d IDs, Iterator %d, Len %d", len(ids), len(walked), l.Len())
		}
		for i := 1; i < len(ids); i++ {
			if ids[i] <= ids[i-1] {
				t.Fatalf("IDs not strictly increasing at %d: %d after %d", i, ids[i], ids[i-1])
			}
		}
	})
}
