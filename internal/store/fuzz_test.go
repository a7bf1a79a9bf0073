package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"testing"

	"xks/internal/analysis"
	"xks/internal/paperdata"
)

// FuzzLoad checks the v3 section-directory reader never panics on corrupted
// input and either fails cleanly or returns a structurally valid store. A
// header of any other version must fail.
func FuzzLoad(f *testing.F) {
	var buf bytes.Buffer
	if err := Shred(paperdata.Publications(), analysis.New()).Save(&buf); err != nil {
		f.Fatal(err)
	}
	v3 := buf.Bytes()
	v2 := append([]byte(nil), v3...)
	binary.BigEndian.PutUint32(v2[len(magic):], 2)
	f.Add(v3)
	f.Add(v2)
	// A file written while the format still carried a statistics section.
	previous, err := os.ReadFile(previousFormat)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(previous)
	f.Add([]byte(magic))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	// Targeted v3 seeds: truncations, a flipped section byte (CRC
	// mismatch), and directory corruptions with the header CRC recomputed
	// so they reach the per-section validation (misaligned offsets,
	// out-of-bounds lengths) instead of dying on the header checksum.
	dirEnd := 16 + 32*int(binary.LittleEndian.Uint32(v3[12:16]))
	corrupt := func(off int, x byte, fixHeader bool) []byte {
		c := append([]byte(nil), v3...)
		c[off] ^= x
		if fixHeader {
			binary.LittleEndian.PutUint32(c[dirEnd:], crc32.ChecksumIEEE(c[:dirEnd]))
		}
		return c
	}
	f.Add(v3[:len(v3)/2])
	f.Add(v3[:len(v3)-3])
	f.Add(v3[:dirEnd-16])
	f.Add(corrupt(12, 0x07, true))         // section count → 0
	f.Add(corrupt(len(v3)-5, 0x40, false)) // flip a late section byte
	f.Add(corrupt(dirEnd+8, 0x01, false))  // section byte under the CRC
	f.Add(corrupt(20, 0xAA, true))         // entry 0 CRC field
	f.Add(corrupt(24, 0x01, true))         // entry 0 offset → misaligned
	f.Add(corrupt(32, 0xFF, true))         // entry 0 length → out of bounds
	f.Add(corrupt(16+32*4+8, 0x7F, true))  // entry 4 offset
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := openV3FromBytes(data)
		if err != nil {
			return
		}
		if v := binary.BigEndian.Uint32(data[len(magic):]); v != versionV3 {
			t.Fatalf("version %d image opened", v)
		}
		// A successfully opened store must be self-consistent.
		for i := 0; i < s.NumNodes(); i++ {
			s.LabelAt(i)
			s.ContentAt(i)
		}
		ix := s.BuildIndex()
		for i, w := range s.terms {
			want := s.lists[i].Len()
			if want == 0 {
				t.Fatalf("keyword %q has an empty posting list", w)
			}
			// Varint payloads stay lazy behind the section CRC, so a
			// fuzzer that recomputes checksums can smuggle malformed
			// bytes past open; decode must then fail cleanly — never
			// panic, never return a partial list.
			if got := len(ix.LookupIDs(w)); got != 0 && got != want {
				t.Fatalf("keyword %q decodes to %d of %d postings", w, got, want)
			}
		}
	})
}
