package store

import (
	"encoding/binary"
	"unsafe"

	"xks/internal/nid"
)

// hostLittleEndian reports whether the host stores multi-byte integers
// little-endian — the layout the v3 sections are written in. On such hosts
// (every platform this repo targets in practice) the fixed-width section
// arrays are reinterpreted in place; big-endian hosts fall back to a
// decoding copy, trading open time for portability.
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// view reinterprets b (a whole number of Ts, little-endian) as []T without
// copying when the host is little-endian and b is aligned for T — views
// over file sections always are: the v3 writer 8-aligns every section and
// pads inside one to each column's width — and decodes a copy otherwise.
func view[T uint16 | uint32 | int32 | nid.ID](b []byte) []T {
	size := int(unsafe.Sizeof(T(0)))
	if len(b) == 0 {
		return nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%uintptr(size) == 0 {
		return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), len(b)/size)
	}
	out := make([]T, len(b)/size)
	for i := range out {
		if size == 2 {
			out[i] = T(binary.LittleEndian.Uint16(b[2*i:]))
		} else {
			out[i] = T(binary.LittleEndian.Uint32(b[4*i:]))
		}
	}
	return out
}

// stringView reinterprets b as a string without copying. The bytes must
// stay immutable and outlive the string — true for store sections, which
// are read-only mappings (or never-mutated heap buffers) pinned by the
// Store.
func stringView(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// appendLE appends vals to dst in little-endian order (the v3 section
// writer's bulk array form).
func appendLE[T uint16 | uint32 | nid.ID](dst []byte, vals []T) []byte {
	for _, v := range vals {
		if unsafe.Sizeof(v) == 2 {
			dst = binary.LittleEndian.AppendUint16(dst, uint16(v))
		} else {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
		}
	}
	return dst
}
