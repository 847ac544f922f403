//go:build amd64 && !noasm

package float16

import (
	"unsafe"

	"repro/internal/cpu"
)

// Dispatch for the bulk conversions (bulk.go): on a CPU with F16C —
// cpu.HasF16C, its own CPUID bit, not the FMA flag the tensor kernels
// read — each function hands the assembly the largest prefix that is a
// whole number of eight-element vectors and runs the pure-Go twin on the
// tail; elsewhere the twin runs alone. The exported callers have checked
// the slice lengths against each other; the index expression before each
// assembly call repeats the one bound the destination or source pointer
// depends on, so an inconsistent call panics here instead of reading or
// writing out of bounds.
//
// The kernels use unaligned loads and stores, so any slice offset is
// fine. The wire-word forms run the same two assembly bodies: eight
// elements are exactly four wire words, and amd64 is little-endian, so
// the halves of word w sit in memory as element 2w then 2w+1 — the order
// packGeneric builds with shifts. wireHalves is the one place that view
// is taken.

// n is a positive multiple of 8.
//
//go:noescape
func encodeF16C(dst *Bits, src *float32, n int)

// n is a positive multiple of 8.
//
//go:noescape
func decodeF16C(dst *float32, src *Bits, n int)

// wireHalves returns the wire words starting at w viewed as halves.
func wireHalves(w *float32) *Bits { return (*Bits)(unsafe.Pointer(w)) }

//adasum:noalloc
func encodeInto(dst []Bits, src []float32) {
	if n := len(src) &^ 7; cpu.HasF16C && n > 0 {
		_ = dst[n-1]
		encodeF16C(&dst[0], &src[0], n)
		dst, src = dst[n:], src[n:]
	}
	encodeGeneric(dst, src)
}

//adasum:noalloc
func decodeInto(dst []float32, src []Bits) {
	if n := len(dst) &^ 7; cpu.HasF16C && n > 0 {
		_ = src[n-1]
		decodeF16C(&dst[0], &src[0], n)
		dst, src = dst[n:], src[n:]
	}
	decodeGeneric(dst, src)
}

//adasum:noalloc
func packInto(dst, src []float32) {
	if n := len(src) &^ 7; cpu.HasF16C && n > 0 {
		_ = dst[n/2-1]
		encodeF16C(wireHalves(&dst[0]), &src[0], n)
		dst, src = dst[n/2:], src[n:]
	}
	packGeneric(dst, src)
}

//adasum:noalloc
func unpackInto(dst, src []float32) {
	if n := len(dst) &^ 7; cpu.HasF16C && n > 0 {
		_ = src[n/2-1]
		decodeF16C(&dst[0], wireHalves(&src[0]), n)
		dst, src = dst[n:], src[n/2:]
	}
	unpackGeneric(dst, src)
}
