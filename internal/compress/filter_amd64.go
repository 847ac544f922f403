//go:build amd64 && !noasm

package compress

import "repro/internal/cpu"

// Dispatch for the listing passes (filter.go): on a CPU with AVX2 and
// POPCNT (cpu.HasAVX2) each function hands the assembly the largest
// prefix that is a whole number of eight-element blocks and runs the
// pure-Go twin on the tail, carrying the count across; elsewhere the twin
// runs alone. The index expressions before each assembly call repeat the
// bounds its pointers depend on — the lim+8 slots of list and vals, and
// the residual's length — so an inconsistent call panics here instead of
// writing out of bounds.

// n is a positive multiple of 8.
//
//go:noescape
func addFilterAVX2(list, vals *uint32, lim int, r, src *float32, n int, lo uint32) (count int)

// n is a positive multiple of 8.
//
//go:noescape
func filterAVX2(list, vals *uint32, lim int, v *float32, n int, lo uint32) (count int)

//adasum:noalloc
func addFilter(list, vals []uint32, lim int, r, src []float32, lo uint32) int {
	if m := len(src) &^ 7; cpu.HasAVX2 && m > 0 {
		_, _, _ = list[lim+7], vals[lim+7], r[m-1]
		n := addFilterAVX2(&list[0], &vals[0], lim, &r[0], &src[0], m, lo)
		return addFilterGeneric(list, vals, lim, r, src, m, n, lo)
	}
	return addFilterGeneric(list, vals, lim, r, src, 0, 0, lo)
}

//adasum:noalloc
func filter(list, vals []uint32, lim int, v []float32, lo uint32) int {
	if m := len(v) &^ 7; cpu.HasAVX2 && m > 0 {
		_, _ = list[lim+7], vals[lim+7]
		n := filterAVX2(&list[0], &vals[0], lim, &v[0], m, lo)
		return filterGeneric(list, vals, lim, v, m, n, lo)
	}
	return filterGeneric(list, vals, lim, v, 0, 0, lo)
}
