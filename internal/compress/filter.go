package compress

import "math"

// The warm pass of an error-feedback top-k encode lists the entries at
// or above a magnitude floor lo instead of histogramming every entry:
// addFilter forms the effective payload in the residual while it lists
// (the fused pass), filter lists an already formed one (the warm retry,
// and the cold path's second pass with the threshold bucket's floor).
// Both dispatch to a kernel (filter_amd64.go: AVX2 compare, VMOVMSKPS
// and a LUT left-pack on a CPU with AVX2 and POPCNT; filter_noasm.go
// elsewhere). The *Generic functions below are the pure-Go twins that
// define the result, and they run the tail the vector loop leaves and
// every build without the assembly.
//
// The result is the count of qualifying entries, which may exceed lim;
// list[:min(count, lim)] holds their ascending indices and
// vals[:min(count, lim)] their values' bit patterns, so the selection
// after the pass reads contiguous memory instead of gathering from the
// payload. Slots from there up to lim+7 are scratch the passes may
// overwrite, so list and vals must be at least lim+8 long. lo must not
// exceed floorMax (which lists nothing): the kernel compares
// sign-stripped patterns as signed 32-bit lanes against lo-1.

// addFilterGeneric runs the fused pass from index from on, with n
// entries already counted: r[i] becomes src[i] + r[i] — in that operand
// order, which the kernel's VADDPS follows — and i is counted when the
// sum's magnitude pattern is at least lo. The stores are unconditional
// and only the count is conditional, so the scan carries no
// unpredictable branch.
//
//adasum:noalloc
func addFilterGeneric(list, vals []uint32, lim int, r, src []float32, from, n int, lo uint32) int {
	r = r[:len(src)]
	for i := from; i < len(src); i++ {
		e := src[i] + r[i]
		r[i] = e
		p := min(n, lim)
		list[p], vals[p] = uint32(i), math.Float32bits(e)
		if absBits(e) >= lo {
			n++
		}
	}
	return n
}

// filterGeneric is addFilterGeneric's listing alone, over v.
//
//adasum:noalloc
func filterGeneric(list, vals []uint32, lim int, v []float32, from, n int, lo uint32) int {
	for i := from; i < len(v); i++ {
		bits := math.Float32bits(v[i])
		p := min(n, lim)
		list[p], vals[p] = uint32(i), bits
		if bits&^(1<<31) >= lo {
			n++
		}
	}
	return n
}
