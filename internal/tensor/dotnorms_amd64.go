//go:build amd64 && !noasm

package tensor

import "repro/internal/cpu"

// The fused DotNorms reduction has a vectorized fast path on amd64: an
// AVX+FMA assembly kernel processing eight elements per iteration with
// four-lane float64 accumulators. Machines without AVX+FMA (cpu.HasAVXFMA,
// detected once at init) and non-amd64 builds use the portable 4-wide Go
// loop.
//
// Accumulation discipline: every product is float64(a[i]) * float64(b[i]),
// which is exact (24-bit mantissas), so FMA and mul+add produce identical
// partial sums. The vector path differs from the unfused Dot/Norm2 pair
// only in folding eight lanes instead of four — a reassociation of exact
// partial sums whose results agree to ~1e-16 relative (tested to 1e-12).

// Implemented in dotnorms_amd64.s.
//
//go:noescape
func dotNormsAVX(a, b *float32, n int, out *[12]float64)

//adasum:noalloc
func dotNorms(a, b []float32) (dot, na, nb float64) {
	n := len(a)
	bulk := n &^ 7
	if !cpu.HasAVXFMA || bulk == 0 {
		return dotNormsGeneric(a, b)
	}
	var lanes [12]float64
	dotNormsAVX(&a[0], &b[0], bulk, &lanes)
	d0, d1, d2, d3 := lanes[0], lanes[1], lanes[2], lanes[3]
	x0, x1, x2, x3 := lanes[4], lanes[5], lanes[6], lanes[7]
	y0, y1, y2, y3 := lanes[8], lanes[9], lanes[10], lanes[11]
	for i := bulk; i < n; i++ {
		av, bv := float64(a[i]), float64(b[i])
		d0 += av * bv
		x0 += av * av
		y0 += bv * bv
	}
	return d0 + d1 + d2 + d3, x0 + x1 + x2 + x3, y0 + y1 + y2 + y3
}
