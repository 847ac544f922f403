//go:build amd64 && !noasm

package tensor

import (
	"math"

	"repro/internal/cpu"
)

// Dispatch for the lane kernels (lanes.go): on a CPU with AVX — the
// cpu.HasAVXFMA flag dotNorms already uses — each function hands the
// assembly the largest prefix that is a whole number of vectors and runs
// the pure-Go twin on the tail; elsewhere the twin runs alone. The
// exported callers have checked that all slices of a call are equally
// long; the index expression before each assembly call repeats the one
// bound the pointers depend on, so an inconsistent call panics here
// instead of writing out of bounds.

// n is a positive multiple of 8.
//
//go:noescape
func axpyAVX(x, y *float32, n int, alpha float32)

// n is a positive multiple of 8.
//
//go:noescape
func subAVX(dst, a, b *float32, n int)

// n is a positive multiple of 4; s receives norm2Generic's four partial
// sums over a[:n].
//
//go:noescape
func norm2AVX(a *float32, n int, s *[4]float64)

// n is a positive multiple of 8.
//
//go:noescape
func scaledCombineAVX(dst, a, b *float32, n int, ca, cb float32)

// One tile of denseLanes samples through an in×out layer: xt holds the
// tile transposed (xt[i*8+l] is feature i of sample l), yt receives the
// outputs the same way, w is the row-major weight matrix and b the bias
// (nil for none). in and out are positive.
//
//go:noescape
func denseTileAVX(yt, xt, w, b *float32, in, out int)

// One sample through the first rows outputs of an in-wide layer: y
// receives rows outputs, x holds in features, w is the row-major weight
// matrix and b the bias (nil for none). in is positive and rows a
// positive multiple of 8.
//
//go:noescape
func denseRowsAVX(y, x, w, b *float32, in, rows int)

// backwardRows (lanes.go) over columns 0..cols-1, and biasGrad into
// bias unless it is nil: cols is a positive multiple of 8 and at most
// width, outer and inner are positive.
//
//go:noescape
func backwardRowsAVX(dst, gp, src, bias *float32, outer, inner, ga, gb, width, cols int, add bool)

// n is a positive multiple of 4; k1 and k2 are adamKernelCoef's.
//
//go:noescape
func adamAVX(pp, gg, mm, vv *float32, n int, c *AdamCoef, k1, k2 float64)

// n is a positive multiple of 8.
//
//go:noescape
func momentumAVX(pp, gg, vv *float32, n int, mu, wd, lr float32)

//adasum:noalloc
func axpy(alpha float32, x, y []float32) {
	if n := len(x) &^ 7; cpu.HasAVXFMA && n > 0 {
		_ = y[n-1]
		axpyAVX(&x[0], &y[0], n, alpha)
		if n == len(x) {
			return // the common case in Dense.Backward, which calls per weight row
		}
		x, y = x[n:], y[n:]
	}
	axpyGeneric(alpha, x, y)
}

//adasum:noalloc
func sub(dst, a, b []float32) {
	if n := len(dst) &^ 7; cpu.HasAVXFMA && n > 0 {
		_, _ = a[n-1], b[n-1]
		subAVX(&dst[0], &a[0], &b[0], n)
		dst, a, b = dst[n:], a[n:], b[n:]
	}
	subGeneric(dst, a, b)
}

// norm2 hands the assembly the whole groups of four, whose lane j is the
// twin's s_j; the tail joins s0 here, as in the twin.
//
//adasum:noalloc
func norm2(a []float32) float64 {
	n := len(a) &^ 3
	if !cpu.HasAVXFMA || n == 0 {
		return norm2Generic(a)
	}
	var s [4]float64
	norm2AVX(&a[0], n, &s)
	s0 := s[0]
	for _, v := range a[n:] {
		s0 += float64(v) * float64(v)
	}
	return s0 + s[1] + s[2] + s[3]
}

//adasum:noalloc
func scaledCombine(dst []float32, ca float32, a []float32, cb float32, b []float32) {
	if n := len(dst) &^ 7; cpu.HasAVXFMA && n > 0 {
		_, _ = a[n-1], b[n-1]
		scaledCombineAVX(&dst[0], &a[0], &b[0], n, ca, cb)
		dst, a, b = dst[n:], a[n:], b[n:]
	}
	scaledCombineGeneric(dst, ca, a, cb, b)
}

const (
	// denseLanes is the width of both vector forward passes: eight
	// float32 lanes of a ymm register, holding eight samples of a tile
	// or eight outputs of one sample.
	denseLanes = 8
	// denseRowsMaxBatch is the largest batch that runs with outputs on
	// the lanes, one sample at a time; denseMinBatch is the smallest the
	// tiled path takes when the rows path does not apply (a layer of
	// fewer than eight outputs has no block of rows to put on the lanes).
	// Both from BenchmarkDenseCrossover (see DESIGN.md, "Lane kernels"):
	// the rows path costs the same per sample at every batch, the tiled
	// path pays for a whole tile however few samples fill it, and up to
	// three samples the rows path wins on every shape measured; at four
	// and five the winner depends on the shape.
	denseRowsMaxBatch = 3
	denseMinBatch     = 2
)

// DenseScratchLen returns the scratch length DenseForward wants for an
// in×out layer: one transposed input tile and one transposed output
// tile.
func DenseScratchLen(in, out int) int { return (in + out) * denseLanes }

//adasum:noalloc
func denseForward(y, x, w, b []float32, batch, in, out int, scratch []float32) {
	switch {
	case cpu.HasAVXFMA && batch <= denseRowsMaxBatch && out >= denseLanes:
		denseForwardRows(y, x, w, b, batch, in, out)
	case cpu.HasAVXFMA && batch >= denseMinBatch && len(scratch) >= DenseScratchLen(in, out):
		denseForwardTiled(y, x, w, b, batch, in, out, scratch)
	default:
		denseForwardGeneric(y, x, w, b, batch, in, out)
	}
}

// denseForwardRows puts outputs on the vector lanes: for each sample
// denseRowsAVX takes the weight rows eight at a time, transposes them in
// registers four features at a time and multiplies by a broadcast
// feature — so every lane performs denseForwardGeneric's operations for
// its own output, in order, and nothing is transposed in memory. The
// out%8 rows past the last whole block go to the twin. The caller has
// checked the slice lengths against batch, in and out and that out is
// at least denseLanes.
//
//adasum:noalloc
func denseForwardRows(y, x, w, b []float32, batch, in, out int) {
	rows := out &^ (denseLanes - 1)
	_ = w[in*out-1]
	var bias *float32
	var restBias []float32
	if len(b) != 0 {
		_ = b[out-1]
		bias, restBias = &b[0], b[rows:]
	}
	for s := 0; s < batch; s++ {
		xs, ys := x[s*in:(s+1)*in], y[s*out:(s+1)*out]
		denseRowsAVX(&ys[0], &xs[0], &w[0], bias, in, rows)
		if rows < out {
			denseForwardGeneric(ys[rows:], xs, w[rows*in:], restBias, 1, in, out-rows)
		}
	}
}

// denseForwardTiled puts samples on the vector lanes: a tile of up to
// eight samples is transposed into scratch, denseTileAVX broadcasts each
// weight against the tile row of its feature — so every lane performs
// denseForwardGeneric's operations for its own sample, in order — and
// the tile of outputs is transposed back. Lanes past the end of a short
// tile compute on whatever scratch held; their results are dropped.
// The caller has checked the slice lengths against batch, in and out
// and that scratch holds DenseScratchLen(in, out) floats.
//
//adasum:noalloc
func denseForwardTiled(y, x, w, b []float32, batch, in, out int, scratch []float32) {
	xt := scratch[:in*denseLanes]
	yt := scratch[in*denseLanes : (in+out)*denseLanes]
	_ = w[in*out-1]
	var bias *float32
	if len(b) != 0 {
		_ = b[out-1]
		bias = &b[0]
	}
	for s0 := 0; s0 < batch; s0 += denseLanes {
		lanes := min(denseLanes, batch-s0)
		for l := 0; l < lanes; l++ {
			for i, v := range x[(s0+l)*in : (s0+l+1)*in] {
				xt[i*denseLanes+l] = v
			}
		}
		denseTileAVX(&yt[0], &xt[0], &w[0], bias, in, out)
		for l := 0; l < lanes; l++ {
			yl := y[(s0+l)*out : (s0+l+1)*out]
			for o := range yl {
				yl[o] = yt[o*denseLanes+l]
			}
		}
	}
}

// denseBackward runs DenseBackward on register tiles (backwardRowsAVX)
// over the in&^7 leading columns — gw and gb in one pass, then dx — and
// the twin's backwardRows over the rest. The caller has checked every
// length against batch, in and out.
//
//adasum:noalloc
func denseBackward(dx, gw, gb, dy, x, w []float32, batch, in, out int, add bool) {
	cols := in &^ (denseLanes - 1)
	if !cpu.HasAVXFMA || cols == 0 || batch == 0 {
		denseBackwardGeneric(dx, gw, gb, dy, x, w, batch, in, out, add)
		return
	}
	_, _, _, _ = gw[in*out-1], gb[out-1], dy[batch*out-1], x[batch*in-1]
	backwardRowsAVX(&gw[0], &dy[0], &x[0], &gb[0], out, batch, 1, out, in, cols, add)
	if cols < in {
		backwardRows(gw, dy, x, out, batch, 1, out, in, cols, add)
	}
	if dx != nil {
		_, _ = dx[batch*in-1], w[in*out-1]
		backwardRowsAVX(&dx[0], &dy[0], &w[0], nil, batch, out, out, 1, in, cols, false)
		if cols < in {
			backwardRows(dx, dy, w, batch, out, out, 1, in, cols, false)
		}
	}
}

// adamKernelCoef returns adamAVX's per-call constants k1 = LR/BC1 and
// k2 = 1/√BC2, and whether c lies where DESIGN.md's error bound for
// the one-divide form holds: with 2^-64 <= BC1, BC2 <= 1, LR zero or of
// magnitude within 2^±64 and 2^-600 <= Eps <= 2^64, every intermediate
// of both forms is a normal float64 for any float32 moments. Every step
// optim.Adam takes at its defaults is inside; outside, the twin runs the
// whole call.
//
//adasum:noalloc
func adamKernelCoef(c *AdamCoef) (k1, k2 float64, ok bool) {
	ok = within(c.BC1, 0x1p-64, 1) && within(c.BC2, 0x1p-64, 1) && within(c.Eps, 0x1p-600, 0x1p64) &&
		(c.LR == 0 || within(math.Abs(c.LR), 0x1p-64, 0x1p64))
	return c.LR / c.BC1, 1 / math.Sqrt(c.BC2), ok
}

func within(x, lo, hi float64) bool { return x >= lo && x <= hi }

//adasum:noalloc
func adamUpdate(p, g, m, v []float32, c *AdamCoef) {
	if n := len(p) &^ 3; cpu.HasAVXFMA && n > 0 {
		if k1, k2, ok := adamKernelCoef(c); ok {
			_, _, _ = g[n-1], m[n-1], v[n-1]
			adamAVX(&p[0], &g[0], &m[0], &v[0], n, c, k1, k2)
			p, g, m, v = p[n:], g[n:], m[n:], v[n:]
		}
	}
	adamGeneric(p, g, m, v, c)
}

//adasum:noalloc
func momentumUpdate(p, g, v []float32, mu, wd, lr float32) {
	if n := len(p) &^ 7; cpu.HasAVXFMA && n > 0 {
		_, _ = g[n-1], v[n-1]
		momentumAVX(&p[0], &g[0], &v[0], n, mu, wd, lr)
		p, g, v = p[n:], g[n:], v[n:]
	}
	momentumGeneric(p, g, v, mu, wd, lr)
}
