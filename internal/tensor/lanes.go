package tensor

import (
	"fmt"
	"math"
)

// The lane kernels: the per-rank float32 arithmetic of a training step —
// the element-wise Axpy/Sub/ScaledCombine family and the Norm2 reduction
// (tensor.go), the Dense forward and backward passes, and the Adam and
// Momentum updates — each as one AVX assembly body (lanes_amd64.s)
// beside one pure-Go twin. The twin is the definition: every vector lane
// executes exactly the twin's operations in the twin's order, each
// product, sum, quotient, square root and conversion rounded on its own
// (no FMA, no reassociation, no reciprocal), so the asm, the twin and
// the 386 build agree bit for bit on every input (NaN payloads excepted;
// the outputs-on-lanes forward pass keeps those too). The one exception
// is Adam's quotient, which the kernel reassociates and then proves,
// lane by lane, rounds to the twin's float32 — recomputing it the twin's
// way where it cannot. See DESIGN.md, "Lane kernels".
//
// Assembly takes raw pointers, so memory safety lives here and in the
// dispatchers of lanes_amd64.go, not in the callers: the exported
// functions check every slice length and panic where the scalar loop
// would have; the dispatchers hand the assembly a positive multiple of
// the lane width and leave the tail to the twin.

// DenseForward computes the fully connected layer y = x·wᵀ (+ b) for a
// batch of row-major samples: y[s*out+o] = Σᵢ w[o*in+i]·x[s*in+i] + b[o],
// each output accumulated in float32 in the fixed order of
// denseForwardGeneric. b is empty for a layer without bias. scratch is
// working memory for the samples-on-lanes vector path —
// DenseScratchLen(in, out) floats, contents irrelevant before and
// undefined after; with a shorter scratch (nil included) the batches
// that path would take run on the scalar path. y must not overlap any
// input.
//
//adasum:noalloc
func DenseForward(y, x, w, b []float32, batch, in, out int, scratch []float32) {
	if batch < 0 || in <= 0 || out <= 0 ||
		len(x) != batch*in || len(y) != batch*out || len(w) != in*out ||
		(len(b) != 0 && len(b) != out) {
		panic(fmt.Sprintf("tensor: DenseForward size mismatch: batch %d in %d out %d with len(x) %d len(y) %d len(w) %d len(b) %d",
			batch, in, out, len(x), len(y), len(w), len(b)))
	}
	denseForward(y, x, w, b, batch, in, out, scratch)
}

// denseForwardGeneric is the pure-Go twin of both vector paths (samples
// on the lanes, outputs on the lanes) and the definition of
// DenseForward. Per output the order is: groups of four products summed
// left to right and added to the accumulator, then the in%4 tail one
// product at a time, then the bias.
//
//adasum:noalloc
func denseForwardGeneric(y, x, w, b []float32, batch, in, out int) {
	for s := 0; s < batch; s++ {
		xi := x[s*in : (s+1)*in]
		yi := y[s*out : (s+1)*out]
		for o := range yi {
			row := w[o*in : (o+1)*in]
			var acc float32
			i := 0
			for ; i+4 <= in; i += 4 {
				acc += row[i]*xi[i] + row[i+1]*xi[i+1] + row[i+2]*xi[i+2] + row[i+3]*xi[i+3]
			}
			for ; i < in; i++ {
				acc += row[i] * xi[i]
			}
			if len(b) != 0 {
				acc += b[o]
			}
			yi[o] = acc
		}
	}
}

// DenseBackward is the backward pass of DenseForward's layer for a batch
// of row-major samples, given the upstream gradient dy (batch×out) and
// the forward input x (batch×in). For every (sample s, output o) whose
// g = dy[s*out+o] is non-zero it adds g·x[s] to gw[o], g to gb[o] and
// g·w[o] to dx[s]: each element of gw and gb receives its terms over
// ascending s, each element of dx over ascending o, one float32 product
// and one sum at a time. With add the terms go onto what gw and gb
// hold; without it gw and gb start from +0, exactly as if cleared
// first. dx always starts from +0; a nil dx skips it (for a layer whose
// input gradient nothing reads). No output may overlap another operand.
//
//adasum:noalloc
func DenseBackward(dx, gw, gb, dy, x, w []float32, batch, in, out int, add bool) {
	if batch < 0 || in <= 0 || out <= 0 ||
		len(dy) != batch*out || len(x) != batch*in || len(w) != in*out ||
		len(gw) != in*out || len(gb) != out || (dx != nil && len(dx) != batch*in) {
		panic(fmt.Sprintf("tensor: DenseBackward size mismatch: batch %d in %d out %d with len(dx) %d len(gw) %d len(gb) %d len(dy) %d len(x) %d len(w) %d",
			batch, in, out, len(dx), len(gw), len(gb), len(dy), len(x), len(w)))
	}
	denseBackward(dx, gw, gb, dy, x, w, batch, in, out, add)
}

// denseBackwardGeneric is the pure-Go twin of the register-tile path and
// the definition of DenseBackward: gw row by row (outputs outermost),
// then gb, then dx row by row (samples outermost).
//
//adasum:noalloc
func denseBackwardGeneric(dx, gw, gb, dy, x, w []float32, batch, in, out int, add bool) {
	backwardRows(gw, dy, x, out, batch, 1, out, in, 0, add)
	biasGrad(gb, dy, batch, out, add)
	if dx != nil {
		backwardRows(dx, dy, w, batch, out, out, 1, in, 0, false)
	}
}

// backwardRows is both halves of DenseBackward's matrix work, over
// columns lo..width-1: for each of the outer rows a of dst (width floats
// each), dst[a] = (add ? dst[a] : +0) + Σ_b g[a*ga+b*gb]·src[b] over
// ascending b < inner, skipping every term whose g is zero. gw is
// (outer, inner, ga, gb) = (out, batch, 1, out) with src = x; dx is
// (batch, out, out, 1) with src = w.
//
//adasum:noalloc
func backwardRows(dst, g, src []float32, outer, inner, ga, gb, width, lo int, add bool) {
	for a := 0; a < outer; a++ {
		row := dst[a*width+lo : (a+1)*width]
		if !add {
			clear(row)
		}
		for b := 0; b < inner; b++ {
			gv := g[a*ga+b*gb]
			if gv == 0 {
				continue
			}
			for i, s := range src[b*width+lo : (b+1)*width] {
				row[i] += gv * s
			}
		}
	}
}

// biasGrad adds each column of dy over ascending samples into gb (onto
// +0 without add), skipping zeros like the weight terms.
//
//adasum:noalloc
func biasGrad(gb, dy []float32, batch, out int, add bool) {
	for o := range gb {
		var acc float32
		if add {
			acc = gb[o]
		}
		for s := 0; s < batch; s++ {
			if g := dy[s*out+o]; g != 0 {
				acc += g
			}
		}
		gb[o] = acc
	}
}

// AdamCoef carries the per-step scalars of an Adam update, already
// rounded to the precision the update uses them at. The assembly reads
// the fields by offset: keep lanes_amd64.s in step with any change.
type AdamCoef struct {
	LR  float64 // learning rate
	BC1 float64 // 1 - β1^t
	BC2 float64 // 1 - β2^t
	Eps float64
	B1  float32 // β1
	C1  float32 // 1 - β1
	B2  float32 // β2
	C2  float32 // 1 - β2
	WD  float32 // decoupled weight decay times the learning rate
}

// AdamUpdate applies one bias-corrected Adam step to p from the gradient
// g, updating the moments m and v in place. It panics unless all four
// slices have the same length; they must not overlap.
//
//adasum:noalloc
func AdamUpdate(p, g, m, v []float32, c AdamCoef) {
	if len(g) != len(p) || len(m) != len(p) || len(v) != len(p) {
		panic(fmt.Sprintf("tensor: AdamUpdate length mismatch: params %d grads %d m %d v %d", len(p), len(g), len(m), len(v)))
	}
	adamUpdate(p, g, m, v, &c)
}

// adamGeneric is the pure-Go twin of adamAVX and the definition of
// AdamUpdate: the moments in float32, the bias-corrected quotient in
// float64, one rounding back to float32, and the decay term added to the
// update before the subtraction (with WD = 0 the ±0 is still added).
// adamAVX reaches the same float32 quotient through a one-divide form,
// a rounding test and this sequence as its fallback.
//
//adasum:noalloc
func adamGeneric(p, g, m, v []float32, c *AdamCoef) {
	for i, gi := range g {
		m[i] = c.B1*m[i] + c.C1*gi
		v[i] = c.B2*v[i] + c.C2*gi*gi
		mhat := float64(m[i]) / c.BC1
		vhat := float64(v[i]) / c.BC2
		p[i] -= float32(c.LR*mhat/(math.Sqrt(vhat)+c.Eps)) + c.WD*p[i]
	}
}

// MomentumUpdate applies one heavy-ball step with coupled weight decay:
// v = mu*v + (g + wd*p), p -= lr*v. g is not modified. It panics unless
// all three slices have the same length; they must not overlap.
//
//adasum:noalloc
func MomentumUpdate(p, g, v []float32, mu, wd, lr float32) {
	if len(g) != len(p) || len(v) != len(p) {
		panic(fmt.Sprintf("tensor: MomentumUpdate length mismatch: params %d grads %d v %d", len(p), len(g), len(v)))
	}
	momentumUpdate(p, g, v, mu, wd, lr)
}

// momentumGeneric is the pure-Go twin of momentumAVX and the definition
// of MomentumUpdate.
//
//adasum:noalloc
func momentumGeneric(p, g, v []float32, mu, wd, lr float32) {
	for i, gi := range g {
		gi += wd * p[i]
		v[i] = mu*v[i] + gi
		p[i] -= lr * v[i]
	}
}
