package tensor

import (
	"fmt"
	"math"
)

// The lane kernels: the per-rank float32 arithmetic of a training step —
// the element-wise Axpy/Sub/ScaledCombine family (tensor.go), the Dense
// forward pass, and the Adam and Momentum updates — each as one AVX
// assembly body (lanes_amd64.s) beside one pure-Go twin. The twin is the
// definition: every vector lane executes exactly the twin's operations
// in the twin's order, each product, sum, quotient, square root and
// conversion rounded on its own (no FMA, no reassociation, no
// reciprocal), so the asm, the twin and the 386 build agree bit for bit
// on every input (NaN payloads excepted; the outputs-on-lanes forward
// pass keeps those too). See DESIGN.md, "Lane kernels".
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
