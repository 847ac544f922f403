// Package tensor provides the flat-vector math kernels used throughout the
// Adasum reproduction: dot products and squared norms accumulated in
// float64 (the paper stresses this for fp16 stability, §4.4.1), scaled
// additions, and layer-structured views over flat parameter/gradient
// buffers.
//
// All kernels operate on []float32, the working precision of the simulated
// training stack. Reductions (Dot, Norm2, Sum, DotNorms) always accumulate
// in float64 regardless of input precision.
//
// The hot path of the Adasum combiner is DotNorms, which fuses the three
// reductions a·b, ‖a‖² and ‖b‖² into a single pass — the kernel fusion
// §4.4.2 of the paper credits for Adasum's production viability. On amd64
// with AVX and FMA it dispatches to a vectorized assembly kernel
// (dotnorms_amd64.s); everywhere else a manually unrolled pure-Go loop is
// used. Both accumulate in float64, where products of float32 inputs are
// exact, so the fused kernels differ from the unfused Dot/Norm2 pair only
// in the order partial sums are folded (see DESIGN.md).
//
// The rest of a rank's float32 arithmetic goes through the lane kernels
// (lanes.go): Axpy, Sub and ScaledCombine element-wise, DenseForward and
// DenseBackward (the fully connected layer; samples or outputs on the
// vector lanes forward, columns on register tiles backward), AdamUpdate
// and MomentumUpdate. Each is one AVX assembly body (lanes_amd64.s)
// beside one pure-Go twin that defines it; unlike DotNorms these are
// bit-exact — every lane performs the twin's operations in the twin's
// order with no FMA, or for Adam's quotient proves per lane that it
// rounds as the twin's does — so amd64, -tags noasm and GOARCH=386
// produce identical results (DESIGN.md, "Lane kernels").
package tensor

import (
	"fmt"
	"math"
)

// Dot returns the inner product of a and b accumulated in float64.
// It panics if the lengths differ.
//
//adasum:noalloc
func Dot(a, b []float32) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: Dot length mismatch %d != %d", len(a), len(b)))
	}
	var s0, s1, s2, s3 float64
	n := len(a)
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += float64(a[i]) * float64(b[i])
		s1 += float64(a[i+1]) * float64(b[i+1])
		s2 += float64(a[i+2]) * float64(b[i+2])
		s3 += float64(a[i+3]) * float64(b[i+3])
	}
	for ; i < n; i++ {
		s0 += float64(a[i]) * float64(b[i])
	}
	return s0 + s1 + s2 + s3
}

// Norm2 returns the squared Euclidean norm of a, accumulated in float64
// in the order of norm2Generic (a lane kernel: see lanes.go).
//
//adasum:noalloc
func Norm2(a []float32) float64 { return norm2(a) }

// norm2Generic is the pure-Go twin of norm2AVX and the definition of
// Norm2: four partial sums s0…s3 over the elements i%4 == 0…3 of the
// whole groups of four, the tail added to s0, the result
// ((s0+s1)+s2)+s3.
//
//adasum:noalloc
func norm2Generic(a []float32) float64 {
	var s0, s1, s2, s3 float64
	n := len(a)
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += float64(a[i]) * float64(a[i])
		s1 += float64(a[i+1]) * float64(a[i+1])
		s2 += float64(a[i+2]) * float64(a[i+2])
		s3 += float64(a[i+3]) * float64(a[i+3])
	}
	for ; i < n; i++ {
		s0 += float64(a[i]) * float64(a[i])
	}
	return s0 + s1 + s2 + s3
}

// Norm returns the Euclidean norm of a.
func Norm(a []float32) float64 { return math.Sqrt(Norm2(a)) }

// DotNorms returns a·b, ‖a‖² and ‖b‖² computed in a single pass over the
// inputs, each accumulated in float64. It replaces the separate
// Dot + Norm2 + Norm2 sequence on the Adasum hot path: one traversal
// loads and widens every element once instead of three times. It panics
// if the lengths differ.
//
//adasum:noalloc
func DotNorms(a, b []float32) (dot, na, nb float64) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: DotNorms length mismatch %d != %d", len(a), len(b)))
	}
	return dotNorms(a, b)
}

// dotNormsGeneric is the portable fused kernel: 4-wide unrolled with the
// same four-accumulator folding as Dot/Norm2, so its results are bitwise
// identical to the unfused pair.
//
//adasum:noalloc
func dotNormsGeneric(a, b []float32) (dot, na, nb float64) {
	var d0, d1, d2, d3 float64
	var x0, x1, x2, x3 float64
	var y0, y1, y2, y3 float64
	n := len(a)
	i := 0
	for ; i+4 <= n; i += 4 {
		a0, b0 := float64(a[i]), float64(b[i])
		a1, b1 := float64(a[i+1]), float64(b[i+1])
		a2, b2 := float64(a[i+2]), float64(b[i+2])
		a3, b3 := float64(a[i+3]), float64(b[i+3])
		d0 += a0 * b0
		d1 += a1 * b1
		d2 += a2 * b2
		d3 += a3 * b3
		x0 += a0 * a0
		x1 += a1 * a1
		x2 += a2 * a2
		x3 += a3 * a3
		y0 += b0 * b0
		y1 += b1 * b1
		y2 += b2 * b2
		y3 += b3 * b3
	}
	for ; i < n; i++ {
		av, bv := float64(a[i]), float64(b[i])
		d0 += av * bv
		x0 += av * av
		y0 += bv * bv
	}
	return d0 + d1 + d2 + d3, x0 + x1 + x2 + x3, y0 + y1 + y2 + y3
}

// Axpy computes y += alpha*x in place. It panics on length mismatch.
// x and y must not overlap (no caller passes overlapping slices).
//
//adasum:noalloc
func Axpy(alpha float32, x, y []float32) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("tensor: Axpy length mismatch %d != %d", len(x), len(y)))
	}
	axpy(alpha, x, y)
}

// axpyGeneric is the pure-Go twin of axpyAVX and the definition of Axpy.
//
//adasum:noalloc
func axpyGeneric(alpha float32, x, y []float32) {
	n := len(x)
	i := 0
	for ; i+4 <= n; i += 4 {
		y[i] += alpha * x[i]
		y[i+1] += alpha * x[i+1]
		y[i+2] += alpha * x[i+2]
		y[i+3] += alpha * x[i+3]
	}
	for ; i < n; i++ {
		y[i] += alpha * x[i]
	}
}

// Scale computes x *= alpha in place.
//
//adasum:noalloc
func Scale(alpha float32, x []float32) {
	n := len(x)
	i := 0
	for ; i+4 <= n; i += 4 {
		x[i] *= alpha
		x[i+1] *= alpha
		x[i+2] *= alpha
		x[i+3] *= alpha
	}
	for ; i < n; i++ {
		x[i] *= alpha
	}
}

// Sub computes dst[i] = a[i] - b[i]. dst may be a or b themselves;
// partially overlapping slices are not supported (no caller passes
// them).
//
//adasum:noalloc
func Sub(dst, a, b []float32) {
	if len(a) != len(b) || len(dst) != len(a) {
		panic("tensor: Sub length mismatch")
	}
	sub(dst, a, b)
}

// subGeneric is the pure-Go twin of subAVX and the definition of Sub.
//
//adasum:noalloc
func subGeneric(dst, a, b []float32) {
	for i := range dst {
		dst[i] = a[i] - b[i]
	}
}

// ScaledCombine computes dst[i] = ca*a[i] + cb*b[i]. This is the inner
// kernel of the Adasum combiner (line 18 of Algorithm 1). dst may be a
// or b themselves; partially overlapping slices are not supported (no
// caller passes them).
//
//adasum:noalloc
func ScaledCombine(dst []float32, ca float32, a []float32, cb float32, b []float32) {
	if len(a) != len(b) || len(dst) != len(a) {
		panic("tensor: ScaledCombine length mismatch")
	}
	scaledCombine(dst, ca, a, cb, b)
}

// scaledCombineGeneric is the pure-Go twin of scaledCombineAVX and the
// definition of ScaledCombine.
//
//adasum:noalloc
func scaledCombineGeneric(dst []float32, ca float32, a []float32, cb float32, b []float32) {
	n := len(dst)
	i := 0
	for ; i+4 <= n; i += 4 {
		dst[i] = ca*a[i] + cb*b[i]
		dst[i+1] = ca*a[i+1] + cb*b[i+1]
		dst[i+2] = ca*a[i+2] + cb*b[i+2]
		dst[i+3] = ca*a[i+3] + cb*b[i+3]
	}
	for ; i < n; i++ {
		dst[i] = ca*a[i] + cb*b[i]
	}
}

// Zero sets every element of x to 0.
func Zero(x []float32) {
	for i := range x {
		x[i] = 0
	}
}

// Clone returns a freshly allocated copy of x.
func Clone(x []float32) []float32 {
	c := make([]float32, len(x))
	copy(c, x)
	return c
}

// HasNaNOrInf reports whether x contains a NaN or an infinity.
func HasNaNOrInf(x []float32) bool {
	for _, v := range x {
		f := float64(v)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return true
		}
	}
	return false
}

// Equal reports whether a and b are elementwise equal within tol.
func Equal(a, b []float32, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(float64(a[i])-float64(b[i])) > tol {
			return false
		}
	}
	return true
}

// RelErr returns ||a-b|| / max(||b||, eps), a scale-free distance used by
// the Figure 2 emulation-error experiment.
func RelErr(a, b []float32) float64 {
	if len(a) != len(b) {
		panic("tensor: RelErr length mismatch")
	}
	var num, den float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		num += d * d
		den += float64(b[i]) * float64(b[i])
	}
	if den < 1e-300 {
		den = 1e-300
	}
	return math.Sqrt(num / den)
}
