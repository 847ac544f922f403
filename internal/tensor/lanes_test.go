package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The differential tests compare every lane kernel, as dispatched by its
// exported wrapper, with its pure-Go twin bit for bit. On amd64 that is
// asm against Go; under -tags noasm and on GOARCH=386 the wrapper is the
// twin and the tests still run, so all three builds execute the same
// assertions on the same inputs.

// sameF32 is bit equality, except that any NaN equals any NaN: which
// operand's payload survives a NaN+NaN depends on instruction operand
// order, which no compiler fixes for a twin: the race detector's and the
// fuzzer's instrumentation both reorder denseForwardGeneric's. Where a
// kernel's own operand order is pinned, it is pinned against a model
// that spells the order out (denseForwardOrdered).
func sameF32(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

func diffAt(got, want []float32) int {
	for i := range want {
		if !sameF32(got[i], want[i]) {
			return i
		}
	}
	return -1
}

func expectSame(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if i := diffAt(got, want); i >= 0 {
		t.Fatalf("%s: element %d of %d: kernel %v (%#08x), twin %v (%#08x)", what, i, len(want),
			got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
	}
}

// expectBits is expectSame without the NaN exception: every element the
// same 32 bits, NaN payloads and signs included.
func expectBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d of %d: kernel %v (%#08x), want %v (%#08x)", what, i, len(want),
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

var laneKinds = []string{"gaussian", "relu-sparse", "tiny", "huge", "specials"}

// laneVec draws n values of the given kind at slice offset off of a
// larger array, so that the data start at every 4-byte misalignment of a
// 32-byte vector as off runs over 0..7.
func laneVec(rng *rand.Rand, n, off int, kind string) []float32 {
	v := make([]float32, off+n+8)[off : off+n : off+n]
	specials := []float32{
		0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, math.MaxFloat32, -math.MaxFloat32, 1e-21, -1e-21,
	}
	for i := range v {
		g := float32(rng.NormFloat64())
		switch kind {
		case "relu-sparse":
			if g < 0 {
				g = 0
			}
		case "tiny": // squares and products land in the denormals
			g *= 1e-21
		case "huge": // squares overflow
			g *= 1e18
		case "specials":
			if rng.Intn(3) == 0 {
				g = specials[rng.Intn(len(specials))]
			}
		}
		v[i] = g
	}
	return v
}

func cloneAt(v []float32, off int) []float32 {
	c := make([]float32, off+len(v)+8)[off : off+len(v) : off+len(v)]
	copy(c, v)
	return c
}

// aliasOperands returns fresh copies of a and b at slice offset off and
// a destination for them: a separate slice, a itself or b itself.
func aliasOperands(a, b []float32, off int, alias string) (dst, ca, cb []float32) {
	ca, cb = cloneAt(a, off), cloneAt(b, off)
	switch alias {
	case "dst=a":
		return ca, ca, cb
	case "dst=b":
		return cb, ca, cb
	}
	return make([]float32, len(a)), ca, cb
}

// checkElementwise runs Axpy, Sub and ScaledCombine — the latter two in
// each documented aliasing form — and Norm2 against their twins.
func checkElementwise(t *testing.T, x, y []float32, alpha, beta float32, off int) {
	t.Helper()
	for _, v := range [][]float32{x, y} {
		got, want := Norm2(v), norm2Generic(v)
		if math.Float64bits(got) != math.Float64bits(want) && !(got != got && want != want) {
			t.Fatalf("Norm2 of %d values at offset %d: kernel %v (%#016x), twin %v (%#016x)",
				len(v), off, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	got, want := cloneAt(y, off), cloneAt(y, off)
	Axpy(alpha, x, got)
	axpyGeneric(alpha, x, want)
	expectSame(t, "Axpy", got, want)

	for _, alias := range []string{"none", "dst=a", "dst=b"} {
		gd, ga, gb := aliasOperands(x, y, off, alias)
		wd, wa, wb := aliasOperands(x, y, off, alias)
		Sub(gd, ga, gb)
		subGeneric(wd, wa, wb)
		expectSame(t, "Sub "+alias, gd, wd)

		gd, ga, gb = aliasOperands(x, y, off, alias)
		wd, wa, wb = aliasOperands(x, y, off, alias)
		ScaledCombine(gd, alpha, ga, beta, gb)
		scaledCombineGeneric(wd, alpha, wa, beta, wb)
		expectSame(t, "ScaledCombine "+alias, gd, wd)
	}
}

// adamCoefAt is what optim.Adam passes at step t.
func adamCoefAt(t int, lr, wd float64) AdamCoef {
	const b1, b2 = 0.9, 0.999
	return AdamCoef{
		LR: lr, BC1: 1 - math.Pow(b1, float64(t)), BC2: 1 - math.Pow(b2, float64(t)), Eps: 1e-8,
		B1: float32(b1), C1: float32(1 - b1), B2: float32(b2), C2: float32(1 - b2), WD: float32(wd * lr),
	}
}

// checkUpdates runs AdamUpdate and MomentumUpdate for steps consecutive
// steps from the given state against their twins, with and without
// weight decay, comparing parameters and state after every step. grad(s)
// supplies the gradient of step s.
func checkUpdates(t *testing.T, p, m, v []float32, grad func(step int) []float32, steps, off int) {
	t.Helper()
	for _, wd := range []float64{0, 0.01} {
		gp, gm, gv := cloneAt(p, off), cloneAt(m, off), cloneAt(v, off)
		wp, wm, wv := cloneAt(p, off), cloneAt(m, off), cloneAt(v, off)
		for s := 1; s <= steps; s++ {
			g := grad(s)
			c := adamCoefAt(s, 1e-3, wd)
			AdamUpdate(gp, g, gm, gv, c)
			adamGeneric(wp, g, wm, wv, &c)
			what := fmt.Sprintf("AdamUpdate wd=%g step %d", wd, s)
			expectSame(t, what+" m", gm, wm)
			expectSame(t, what+" v", gv, wv)
			expectSame(t, what+" params", gp, wp)
		}

		gp, gv = cloneAt(p, off), cloneAt(m, off)
		wp, wv = cloneAt(p, off), cloneAt(m, off)
		for s := 1; s <= steps; s++ {
			g := grad(s)
			MomentumUpdate(gp, g, gv, 0.9, float32(wd), 2e-3)
			momentumGeneric(wp, g, wv, 0.9, float32(wd), 2e-3)
			what := fmt.Sprintf("MomentumUpdate wd=%g step %d", wd, s)
			expectSame(t, what+" v", gv, wv)
			expectSame(t, what+" params", gp, wp)
		}
	}
}

// denseRowsUnderTest is the outputs-on-lanes path called directly, where
// the build has one (lanes_amd64_test.go sets it): the sweeps then reach
// the kernel at every batch whatever DenseForward's dispatch
// constants say. It wants out >= 8.
var denseRowsUnderTest func(y, x, w, b []float32, batch, in, out int)

// mulOrdered and addOrdered are one x86 scalar or vector float32
// instruction with first source a and second source b: a NaN first
// source is the result (quieted), else a NaN second source, else the
// arithmetic — whose own NaNs (Inf*0, Inf-Inf) are the same default NaN
// whichever way round the operands are.
func mulOrdered(a, b float32) float32 { return nanFirst(a, b, a*b) }
func addOrdered(a, b float32) float32 { return nanFirst(a, b, a+b) }

func nanFirst(a, b, r float32) float32 {
	const quiet = 1 << 22
	switch {
	case a != a:
		return math.Float32frombits(math.Float32bits(a) | quiet)
	case b != b:
		return math.Float32frombits(math.Float32bits(b) | quiet)
	}
	return r
}

// denseForwardOrdered is denseForwardGeneric with the operand order of
// every instruction written out — the order go1.24's compiler gives the
// twin's MULSS/ADDSS in a plain amd64 build (TestDenseTwinOperandOrder),
// and the order denseRowsAVX's VMULPS/VADDPS take. It differs from the
// twin only in which payload a NaN result carries.
func denseForwardOrdered(y, x, w, b []float32, batch, in, out int) {
	for s := 0; s < batch; s++ {
		xi := x[s*in : (s+1)*in]
		for o := 0; o < out; o++ {
			row := w[o*in : (o+1)*in]
			var acc float32
			i := 0
			for ; i+4 <= in; i += 4 {
				sum := addOrdered(mulOrdered(row[i+1], xi[i+1]), mulOrdered(row[i], xi[i]))
				sum = addOrdered(mulOrdered(row[i+2], xi[i+2]), sum)
				sum = addOrdered(mulOrdered(row[i+3], xi[i+3]), sum)
				acc = addOrdered(acc, sum)
			}
			for ; i < in; i++ {
				acc = addOrdered(acc, mulOrdered(xi[i], row[i]))
			}
			if len(b) != 0 {
				acc = addOrdered(acc, b[o])
			}
			y[s*out+o] = acc
		}
	}
}

// guardWord is the bit pattern checkDense plants around y: a signalling
// NaN no kernel produces.
const guardWord = 0x7fa5a5a5

// guarded returns n floats at slice offset off with eight guard words
// on either side, and the whole array for checkGuards.
func guarded(n, off int) (v, whole []float32) {
	whole = make([]float32, off+8+n+8)
	for i := range whole {
		whole[i] = math.Float32frombits(guardWord)
	}
	return whole[off+8 : off+8+n : off+8+n], whole
}

func checkGuards(t *testing.T, what string, whole []float32, off, n int) {
	t.Helper()
	for i, v := range whole {
		if (i < off+8 || i >= off+8+n) && math.Float32bits(v) != guardWord {
			t.Fatalf("%s: wrote outside y, at %d relative to y[0] (y has %d elements)", what, i-off-8, n)
		}
	}
}

// checkDense runs DenseForward (a full scratch, so whichever path the
// dispatch picks) against its twin, with and without the bias, y at
// slice offset off between guard words; and the outputs-on-lanes path
// directly, its whole blocks of eight rows against denseForwardOrdered,
// NaN payloads included (the out%8 rows left over are the twin's).
func checkDense(t *testing.T, x, w, b []float32, batch, in, out, off int) {
	t.Helper()
	scratch := make([]float32, DenseScratchLen(in, out))
	want, ordered := make([]float32, batch*out), make([]float32, batch*out)
	for _, bias := range [][]float32{nil, b} {
		what := fmt.Sprintf("DenseForward batch=%d in=%d out=%d bias=%v off=%d", batch, in, out, bias != nil, off)
		denseForwardGeneric(want, x, w, bias, batch, in, out)
		got, whole := guarded(batch*out, off)
		DenseForward(got, x, w, bias, batch, in, out, scratch)
		expectSame(t, what, got, want)
		checkGuards(t, what, whole, off, batch*out)

		if denseRowsUnderTest != nil && out >= 8 {
			what += " rows path"
			got, whole = guarded(batch*out, off)
			denseRowsUnderTest(got, x, w, bias, batch, in, out)
			expectSame(t, what, got, want)
			checkGuards(t, what, whole, off, batch*out)
			denseForwardOrdered(ordered, x, w, bias, batch, in, out)
			for s := 0; s < batch; s++ {
				expectBits(t, what, got[s*out:s*out+out&^7], ordered[s*out:s*out+out&^7])
			}
		}
	}
}

// checkDenseBackward runs DenseBackward against its twin in both forms
// — adding to gw and gb, and writing them over the garbage gw0 and gb0
// hold — with dx and with dx skipped, gw and dx at slice offset off
// between guard words (dx starts as guard words too: it must be written,
// never read).
func checkDenseBackward(t *testing.T, dy, x, w, gw0, gb0 []float32, batch, in, out, off int) {
	t.Helper()
	for _, add := range []bool{true, false} {
		for _, withDX := range []bool{true, false} {
			what := fmt.Sprintf("DenseBackward batch=%d in=%d out=%d add=%v dx=%v off=%d", batch, in, out, add, withDX, off)
			wantGW, wantGB := cloneAt(gw0, off), cloneAt(gb0, off)
			var wantDX, dx, dxWhole []float32
			if withDX {
				wantDX = make([]float32, batch*in)
				dx, dxWhole = guarded(batch*in, off)
			}
			denseBackwardGeneric(wantDX, wantGW, wantGB, dy, x, w, batch, in, out, add)
			gw, gwWhole := guarded(in*out, off)
			copy(gw, gw0)
			gb := cloneAt(gb0, off)
			DenseBackward(dx, gw, gb, dy, x, w, batch, in, out, add)
			expectSame(t, what+" gw", gw, wantGW)
			expectSame(t, what+" gb", gb, wantGB)
			checkGuards(t, what+" gw", gwWhole, off, in*out)
			if withDX {
				expectSame(t, what+" dx", dx, wantDX)
				checkGuards(t, what+" dx", dxWhole, off, batch*in)
			}
		}
	}
}

func laneLengths() []int {
	var ns []int
	for n := 0; n <= 67; n++ {
		ns = append(ns, n)
	}
	return append(ns, 1023, 4097, 100003)
}

func TestLaneKernelsMatchTwins(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, kind := range laneKinds {
		for _, n := range laneLengths() {
			offs := 8
			if n > 5000 {
				offs = 2
			}
			for off := 0; off < offs; off++ {
				x, y := laneVec(rng, n, off, kind), laneVec(rng, n, off, kind)
				alpha, beta := float32(rng.NormFloat64()), float32(rng.NormFloat64())
				checkElementwise(t, x, y, alpha, beta, off)

				// From the zero state at t = 1, as a fresh optimizer
				// steps, with a new gradient every step.
				zero := make([]float32, n)
				grads := [][]float32{laneVec(rng, n, off, kind), laneVec(rng, n, off, kind), laneVec(rng, n, off, kind), laneVec(rng, n, off, "gaussian")}
				checkUpdates(t, x, zero, zero, func(s int) []float32 { return grads[s-1] }, len(grads), off)
			}
		}
	}
	// Dense backward: every tile width (64, 32 and 8 columns) alone and
	// together, ragged in, the batches around a tile of samples, upstream
	// gradients of every kind (±0 skipped, NaN, ±Inf and denormals not).
	for _, kind := range laneKinds {
		for _, batch := range []int{0, 1, 2, 7, 16, 17} {
			for _, in := range []int{1, 5, 8, 13, 32, 45, 64, 71, 100, 128, 133, 200} {
				for _, out := range []int{1, 3, 16} {
					off := rng.Intn(8)
					dy, x := laneVec(rng, batch*out, off, kind), laneVec(rng, batch*in, off, kind)
					w := laneVec(rng, in*out, off, "gaussian")
					checkDenseBackward(t, dy, x, w, laneVec(rng, in*out, 0, kind), laneVec(rng, out, 0, kind), batch, in, out, off)
				}
			}
		}
	}
}

func TestDenseForwardMatchesTwin(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, kind := range laneKinds {
		for _, batch := range []int{1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33, 256} {
			for _, in := range []int{1, 3, 4, 5, 48, 128, 256} {
				for _, out := range []int{1, 3, 16} {
					off := rng.Intn(8)
					x := laneVec(rng, batch*in, off, kind)
					w := laneVec(rng, in*out, rng.Intn(8), "gaussian")
					b := laneVec(rng, out, rng.Intn(8), "gaussian")
					checkDense(t, x, w, b, batch, in, out, off)
				}
			}
		}
	}
	// The batches of the outputs-on-lanes path: every in%4 and out%8,
	// weights and bias of the same kind as the input (so that NaNs and
	// infinities meet on both sides of a product), every operand at
	// every 4-byte misalignment of a vector.
	for _, kind := range laneKinds {
		for _, batch := range []int{1, 2, 3, 4} {
			for _, in := range []int{1, 3, 4, 5, 7, 8, 12, 48, 192, 256} {
				for _, out := range []int{1, 7, 8, 9, 15, 16, 17, 24, 192} {
					x, w, b := laneVec(rng, batch*in, 0, kind), laneVec(rng, in*out, 0, kind), laneVec(rng, out, 0, kind)
					for off := 0; off < 8; off++ {
						checkDense(t, cloneAt(x, off), cloneAt(w, off), cloneAt(b, off), batch, in, out, off)
					}
				}
			}
		}
	}
}

// nanPayloads are NaNs no two of which share a bit pattern: quiet and
// signalling, both signs, and the one x86 generates (0xffc00000). An
// operation on two of them returns its first source operand (quieted),
// so the result tells the operand order of the instruction that made it.
var nanPayloads = []uint32{
	0x7fc00000, 0xffc00000, 0x7fc00001, 0xffc12345, 0x7fffffff, 0xffffffff,
	0x7f800001, 0xff800001, 0x7fa00000, 0xffbfffff, 0x7f812345,
}

// nanVec is laneVec's "specials" with every other element replaced by
// one of nanPayloads.
func nanVec(rng *rand.Rand, n, off int) []float32 {
	v := laneVec(rng, n, off, "specials")
	for i := range v {
		if rng.Intn(2) == 0 {
			v[i] = math.Float32frombits(nanPayloads[rng.Intn(len(nanPayloads))])
		}
	}
	return v
}

// The outputs-on-lanes path must leave the NaN the twin leaves, payload
// and sign: its VMULPS/VADDPS take their operands in the order of the
// twin's MULSS/ADDSS (w*x in the groups, p1+p0, p2+(..), p3+(..),
// acc+(..); x*w in the tail; acc+b), which denseForwardOrdered spells
// out and checkDense compares with bit for bit. Inputs here are mostly
// NaNs of distinct payloads, with infinities and zeros to generate the
// default NaN mid-sum, in x, w and b alike.
func TestDenseRowsNaNPayloads(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for _, in := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 16, 19} {
		for _, out := range []int{8, 9, 16, 23} {
			for trial := 0; trial < 40; trial++ {
				batch, off := 1+trial%4, trial%8
				checkDense(t, nanVec(rng, batch*in, off), nanVec(rng, in*out, off), nanVec(rng, out, off), batch, in, out, off)
			}
		}
	}
	// One NaN at a time in an otherwise finite layer: each position of a
	// group, the tail and the bias, against a NaN accumulator.
	const in, out = 11, 8
	for pos := 0; pos < in+1; pos++ {
		for _, first := range nanPayloads[:4] {
			x, w, b := laneVec(rng, in, 0, "gaussian"), laneVec(rng, in*out, 0, "gaussian"), laneVec(rng, out, 0, "gaussian")
			x[0] = math.Float32frombits(first) // the accumulator is a NaN from the first group on
			for o := 0; o < out; o++ {
				if pos < in {
					w[o*in+pos] = math.Float32frombits(nanPayloads[4+o%4])
				} else {
					b[o] = math.Float32frombits(nanPayloads[4+o%4])
				}
			}
			checkDense(t, x, w, b, 1, in, out, 0)
		}
	}
}

// A scratch too short for the tile (nil included) must select the scalar
// path, not fault.
func TestDenseForwardShortScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	const batch, in, out = 16, 12, 5
	x, w, b := laneVec(rng, batch*in, 0, "gaussian"), laneVec(rng, in*out, 0, "gaussian"), laneVec(rng, out, 0, "gaussian")
	want := make([]float32, batch*out)
	denseForwardGeneric(want, x, w, b, batch, in, out)
	for _, n := range []int{0, 1, DenseScratchLen(in, out) - 1} {
		if n < 0 {
			continue
		}
		got := make([]float32, batch*out)
		DenseForward(got, x, w, b, batch, in, out, make([]float32, n))
		expectSame(t, fmt.Sprintf("scratch of %d", n), got, want)
	}
}

// Every wrapper must panic on inconsistent lengths — in Go, before any
// pointer reaches the assembly. A kernel reached with a short slice
// would fault or corrupt the heap instead of panicking.
func TestLaneKernelsLengthMismatchPanics(t *testing.T) {
	f := func(n int) []float32 { return make([]float32, n) }
	var c AdamCoef
	for name, call := range map[string]func(){
		"Axpy short x":                       func() { Axpy(1, f(63), f(64)) },
		"Axpy short y":                       func() { Axpy(1, f(64), f(63)) },
		"Sub short dst":                      func() { Sub(f(8), f(64), f(64)) },
		"Sub short a":                        func() { Sub(f(64), f(8), f(64)) },
		"Sub short b":                        func() { Sub(f(64), f(64), f(8)) },
		"ScaledCombine short dst":            func() { ScaledCombine(f(8), 1, f(64), 1, f(64)) },
		"ScaledCombine short a":              func() { ScaledCombine(f(64), 1, f(8), 1, f(64)) },
		"ScaledCombine short b":              func() { ScaledCombine(f(64), 1, f(64), 1, f(8)) },
		"AdamUpdate short grads":             func() { AdamUpdate(f(64), f(8), f(64), f(64), c) },
		"AdamUpdate short m":                 func() { AdamUpdate(f(64), f(64), f(8), f(64), c) },
		"AdamUpdate nil v":                   func() { AdamUpdate(f(64), f(64), f(64), nil, c) },
		"AdamUpdate long v":                  func() { AdamUpdate(f(64), f(64), f(64), f(65), c) },
		"AdamUpdate short params":            func() { AdamUpdate(f(8), f(64), f(64), f(64), c) },
		"MomentumUpdate short g":             func() { MomentumUpdate(f(64), f(8), f(64), 0.9, 0, 1) },
		"MomentumUpdate short v":             func() { MomentumUpdate(f(64), f(64), f(8), 0.9, 0, 1) },
		"MomentumUpdate short p":             func() { MomentumUpdate(f(8), f(64), f(64), 0.9, 0, 1) },
		"DenseForward short x":               func() { DenseForward(f(16*4), f(16*8-1), f(8*4), f(4), 16, 8, 4, f(DenseScratchLen(8, 4))) },
		"DenseForward short y":               func() { DenseForward(f(16*4-1), f(16*8), f(8*4), f(4), 16, 8, 4, f(DenseScratchLen(8, 4))) },
		"DenseForward short w":               func() { DenseForward(f(16*4), f(16*8), f(8*4-1), f(4), 16, 8, 4, f(DenseScratchLen(8, 4))) },
		"DenseForward short b":               func() { DenseForward(f(16*4), f(16*8), f(8*4), f(3), 16, 8, 4, f(DenseScratchLen(8, 4))) },
		"DenseForward batch 1 short x":       func() { DenseForward(f(16), f(7), f(8*16), f(16), 1, 8, 16, nil) },
		"DenseForward batch 1 short y":       func() { DenseForward(f(15), f(8), f(8*16), f(16), 1, 8, 16, nil) },
		"DenseForward batch 1 long y":        func() { DenseForward(f(24), f(8), f(8*16), f(16), 1, 8, 16, nil) },
		"DenseForward batch 1 short w":       func() { DenseForward(f(16), f(8), f(8*16-1), f(16), 1, 8, 16, nil) },
		"DenseForward batch 1 w a row short": func() { DenseForward(f(16), f(8), f(8*15), f(16), 1, 8, 16, nil) },
		"DenseForward batch 1 short b":       func() { DenseForward(f(16), f(8), f(8*16), f(15), 1, 8, 16, nil) },
		"DenseForward batch 3 short x":       func() { DenseForward(f(3*16), f(3*8-1), f(8*16), nil, 3, 8, 16, nil) },
		"DenseForward batch 1 zero out":      func() { DenseForward(nil, f(8), nil, nil, 1, 8, 0, nil) },
		"DenseForward zero in":               func() { DenseForward(f(16*4), nil, nil, f(4), 16, 0, 4, f(64)) },
		"DenseForward negative in":           func() { DenseForward(f(16), f(16), f(16), nil, -4, -4, -4, f(64)) },
		"DenseBackward short dy":             func() { DenseBackward(f(4*8), f(8*4), f(4), f(4*4-1), f(4*8), f(8*4), 4, 8, 4, true) },
		"DenseBackward long dy":              func() { DenseBackward(f(4*8), f(8*4), f(4), f(4*4+1), f(4*8), f(8*4), 4, 8, 4, true) },
		"DenseBackward short x":              func() { DenseBackward(f(4*8), f(8*4), f(4), f(4*4), f(4*8-1), f(8*4), 4, 8, 4, true) },
		"DenseBackward short w":              func() { DenseBackward(f(4*8), f(8*4), f(4), f(4*4), f(4*8), f(8*4-1), 4, 8, 4, true) },
		"DenseBackward short gw":             func() { DenseBackward(f(4*8), f(8*4-1), f(4), f(4*4), f(4*8), f(8*4), 4, 8, 4, false) },
		"DenseBackward short gb":             func() { DenseBackward(f(4*8), f(8*4), f(3), f(4*4), f(4*8), f(8*4), 4, 8, 4, false) },
		"DenseBackward short dx":             func() { DenseBackward(f(4*8-1), f(8*4), f(4), f(4*4), f(4*8), f(8*4), 4, 8, 4, true) },
		"DenseBackward empty non-nil dx":     func() { DenseBackward(f(0), f(8*4), f(4), f(4*4), f(4*8), f(8*4), 4, 8, 4, true) },
		"DenseBackward zero in":              func() { DenseBackward(nil, nil, f(4), f(4*4), nil, nil, 4, 0, 4, true) },
		"DenseBackward negative batch":       func() { DenseBackward(nil, f(8*4), f(4), nil, nil, f(8*4), -1, 8, 4, true) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			call()
		}()
	}
}

func TestLaneKernelsZeroAllocs(t *testing.T) {
	const n, batch, in, out = 1003, 16, 48, 16
	rng := rand.New(rand.NewSource(23))
	x, y, z, u := laneVec(rng, n, 0, "gaussian"), laneVec(rng, n, 0, "gaussian"), laneVec(rng, n, 0, "gaussian"), laneVec(rng, n, 0, "gaussian")
	dx, dw, db := laneVec(rng, batch*in, 0, "gaussian"), laneVec(rng, in*out, 0, "gaussian"), laneVec(rng, out, 0, "gaussian")
	dy, scratch := make([]float32, batch*out), make([]float32, DenseScratchLen(in, out))
	gx, gw, gb := make([]float32, batch*in), make([]float32, in*out), make([]float32, out)
	c := adamCoefAt(1, 1e-3, 0.01)
	for name, call := range map[string]func(){
		"Dot":                  func() { Dot(x, y) },
		"Norm2":                func() { Norm2(x) },
		"DotNorms":             func() { DotNorms(x, y) },
		"Axpy":                 func() { Axpy(0.5, x, y) },
		"Sub":                  func() { Sub(z, x, y) },
		"ScaledCombine":        func() { ScaledCombine(z, 0.5, x, 0.25, y) },
		"AdamUpdate":           func() { AdamUpdate(x, y, z, u, c) },
		"MomentumUpdate":       func() { MomentumUpdate(x, y, z, 0.9, 1e-4, 1e-3) },
		"DenseForward":         func() { DenseForward(dy, dx, dw, db, batch, in, out, scratch) },
		"DenseForward batch 1": func() { DenseForward(dy[:out], dx[:in], dw, db, 1, in, out, scratch) },
		"DenseForward batch 3": func() { DenseForward(dy[:3*out], dx[:3*in], dw, db, 3, in, out, nil) },
		"DenseBackward":        func() { DenseBackward(gx, gw, gb, dy, dx, dw, batch, in, out, true) },
		"DenseBackward no dx":  func() { DenseBackward(nil, gw, gb, dy, dx, dw, batch, in, out, false) },
	} {
		if a := testing.AllocsPerRun(20, call); a != 0 {
			t.Errorf("%s: %v allocs per call, want 0", name, a)
		}
	}
}

// f32sFromBytes reinterprets raw as little-endian float32 bit patterns,
// at slice offset off.
func f32sFromBytes(raw []byte, off int) []float32 {
	n := len(raw) / 4
	v := make([]float32, off+n+8)[off : off+n : off+n]
	for i := range v {
		v[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	return v
}

func f32sToBytes(v []float32) []byte {
	raw := make([]byte, 4*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint32(raw[4*i:], math.Float32bits(x))
	}
	return raw
}

// cycle returns n values drawn from src round-robin starting at from.
func cycle(src []float32, from, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = src[(from+i)%len(src)]
	}
	return v
}

// FuzzLaneKernels feeds arbitrary float32 bit patterns, lengths, slice
// offsets and layer shapes to every lane kernel and its twin, the Dense
// backward register tiles included.
func FuzzLaneKernels(f *testing.F) {
	rng := rand.New(rand.NewSource(24))
	for _, kind := range laneKinds {
		for _, n := range []int{1, 7, 8, 9, 33, 67} {
			f.Add(f32sToBytes(laneVec(rng, n, 0, kind)), uint8(rng.Intn(8)), float32(rng.NormFloat64()), float32(rng.NormFloat64()), uint8(rng.Intn(256)), uint8(rng.Intn(256)))
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte, offByte uint8, alpha, beta float32, batchByte, inByte uint8) {
		if len(raw) < 4 || len(raw) > 1<<16 {
			return
		}
		off := int(offByte % 8)
		x := f32sFromBytes(raw, off)
		n := len(x)
		y := cloneAt(cycle(x, n/2+1, n), off)
		checkElementwise(t, x, y, alpha, beta, off)

		// Arbitrary starting state, three steps: step 1 on the raw
		// patterns, then on rotations of them.
		m, v := cycle(x, 1, n), cycle(x, 2, n)
		checkUpdates(t, x, m, v, func(s int) []float32 { return cloneAt(cycle(x, 2+s, n), off) }, 3, off)

		// batch 1..40 and in 1..40 from the low parts of the two bytes,
		// out 1..49 from their high parts: whole blocks of eight rows,
		// blocks with rows left over and layers too narrow for a block.
		batch, in, out := 1+int(batchByte%40), 1+int(inByte%40), 1+7*int(batchByte/40)+int(inByte/40)
		checkDense(t, cloneAt(cycle(x, 0, batch*in), off), cloneAt(cycle(x, 3, in*out), off), cloneAt(cycle(x, 5, out), off), batch, in, out, off)

		// Backward: batch 0..17 and out 1..15 from one byte, in 1..133
		// (every tile width, ragged) from the other.
		batch, in, out = int(batchByte%18), 1+int(inByte)%133, 1+int(batchByte/18)%15
		checkDenseBackward(t, cloneAt(cycle(x, 1, batch*out), off), cloneAt(cycle(x, 2, batch*in), off), cloneAt(cycle(x, 4, in*out), off),
			cycle(x, 6, in*out), cycle(x, 7, out), batch, in, out, off)
	})
}

// adamFastModel is the one-divide form the Adam kernel tries first, in
// three lines of its own: AdamUpdate's update for the step's moments m
// and v if the kernel had no rounding test.
func adamFastModel(m, v float32, c *AdamCoef) float32 {
	k1, k2 := c.LR/c.BC1, 1/math.Sqrt(c.BC2)
	return float32((k1 * float64(m)) / (math.Sqrt(float64(v))*k2 + c.Eps))
}

// adamQuotient is adamGeneric's quotient before its rounding to float32.
func adamQuotient(m, v float32, c *AdamCoef) float64 {
	mhat := float64(m) / c.BC1
	vhat := float64(v) / c.BC2
	return c.LR * mhat / (math.Sqrt(vhat) + c.Eps)
}

// adamMidpointCase builds a step whose quotient sits on a float32
// rounding midpoint: from moments m and v before step t and a zero
// gradient, it takes the midpoint beside float32(1e-3·m̂/(√v̂+ε)), away
// from zero — a midpoint between denormals where that is below the
// float32 normals — moves it by offset float64 ulps and back-solves the
// learning rate. LR is a float64, so it places the quotient to the ulp.
// It returns the coefficients and the step's moments, and false where
// the inputs make no such case (zero, negative or non-finite moments).
func adamMidpointCase(m, v float32, t, offset int) (c AdamCoef, m1, v1 float32, ok bool) {
	c = adamCoefAt(t, 1, 0)
	mm, vv := []float32{m}, []float32{v}
	adamGeneric([]float32{0}, []float32{0}, mm, vv, &c)
	m1, v1 = mm[0], vv[0]
	if m1 == 0 || m1 != m1 || math.IsInf(float64(m1), 0) || !(v1 > 0) || math.IsInf(float64(v1), 0) {
		return c, m1, v1, false
	}
	scale := adamQuotient(m1, v1, &c) // the quotient at LR = 1
	r := float32(1e-3 * scale)
	next := math.Nextafter32(r, float32(math.Copysign(math.Inf(1), scale)))
	if r == 0 || math.IsInf(float64(next), 0) {
		return c, m1, v1, false
	}
	goal := (float64(r) + float64(next)) / 2
	goal = math.Float64frombits(math.Float64bits(goal) + uint64(int64(offset)))
	c.LR = goal / scale
	for i := 0; i < 8; i++ {
		q := adamQuotient(m1, v1, &c)
		if q == goal {
			break
		}
		if math.Abs(q) < math.Abs(goal) {
			c.LR = math.Nextafter(c.LR, math.Inf(1))
		} else {
			c.LR = math.Nextafter(c.LR, 0)
		}
	}
	return c, m1, v1, true
}

// checkAdamCase runs AdamUpdate and adamGeneric from moments m and v, a
// zero gradient and a zero parameter — so the new parameter is minus the
// rounded quotient, to the bit — in lane t%4 of a vector group and in
// the scalar tail, with ordinary elements in the other lanes.
func checkAdamCase(t *testing.T, m, v float32, step int, c AdamCoef) {
	t.Helper()
	const n = 5
	p, g, mm, vv := make([]float32, n), make([]float32, n), make([]float32, n), make([]float32, n)
	for i := range p {
		p[i], g[i], mm[i], vv[i] = 0.5, 0.25*float32(i), 0.01*float32(i), 1e-4
	}
	for _, i := range []int{step % 4, n - 1} {
		p[i], g[i], mm[i], vv[i] = 0, 0, m, v
	}
	wp, wm, wv := append([]float32(nil), p...), append([]float32(nil), mm...), append([]float32(nil), vv...)
	AdamUpdate(p, g, mm, vv, c)
	adamGeneric(wp, g, wm, wv, &c)
	what := fmt.Sprintf("AdamUpdate m=%v v=%v t=%d LR=%v", m, v, step, c.LR)
	expectSame(t, what+" params", p, wp)
	expectSame(t, what+" m", mm, wm)
	expectSame(t, what+" v", vv, wv)
}

type adamSeed struct {
	m, v   float32
	t      int
	offset int
}

// adamMidpointSeeds are moments whose steps land near normal float32
// midpoints (gradient-sized m and v) and near midpoints between
// denormals (m tiny against v), at every offset -3..3 and bias
// corrections from t = 1 to 4000.
func adamMidpointSeeds() []adamSeed {
	rng := rand.New(rand.NewSource(29))
	steps := []int{1, 2, 10, 100, 1000, 4000}
	var seeds []adamSeed
	for i := 0; i < 420; i++ {
		m := float32(rng.NormFloat64() * math.Pow(10, -3+4*rng.Float64()))
		v := m * m * float32(0.5+1.5*rng.Float64())
		if i%2 == 1 {
			m = float32(rng.NormFloat64() * math.Pow(10, -33+2*rng.Float64()))
			v = float32(math.Pow(10, 6+4*rng.Float64()))
		}
		seeds = append(seeds, adamSeed{m, v, steps[i%len(steps)], i%7 - 3})
	}
	return seeds
}

// The Adam kernel's one-divide form rounds differently from the
// definition near a float32 midpoint, and only its rounding test and
// exact fallback keep AdamUpdate equal to adamGeneric there. Every seed
// back-solves the learning rate to put the definition's quotient within
// 3 float64 ulps of a midpoint, among the normals and among the
// denormals (which the range test, not the midpoint test, catches). The
// one-divide model must disagree with the definition on some of both
// kinds — or the cases would not reach the fallback — and AdamUpdate
// must agree on all of them.
func TestAdamMidpoints(t *testing.T) {
	var cases, disagree [2]int // [0] normal, [1] denormal
	for _, s := range adamMidpointSeeds() {
		c, m1, v1, ok := adamMidpointCase(s.m, s.v, s.t, s.offset)
		if !ok {
			t.Fatalf("seed %+v makes no case", s)
		}
		checkAdamCase(t, s.m, s.v, s.t, c)
		def := float32(adamQuotient(m1, v1, &c))
		kind := 0
		if math.Abs(float64(def)) < 0x1p-126 {
			kind = 1
		}
		cases[kind]++
		if math.Float32bits(adamFastModel(m1, v1, &c)) != math.Float32bits(def) {
			disagree[kind]++
		}
	}
	t.Logf("one-divide model disagrees with the definition on %d of %d normal and %d of %d denormal cases", disagree[0], cases[0], disagree[1], cases[1])
	if disagree[0] == 0 || disagree[1] == 0 {
		t.Fatalf("the one-divide model disagrees on %v of %v (normal, denormal) cases: the seeds no longer reach the fallback", disagree, cases)
	}
}

// FuzzAdamMidpoints is TestAdamMidpoints's check on arbitrary moments,
// steps and offsets.
func FuzzAdamMidpoints(f *testing.F) {
	for _, s := range adamMidpointSeeds() {
		f.Add(s.m, s.v, uint16(s.t), int8(s.offset))
	}
	f.Fuzz(func(t *testing.T, m, v float32, step uint16, offset int8) {
		st, off := 1+int(step)%4000, int(offset)%4
		if c, _, _, ok := adamMidpointCase(m, v, st, off); ok {
			checkAdamCase(t, m, v, st, c)
		}
	})
}
