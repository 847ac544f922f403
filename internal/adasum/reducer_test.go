package adasum

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

func randGrads(n, size int, seed int64) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float32, n)
	for i := range out {
		out[i] = make([]float32, size)
		for j := range out[i] {
			out[i][j] = rng.Float32() - 0.5
		}
	}
	return out
}

// combineUnfused is the seed (pre-fusion) pairwise combine: three
// separate reduction passes followed by the scaled combine. It is the
// reference the fused path must match.
func combineUnfused(dst, a, b []float32) {
	dot := tensor.Dot(a, b)
	na := tensor.Norm2(a)
	nb := tensor.Norm2(b)
	ca, cb := Coefficients(dot, na, nb)
	tensor.ScaledCombine(dst, float32(ca), a, float32(cb), b)
}

// The fused combine must agree with the seed's unfused implementation
// within 1e-12 relative on random inputs across sizes and scales.
func TestCombineFusedMatchesUnfused(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 8, 9, 64, 1000, 4097} {
		for _, scale := range []float32{1, 1e-5, 1e5} {
			rng := rand.New(rand.NewSource(int64(n) + 17))
			a := make([]float32, n)
			b := make([]float32, n)
			for i := range a {
				a[i] = (rng.Float32() - 0.5) * scale
				b[i] = (rng.Float32() - 0.5) * scale
			}
			fused := make([]float32, n)
			unfused := make([]float32, n)
			dot, na, nb := CombineFused(fused, a, b)
			combineUnfused(unfused, a, b)

			wd, wa, wb := tensor.Dot(a, b), tensor.Norm2(a), tensor.Norm2(b)
			for _, pair := range [][2]float64{{dot, wd}, {na, wa}, {nb, wb}} {
				got, want := pair[0], pair[1]
				denom := math.Max(math.Abs(want), 1e-300)
				if math.Abs(got-want)/denom > 1e-12 {
					t.Fatalf("n=%d scale=%g: fused stat %v vs unfused %v", n, scale, got, want)
				}
			}
			for i := range fused {
				diff := math.Abs(float64(fused[i]) - float64(unfused[i]))
				tol := 1e-12 * math.Max(math.Abs(float64(unfused[i])), 1)
				// One float32 ulp of slack for the re-quantized combine.
				tol = math.Max(tol, math.Abs(float64(unfused[i]))*1.2e-7)
				if diff > tol {
					t.Fatalf("n=%d scale=%g elem %d: fused %v unfused %v", n, scale, i, fused[i], unfused[i])
				}
			}
		}
	}
}

// CombineFused must support dst aliasing either input.
func TestCombineFusedAliasing(t *testing.T) {
	base := randGrads(2, 100, 3)
	a, b := base[0], base[1]
	want := make([]float32, len(a))
	CombineFused(want, a, b)

	aliasA := tensor.Clone(a)
	CombineFused(aliasA, aliasA, b)
	if !tensor.Equal(aliasA, want, 0) {
		t.Error("dst aliasing a diverged")
	}
	aliasB := tensor.Clone(b)
	CombineFused(aliasB, a, aliasB)
	if !tensor.Equal(aliasB, want, 0) {
		t.Error("dst aliasing b diverged")
	}
}

// Reducer methods must match the allocating package-level functions.
func TestReducerMatchesPackageFunctions(t *testing.T) {
	layout := tensor.NewLayout([]string{"a", "b", "c"}, []int{40, 25, 35})
	for _, n := range []int{1, 2, 3, 4, 5, 8, 15, 16} {
		grads := randGrads(n, layout.TotalSize(), int64(n))
		r := NewReducer()
		if got, want := r.TreeReduce(grads, layout), TreeReduce(grads, layout); !tensor.Equal(got, want, 0) {
			t.Errorf("n=%d: Reducer.TreeReduce diverges from TreeReduce", n)
		}
		if got, want := r.SumReduce(grads), SumReduce(grads); !tensor.Equal(got, want, 0) {
			t.Errorf("n=%d: Reducer.SumReduce diverges from SumReduce", n)
		}
	}
}

// Reducer must not modify its inputs.
func TestReducerPreservesInputs(t *testing.T) {
	layout := tensor.FlatLayout(64)
	grads := randGrads(7, 64, 11)
	before := make([][]float32, len(grads))
	for i, g := range grads {
		before[i] = tensor.Clone(g)
	}
	r := NewReducer()
	r.TreeReduce(grads, layout)
	for i := range grads {
		if !tensor.Equal(grads[i], before[i], 0) {
			t.Fatalf("TreeReduce modified input %d", i)
		}
	}
}

// A single Reducer must be reusable across calls with different gradient
// counts, sizes and layouts — the workspace regrows as needed and stale
// workspace contents must not leak into results.
func TestReducerReuseAcrossLayouts(t *testing.T) {
	r := NewReducer()
	shapes := []struct {
		n      int
		layout tensor.Layout
	}{
		{4, tensor.FlatLayout(100)},
		{9, tensor.NewLayout([]string{"w", "b"}, []int{300, 50})},
		{2, tensor.FlatLayout(10)},
		{16, tensor.NewLayout([]string{"x", "y", "z"}, []int{64, 64, 72})},
		{3, tensor.FlatLayout(1000)},
		{4, tensor.FlatLayout(100)}, // shrink back to the first shape
	}
	for si, s := range shapes {
		grads := randGrads(s.n, s.layout.TotalSize(), int64(100+si))
		got := r.TreeReduce(grads, s.layout)
		want := TreeReduce(grads, s.layout)
		if !tensor.Equal(got, want, 0) {
			t.Fatalf("shape %d (%d grads, %d elems): reuse diverged", si, s.n, s.layout.TotalSize())
		}
	}
}

// TreeReduceInto writes into the caller's buffer and must equal the
// value-returning form.
func TestTreeReduceInto(t *testing.T) {
	layout := tensor.FlatLayout(50)
	grads := randGrads(5, 50, 21)
	dst := make([]float32, 50)
	var r Reducer
	r.TreeReduceInto(dst, grads, layout)
	if want := TreeReduce(grads, layout); !tensor.Equal(dst, want, 0) {
		t.Fatal("TreeReduceInto diverges from TreeReduce")
	}
}

// Steady-state reductions and the package-level combines must not
// allocate.
func TestReducerSteadyStateAllocs(t *testing.T) {
	const n = 1 << 10
	flat := tensor.FlatLayout(n)
	layers := tensor.NewLayout([]string{"a", "b", "c", "d"}, []int{n / 4, n / 4, n / 4, n / 4})
	grads := randGrads(16, n, 31)
	dst := make([]float32, n)
	r := NewReducer()
	for name, call := range map[string]func(){
		"TreeReduce":    func() { r.TreeReduce(grads, flat) },
		"CombineFused":  func() { CombineFused(dst, grads[0], grads[1]) },
		"CombineLayers": func() { CombineLayers(dst, grads[0], grads[1], layers) },
	} {
		call() // warm the workspace
		if allocs := testing.AllocsPerRun(20, call); allocs != 0 {
			t.Errorf("steady-state %s allocates %.1f times per op", name, allocs)
		}
	}
}
