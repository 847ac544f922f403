package adasum

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func randVec(rng *rand.Rand, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = rng.Float32()*2 - 1
	}
	return v
}

func TestOrthogonalGradientsAreSummed(t *testing.T) {
	// §3.5: when g1 ⟂ g2 the dot product is zero and Adasum is the sum.
	a := []float32{1, 0, 2, 0}
	b := []float32{0, 3, 0, -1}
	dst := make([]float32, 4)
	CombineFused(dst, a, b)
	want := []float32{1, 3, 2, -1}
	if !tensor.Equal(dst, want, 1e-7) {
		t.Fatalf("orthogonal combine = %v, want sum %v", dst, want)
	}
}

func TestParallelGradientsAreAveraged(t *testing.T) {
	// §3.5: when g1 ∥ g2 with equal norms, Adasum is the average.
	g := []float32{1, -2, 3}
	dst := make([]float32, 3)
	CombineFused(dst, g, g)
	if !tensor.Equal(dst, g, 1e-7) {
		t.Fatalf("Adasum(g,g) = %v, want %v", dst, g)
	}
}

func TestParallelDifferentNorms(t *testing.T) {
	// g2 = 2*g1. dot = 2‖g1‖², ‖g2‖² = 4‖g1‖².
	// ca = 1 - 2‖g1‖²/(2‖g1‖²) = 0; cb = 1 - 2‖g1‖²/(8‖g1‖²) = 3/4.
	// Result = 0.75 * g2 = 1.5 * g1.
	g1 := []float32{2, 0}
	g2 := []float32{4, 0}
	dst := make([]float32, 2)
	CombineFused(dst, g1, g2)
	if !tensor.Equal(dst, []float32{3, 0}, 1e-6) {
		t.Fatalf("parallel different norms = %v, want [3 0]", dst)
	}
}

func TestAntiParallel(t *testing.T) {
	// g2 = -g1: dot = -‖g‖², ca = cb = 1.5, result = 1.5(g1+g2) = 0.
	g1 := []float32{1, 2}
	g2 := []float32{-1, -2}
	dst := make([]float32, 2)
	CombineFused(dst, g1, g2)
	if !tensor.Equal(dst, []float32{0, 0}, 1e-7) {
		t.Fatalf("antiparallel = %v, want 0", dst)
	}
}

func TestZeroOperands(t *testing.T) {
	z := []float32{0, 0, 0}
	g := []float32{1, 2, 3}
	dst := make([]float32, 3)
	CombineFused(dst, z, g)
	if !tensor.Equal(dst, g, 0) {
		t.Fatalf("Adasum(0,g) = %v, want g", dst)
	}
	CombineFused(dst, g, z)
	if !tensor.Equal(dst, g, 0) {
		t.Fatalf("Adasum(g,0) = %v, want g", dst)
	}
	CombineFused(dst, z, z)
	if !tensor.Equal(dst, z, 0) {
		t.Fatalf("Adasum(0,0) = %v, want 0", dst)
	}
}

func TestCoefficients(t *testing.T) {
	ca, cb := Coefficients(0, 1, 1)
	if ca != 1 || cb != 1 {
		t.Fatalf("orthogonal coefficients = %v,%v", ca, cb)
	}
	ca, cb = Coefficients(1, 1, 1)
	if ca != 0.5 || cb != 0.5 {
		t.Fatalf("parallel coefficients = %v,%v", ca, cb)
	}
	ca, cb = Coefficients(0, 0, 0)
	if ca != 1 || cb != 1 {
		t.Fatalf("degenerate coefficients = %v,%v", ca, cb)
	}
}

func TestSymmetryProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(32) + 1
		a := randVec(rng, n)
		b := randVec(rng, n)
		ab := make([]float32, n)
		ba := make([]float32, n)
		CombineFused(ab, a, b)
		CombineFused(ba, b, a)
		if !tensor.Equal(ab, ba, 1e-6) {
			t.Fatalf("not symmetric: %v vs %v", ab, ba)
		}
	}
}

func TestNormBracketProperty(t *testing.T) {
	// For gradients with non-negative dot product the combined norm sits
	// within [min(‖a‖,‖b‖)/something safe, ‖a‖+‖b‖]. We check the upper
	// bound for all inputs and the Lemma A.3 style lower bound
	// ‖result‖ ≥ ‖a+b‖/2 for acute angles.
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(16) + 2
		a := randVec(rng, n)
		b := randVec(rng, n)
		dst := make([]float32, n)
		CombineFused(dst, a, b)
		na, nb, nc := tensor.Norm(a), tensor.Norm(b), tensor.Norm(dst)
		if nc > na+nb+1e-5 {
			t.Fatalf("norm exceeds triangle bound: %v > %v + %v", nc, na, nb)
		}
		if tensor.Dot(a, b) >= 0 {
			half := make([]float32, n)
			tensor.ScaledCombine(half, 0.5, a, 0.5, b)
			if nc < tensor.Norm(half)-1e-5 {
				t.Fatalf("norm below average bound: %v < %v", nc, tensor.Norm(half))
			}
		}
	}
}

func TestScaleInvarianceOfDirectionWhenEqual(t *testing.T) {
	// Adasum(c*g, c*g) = c*g for any positive c: scaling both inputs
	// scales the output.
	f := func(c float32) bool {
		if c != c || c <= 0 || c > 1e15 {
			return true
		}
		g := []float32{1, 2, -3}
		in := tensor.Clone(g)
		tensor.Scale(c, in)
		dst := make([]float32, 3)
		CombineFused(dst, in, in)
		return tensor.Equal(dst, in, 1e-3*float64(c))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCombineLayersIndependence(t *testing.T) {
	// Layer 0 parallel (should average), layer 1 orthogonal (should sum);
	// per-layer combine treats them independently.
	layout := tensor.NewLayout([]string{"l0", "l1"}, []int{2, 2})
	a := []float32{1, 0 /* l1 */, 1, 0}
	b := []float32{1, 0 /* l1 */, 0, 1}
	dst := make([]float32, 4)
	CombineLayers(dst, a, b, layout)
	want := []float32{1, 0, 1, 1}
	if !tensor.Equal(dst, want, 1e-6) {
		t.Fatalf("per-layer combine = %v, want %v", dst, want)
	}
	// Whole-gradient combine mixes the layers (different result).
	whole := make([]float32, 4)
	CombineFused(whole, a, b)
	if tensor.Equal(whole, want, 1e-6) {
		t.Fatal("whole-gradient combine unexpectedly equals per-layer")
	}
}

func TestTreeReduceSingle(t *testing.T) {
	g := []float32{1, 2}
	out := TreeReduce([][]float32{g}, tensor.FlatLayout(2))
	if !tensor.Equal(out, g, 0) {
		t.Fatalf("TreeReduce single = %v", out)
	}
	// Must be a copy.
	out[0] = 99
	if g[0] != 1 {
		t.Fatal("TreeReduce aliases input")
	}
}

func TestTreeReducePairMatchesCombine(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a, b := randVec(rng, 10), randVec(rng, 10)
	layout := tensor.FlatLayout(10)
	tree := TreeReduce([][]float32{a, b}, layout)
	direct := make([]float32, 10)
	CombineFused(direct, a, b)
	if !tensor.Equal(tree, direct, 1e-7) {
		t.Fatalf("tree pair %v != direct %v", tree, direct)
	}
}

func TestTreeReduceOrthogonalSet(t *testing.T) {
	// n mutually orthogonal gradients: tree reduce = exact sum.
	n := 8
	grads := make([][]float32, n)
	want := make([]float32, n)
	for i := range grads {
		g := make([]float32, n)
		g[i] = float32(i + 1)
		grads[i] = g
		want[i] = float32(i + 1)
	}
	out := TreeReduce(grads, tensor.FlatLayout(n))
	if !tensor.Equal(out, want, 1e-6) {
		t.Fatalf("orthogonal tree reduce = %v, want %v", out, want)
	}
}

func TestTreeReduceIdenticalSet(t *testing.T) {
	// n identical gradients: tree reduce = the gradient (repeated
	// averaging).
	g := []float32{2, -1, 0.5}
	grads := [][]float32{g, g, g, g, g, g, g, g}
	out := TreeReduce(grads, tensor.FlatLayout(3))
	if !tensor.Equal(out, g, 1e-6) {
		t.Fatalf("identical tree reduce = %v, want %v", out, g)
	}
}

func TestTreeReduceOddCount(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	grads := make([][]float32, 5)
	for i := range grads {
		grads[i] = randVec(rng, 6)
	}
	out := TreeReduce(grads, tensor.FlatLayout(6))
	if len(out) != 6 {
		t.Fatalf("odd count output length = %d", len(out))
	}
	if tensor.HasNaNOrInf(out) {
		t.Fatal("odd count produced non-finite values")
	}
}

func TestLinearVsTreeDifferButBothValid(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	grads := make([][]float32, 4)
	for i := range grads {
		grads[i] = randVec(rng, 8)
	}
	layout := tensor.FlatLayout(8)
	tree := TreeReduce(grads, layout)
	lin := LinearReduce(grads, layout)
	if tensor.HasNaNOrInf(tree) || tensor.HasNaNOrInf(lin) {
		t.Fatal("non-finite reduction")
	}
	// Both must lie within the triangle bound of the summed norms.
	var sum float64
	for _, g := range grads {
		sum += tensor.Norm(g)
	}
	if tensor.Norm(tree) > sum || tensor.Norm(lin) > sum {
		t.Fatal("reduction norm exceeds sum of norms")
	}
}

func TestSumMeanReduce(t *testing.T) {
	grads := [][]float32{{1, 2}, {3, 4}, {5, 6}}
	s := SumReduce(grads)
	if !tensor.Equal(s, []float32{9, 12}, 1e-6) {
		t.Fatalf("SumReduce = %v", s)
	}
	m := NewReducer().MeanReduce(grads)
	if !tensor.Equal(m, []float32{3, 4}, 1e-6) {
		t.Fatalf("Reducer.MeanReduce = %v", m)
	}
	// Inputs untouched.
	if !tensor.Equal(grads[0], []float32{1, 2}, 0) {
		t.Fatal("SumReduce mutated input")
	}
}

func TestOrthogonalityMetricExtremes(t *testing.T) {
	// Orthogonal set -> 1.
	grads := [][]float32{{1, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 1, 0}, {0, 0, 0, 1}}
	if got := Orthogonality(grads); math.Abs(got-1) > 1e-6 {
		t.Fatalf("orthogonal set metric = %v, want 1", got)
	}
	// Parallel equal-norm set of n -> 1/n.
	g := []float32{1, 1}
	par := [][]float32{g, g, g, g}
	if got := Orthogonality(par); math.Abs(got-0.25) > 1e-6 {
		t.Fatalf("parallel set metric = %v, want 0.25", got)
	}
}

func TestOrthogonalityPerLayer(t *testing.T) {
	layout := tensor.NewLayout([]string{"a", "b"}, []int{2, 2})
	// Layer a: parallel (1/2); layer b: orthogonal (1).
	g1 := []float32{1, 0 /* b */, 1, 0}
	g2 := []float32{1, 0 /* b */, 0, 1}
	per, avg := OrthogonalityPerLayer([][]float32{g1, g2}, layout)
	if math.Abs(per[0]-0.5) > 1e-6 || math.Abs(per[1]-1) > 1e-6 {
		t.Fatalf("per-layer = %v", per)
	}
	if math.Abs(avg-0.75) > 1e-6 {
		t.Fatalf("avg = %v, want 0.75", avg)
	}
}

// The two phases of Algorithm 1 — per-window partial dots summed across
// the windows (WindowDots), then each window combined with the completed
// dots (CombineWindow) — must equal the per-layer combine of the whole
// vectors, with window edges that cut through layers.
func TestWindowDotsMatchesCombineLayers(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	layout := tensor.NewLayout([]string{"a", "b", "c"}, []int{5, 3, 8})
	a := randVec(rng, 16)
	b := randVec(rng, 16)
	cuts := []int{0, 4, 7, 16}
	dots := make([]float64, 3*layout.NumLayers())
	part := make([]float64, len(dots))
	for w := 0; w+1 < len(cuts); w++ {
		lo, hi := cuts[w], cuts[w+1]
		WindowDots(part, a[lo:hi], b[lo:hi], lo, layout)
		for i := range dots {
			dots[i] += part[i]
		}
	}
	viaDots := make([]float32, 16)
	for w := 0; w+1 < len(cuts); w++ {
		lo, hi := cuts[w], cuts[w+1]
		CombineWindow(viaDots[lo:hi], a[lo:hi], b[lo:hi], lo, layout, dots)
	}
	direct := make([]float32, 16)
	CombineLayers(direct, a, b, layout)
	if !tensor.Equal(viaDots, direct, 1e-7) {
		t.Fatalf("two-phase %v != direct %v", viaDots, direct)
	}
}

func TestCombineAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	a := randVec(rng, 8)
	b := randVec(rng, 8)
	want := make([]float32, 8)
	CombineFused(want, a, b)
	// dst aliases a.
	aCopy := tensor.Clone(a)
	CombineFused(aCopy, aCopy, b)
	if !tensor.Equal(aCopy, want, 1e-7) {
		t.Fatalf("aliased combine = %v, want %v", aCopy, want)
	}
}
