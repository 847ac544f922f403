package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDotBasic(t *testing.T) {
	a := []float32{1, 2, 3}
	b := []float32{4, 5, 6}
	if got := Dot(a, b); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
}

func TestDotEmpty(t *testing.T) {
	if got := Dot(nil, nil); got != 0 {
		t.Fatalf("Dot(nil,nil) = %v, want 0", got)
	}
}

func TestDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Dot([]float32{1}, []float32{1, 2})
}

func TestDotUnrolledTail(t *testing.T) {
	// Lengths around the unroll width must all agree with a naive loop.
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 17; n++ {
		a := make([]float32, n)
		b := make([]float32, n)
		var want float64
		for i := 0; i < n; i++ {
			a[i] = rng.Float32() - 0.5
			b[i] = rng.Float32() - 0.5
			want += float64(a[i]) * float64(b[i])
		}
		if got := Dot(a, b); !almostEq(got, want, 1e-12) {
			t.Fatalf("n=%d: Dot = %v, want %v", n, got, want)
		}
	}
}

func TestNorm2MatchesDotSelf(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for n := 0; n <= 13; n++ {
		a := make([]float32, n)
		for i := range a {
			a[i] = rng.Float32()*4 - 2
		}
		if got, want := Norm2(a), Dot(a, a); !almostEq(got, want, 1e-12) {
			t.Fatalf("n=%d: Norm2 = %v, Dot(a,a) = %v", n, got, want)
		}
	}
}

func TestNorm(t *testing.T) {
	if got := Norm([]float32{3, 4}); !almostEq(got, 5, 1e-12) {
		t.Fatalf("Norm = %v, want 5", got)
	}
}

func TestFloat64Accumulation(t *testing.T) {
	// A float32 accumulator loses the small terms entirely; the float64
	// accumulator of DotNorms — Adasum's dots, on the decoded operands of
	// every codec — must keep them (the §4.4.1 precision property).
	n := 4096
	a := make([]float32, n)
	ones := make([]float32, n)
	a[0] = 4096 // large head
	for i := range a {
		if i > 0 {
			a[i] = 1e-3
		}
		ones[i] = 1
	}
	got, _, _ := DotNorms(a, ones)
	want := 4096 + float64(n-1)*1e-3
	if math.Abs(got-want) > 1e-6 {
		t.Fatalf("DotNorms a·1 = %v, want %v (float64 accumulation lost)", got, want)
	}
}

func TestAxpy(t *testing.T) {
	x := []float32{1, 2, 3, 4, 5}
	y := []float32{10, 20, 30, 40, 50}
	Axpy(2, x, y)
	want := []float32{12, 24, 36, 48, 60}
	if !Equal(y, want, 0) {
		t.Fatalf("Axpy = %v, want %v", y, want)
	}
}

func TestScale(t *testing.T) {
	x := []float32{1, -2, 3, -4, 5}
	Scale(-2, x)
	want := []float32{-2, 4, -6, 8, -10}
	if !Equal(x, want, 0) {
		t.Fatalf("Scale = %v, want %v", x, want)
	}
}

func TestSub(t *testing.T) {
	a := []float32{1, 2, 3}
	b := []float32{4, 5, 6}
	dst := make([]float32, 3)
	Sub(dst, b, a)
	if !Equal(dst, []float32{3, 3, 3}, 0) {
		t.Fatalf("Sub = %v", dst)
	}
}

func TestSubAliasing(t *testing.T) {
	a := []float32{5, 6, 7}
	Sub(a, a, []float32{1, 1, 1})
	if !Equal(a, []float32{4, 5, 6}, 0) {
		t.Fatalf("aliased Sub = %v", a)
	}
}

func TestScaledCombine(t *testing.T) {
	a := []float32{1, 2, 3, 4, 5, 6}
	b := []float32{10, 20, 30, 40, 50, 60}
	dst := make([]float32, 6)
	ScaledCombine(dst, 2, a, 0.5, b)
	want := []float32{7, 14, 21, 28, 35, 42}
	if !Equal(dst, want, 1e-6) {
		t.Fatalf("ScaledCombine = %v, want %v", dst, want)
	}
}

func TestScaledCombineAliasesA(t *testing.T) {
	a := []float32{1, 2, 3}
	b := []float32{4, 5, 6}
	ScaledCombine(a, 1, a, 1, b)
	if !Equal(a, []float32{5, 7, 9}, 0) {
		t.Fatalf("aliased ScaledCombine = %v", a)
	}
}

func TestZeroClone(t *testing.T) {
	x := []float32{1, 2, 3}
	c := Clone(x)
	Zero(x)
	if !Equal(x, []float32{0, 0, 0}, 0) {
		t.Fatalf("Zero = %v", x)
	}
	if !Equal(c, []float32{1, 2, 3}, 0) {
		t.Fatalf("Clone mutated: %v", c)
	}
}

func TestHasNaNOrInf(t *testing.T) {
	if HasNaNOrInf([]float32{1, 2, 3}) {
		t.Fatal("false positive")
	}
	if !HasNaNOrInf([]float32{1, float32(math.NaN()), 3}) {
		t.Fatal("missed NaN")
	}
	if !HasNaNOrInf([]float32{float32(math.Inf(-1))}) {
		t.Fatal("missed -Inf")
	}
}

func TestRelErr(t *testing.T) {
	a := []float32{1, 0}
	b := []float32{1, 0}
	if got := RelErr(a, b); got != 0 {
		t.Fatalf("RelErr identical = %v", got)
	}
	a2 := []float32{2, 0}
	if got := RelErr(a2, b); !almostEq(got, 1, 1e-9) {
		t.Fatalf("RelErr = %v, want 1", got)
	}
}

func TestDotCommutativeProperty(t *testing.T) {
	f := func(vals []float32) bool {
		n := len(vals) / 2
		a, b := vals[:n], vals[n:2*n]
		for _, v := range vals {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				return true
			}
		}
		return almostEq(Dot(a, b), Dot(b, a), 1e-6*(1+math.Abs(Dot(a, b))))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAxpyLinearityProperty(t *testing.T) {
	// Dot(a, x+y) == Dot(a,x) + Dot(a,y) within tolerance.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		n := rng.Intn(64) + 1
		a := randVec(rng, n)
		x := randVec(rng, n)
		y := randVec(rng, n)
		xy := Clone(x)
		Axpy(1, y, xy)
		lhs := Dot(a, xy)
		rhs := Dot(a, x) + Dot(a, y)
		if !almostEq(lhs, rhs, 1e-4*(1+math.Abs(rhs))) {
			t.Fatalf("linearity violated: %v vs %v", lhs, rhs)
		}
	}
}

func randVec(rng *rand.Rand, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = rng.Float32()*2 - 1
	}
	return v
}
