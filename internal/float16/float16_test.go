package float16

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKnownValues(t *testing.T) {
	cases := []struct {
		f float32
		b Bits
	}{
		{0, 0x0000},
		{1, 0x3C00},
		{-1, 0xBC00},
		{2, 0x4000},
		{0.5, 0x3800},
		{65504, 0x7BFF}, // max finite half
		{-65504, 0xFBFF},
		{6.103515625e-05, 0x0400},        // min normal
		{5.9604644775390625e-08, 0x0001}, // min subnormal
	}
	for _, c := range cases {
		if got := FromFloat32(c.f); got != c.b {
			t.Errorf("FromFloat32(%v) = %#04x, want %#04x", c.f, got, c.b)
		}
		if got := ToFloat32(c.b); got != c.f {
			t.Errorf("ToFloat32(%#04x) = %v, want %v", c.b, got, c.f)
		}
	}
}

func TestNegativeZero(t *testing.T) {
	nz := FromFloat32(float32(math.Copysign(0, -1)))
	if nz != 0x8000 {
		t.Fatalf("negative zero = %#04x", nz)
	}
	back := ToFloat32(nz)
	if back != 0 || !math.Signbit(float64(back)) {
		t.Fatalf("negative zero round trip = %v", back)
	}
}

func TestOverflowToInf(t *testing.T) {
	if got := FromFloat32(70000); got != PositiveInf {
		t.Fatalf("70000 -> %#04x, want +inf", got)
	}
	if got := FromFloat32(-70000); got != NegativeInf {
		t.Fatalf("-70000 -> %#04x, want -inf", got)
	}
	// 65520 is the rounding boundary: anything >= 65520 rounds to inf.
	if got := FromFloat32(65520); got != PositiveInf {
		t.Fatalf("65520 -> %#04x, want +inf (round to even)", got)
	}
	if got := FromFloat32(65519.996); got != Bits(0x7BFF) {
		t.Fatalf("65519.996 -> %#04x, want max finite", got)
	}
}

func TestUnderflowToZero(t *testing.T) {
	if got := FromFloat32(1e-10); got != 0 {
		t.Fatalf("1e-10 -> %#04x, want +0", got)
	}
	if got := FromFloat32(-1e-10); got != 0x8000 {
		t.Fatalf("-1e-10 -> %#04x, want -0", got)
	}
}

func TestInfNaN(t *testing.T) {
	if got := FromFloat32(float32(math.Inf(1))); got != PositiveInf {
		t.Fatalf("+inf -> %#04x", got)
	}
	if got := FromFloat32(float32(math.Inf(-1))); got != NegativeInf {
		t.Fatalf("-inf -> %#04x", got)
	}
	n := FromFloat32(float32(math.NaN()))
	if !isNaN(n) {
		t.Fatalf("NaN -> %#04x, not NaN", n)
	}
	if !math.IsNaN(float64(ToFloat32(NaN))) {
		t.Fatal("ToFloat32(NaN) is not NaN")
	}
	if !math.IsInf(float64(ToFloat32(PositiveInf)), 1) || !math.IsInf(float64(ToFloat32(NegativeInf)), -1) {
		t.Fatal("ToFloat32 of an infinity is not infinite")
	}
}

// isNaN reports whether h encodes a NaN: an all-ones exponent with a
// non-zero fraction.
func isNaN(h Bits) bool { return h&expMask == expMask && h&fracMask != 0 }

func TestRoundToNearestEven(t *testing.T) {
	// 1 + 2^-11 is exactly halfway between 1 and 1+2^-10; must round to
	// even (1.0, frac 0x000).
	f := float32(1) + float32(math.Exp2(-11))
	if got := FromFloat32(f); got != 0x3C00 {
		t.Fatalf("halfway rounds to %#04x, want 0x3C00 (even)", got)
	}
	// 1 + 3*2^-11 is halfway between 1+2^-10 and 1+2^-9; rounds up to
	// even frac 0x002.
	f = float32(1) + 3*float32(math.Exp2(-11))
	if got := FromFloat32(f); got != 0x3C02 {
		t.Fatalf("halfway rounds to %#04x, want 0x3C02 (even)", got)
	}
}

func TestRoundTripAllHalves(t *testing.T) {
	// Every finite half must survive half -> float32 -> half exactly.
	for b := 0; b < 1<<16; b++ {
		h := Bits(b)
		if isNaN(h) {
			continue
		}
		f := ToFloat32(h)
		back := FromFloat32(f)
		if back != h {
			t.Fatalf("round trip failed: %#04x -> %v -> %#04x", h, f, back)
		}
	}
}

func TestFromFloat32Monotonic(t *testing.T) {
	// Conversion must be monotone non-decreasing over positive floats.
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		a := rng.Float32() * 70000
		b := rng.Float32() * 70000
		if a > b {
			a, b = b, a
		}
		ha, hb := FromFloat32(a), FromFloat32(b)
		// Positive halves compare like their bit patterns.
		if ha&0x8000 == 0 && hb&0x8000 == 0 && ha > hb {
			t.Fatalf("monotonicity violated: %v->%#04x, %v->%#04x", a, ha, b, hb)
		}
	}
}

func TestConversionErrorBound(t *testing.T) {
	// For normal-range values, relative error <= 2^-11.
	f := func(x float32) bool {
		if x != x || math.Abs(float64(x)) > 65000 || math.Abs(float64(x)) < 1e-4 {
			return true
		}
		y := ToFloat32(FromFloat32(x))
		rel := math.Abs(float64(y-x)) / math.Abs(float64(x))
		return rel <= math.Exp2(-11)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSliceCodecs(t *testing.T) {
	src := []float32{0, 1, -2, 0.25, 1000}
	dst := make([]Bits, len(src))
	EncodeInto(dst, src)
	out := make([]float32, len(src))
	DecodeInto(out, dst)
	for i := range src {
		if out[i] != src[i] {
			t.Fatalf("codec[%d] = %v, want %v", i, out[i], src[i])
		}
	}
}

// TestDecodeTableExhaustive pins the table-driven ToFloat32 to the
// algorithmic reference over every one of the 65536 half patterns.
func TestDecodeTableExhaustive(t *testing.T) {
	for i := 0; i <= 0xFFFF; i++ {
		h := Bits(i)
		got, want := ToFloat32(h), toFloat32Ref(h)
		if math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("half %04x: table %08x, reference %08x", i,
				math.Float32bits(got), math.Float32bits(want))
		}
	}
}

// edgeFracs are the float32 mantissa patterns that exercise the rounding
// fixups in every exponent class: all-zeros, all-ones, exact halfway,
// halfway±1.
var edgeFracs = []uint32{
	0, 1, 0x7FFFFF, 0x400000,
	0x0FFF, 0x1000, 0x1001, 0x2000, 0x3000, // 13-bit rounding edges
	0x1FFF, 0x3FFF, 0x7FFF, 0xFFFF, // subnormal shift edges
	0x555555, 0x2AAAAA,
}

// TestEncodeTableMatchesReference pins the table-driven FromFloat32 to
// the branch-tree reference across every exponent (with mantissa
// patterns that exercise the rounding fixups: all-zeros, all-ones,
// exact halfway, halfway±1) plus millions of random bit patterns.
func TestEncodeTableMatchesReference(t *testing.T) {
	check := func(bits uint32) {
		f := math.Float32frombits(bits)
		if got, want := FromFloat32(f), fromFloat32Ref(f); got != want {
			t.Fatalf("float bits %08x: table %04x, reference %04x", bits, got, want)
		}
	}
	for s := uint32(0); s < 2; s++ {
		for exp := uint32(0); exp < 256; exp++ {
			base := s<<31 | exp<<23
			for _, frac := range edgeFracs {
				check(base | frac)
			}
		}
	}
	rng := rand.New(rand.NewSource(123))
	for i := 0; i < 2_000_000; i++ {
		check(rng.Uint32())
	}
}

// fromFloat32Ref is the branch-tree reference conversion the tables are
// validated against.
func fromFloat32Ref(f float32) Bits {
	b := math.Float32bits(f)
	sign := uint16(b>>16) & signMask
	exp := int32(b>>23) & 0xFF
	frac := b & 0x7FFFFF

	switch {
	case exp == 0xFF: // Inf or NaN
		if frac != 0 {
			// Preserve a quiet NaN with some payload bits.
			return Bits(sign | expMask | 0x0200 | uint16(frac>>13))
		}
		return Bits(sign | expMask)
	case exp == 0 && frac == 0: // signed zero
		return Bits(sign)
	}

	// Unbias, rebias for half.
	e := exp - 127 + expBias
	switch {
	case e >= maxExp: // overflow -> inf
		return Bits(sign | expMask)
	case e >= 1: // normal half
		half := (uint32(e) << 10) | (frac >> 13)
		// Round to nearest even on the 13 truncated bits.
		round := frac & 0x1FFF
		if round > 0x1000 || (round == 0x1000 && half&1 == 1) {
			half++ // may carry into exponent; that is correct rounding
		}
		return Bits(sign | uint16(half))
	case e >= -10: // subnormal half
		// Add the implicit leading 1 and shift right by (1 - e) extra.
		frac |= 0x800000
		shift := uint32(14 - e) // total shift from 23-bit frac to 10-bit
		half := frac >> shift
		rem := frac & ((1 << shift) - 1)
		halfway := uint32(1) << (shift - 1)
		if rem > halfway || (rem == halfway && half&1 == 1) {
			half++
		}
		return Bits(sign | uint16(half))
	default: // underflow -> signed zero
		return Bits(sign)
	}
}
