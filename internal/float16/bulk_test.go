package float16

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cpu"
)

// The bulk conversions against their pure-Go twins, bit for bit. The
// twins are called directly, so the table path stays tested on a machine
// where the exported functions run the F16C kernels; in a build without
// the assembly both sides are the twin and the tests pin the wrappers'
// bookkeeping only.

// halfSpecials are the float32 bit patterns the kernels must agree with
// the tables on: signed zeros and infinities, quiet and signalling NaNs
// with payloads in the kept and in the dropped bits, float32 denormals,
// the largest finite half and the overflow boundary around it, and the
// subnormal rounding ties.
var halfSpecials = []uint32{
	0x00000000, 0x80000000, // ±0
	0x7F800000, 0xFF800000, // ±Inf
	0x7FC00000, 0xFFC00000, 0x7FC01234, 0xFFFFFFFF, 0x7FFFE000, // quiet NaNs
	0x7F800001, 0xFF800001, 0x7F801FFF, 0x7F802000, 0x7FA00000, 0xFFBFFFFF, // signalling NaNs
	0x00000001, 0x807FFFFF, 0x00400000, // float32 denormals
	0x477FE000,             // 65504, the largest finite half
	0x477FEFFF,             // 65519.996: rounds down to it
	0x477FF000, 0xC77FF000, // ±65520: the tie that rounds to infinity
	0x477FF001, 0x47800000, // above the tie; 65536
	0x33800000, 0xB3800000, // ±2^-24, the smallest subnormal half
	0x33000000, 0xB3000000, // ±2^-25: ties to even, i.e. to zero
	0x33000001, 0x32FFFFFF, // either side of that tie
	0x33C00000, 0xB3C00000, // ±1.5 * 2^-24: ties to even, up to 2 * 2^-24
	0x38800000, 0x387FFFFF, 0x387FE000, 0x387FF000, // the subnormal/normal boundary
	0x3F800000, 0x3F801000, 0x3F803000, 0x3F801001, 0x3F800FFF, // normal rounding ties
}

var halfKinds = []string{"gaussian", "wide", "bits", "specials"}

// halfVec returns n float32 of the given kind.
func halfVec(rng *rand.Rand, n int, kind string) []float32 {
	v := make([]float32, n)
	for i := range v {
		switch kind {
		case "gaussian": // gradient-like
			v[i] = float32(rng.NormFloat64() * 1e-2)
		case "wide": // every half exponent class, overflow and underflow included
			v[i] = float32(rng.NormFloat64() * math.Exp2(float64(rng.Intn(60)-35)))
		case "bits":
			v[i] = math.Float32frombits(rng.Uint32())
		case "specials":
			v[i] = math.Float32frombits(halfSpecials[rng.Intn(len(halfSpecials))])
		default:
			panic("unknown kind " + kind)
		}
	}
	return v
}

// guarded returns an n-element window at offset off of a larger buffer
// filled with fill, and the buffer, so a test can place either operand
// at any alignment and see a write outside the window.
func guarded[T comparable](n, off int, fill T) (buf, win []T) {
	buf = make([]T, off+n+8)
	for i := range buf {
		buf[i] = fill
	}
	return buf, buf[off : off+n : off+n]
}

// checkGuard fails if anything outside buf[off:off+n] is not fill.
func checkGuard[T comparable](t *testing.T, what string, buf []T, n, off int, fill T) {
	t.Helper()
	for i, v := range buf {
		if (i < off || i >= off+n) && v != fill {
			t.Fatalf("%s: wrote outside the destination at buffer index %d (window [%d,%d))", what, i, off, off+n)
		}
	}
}

func sameWords(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: word %d of %d: kernel %08x, twin %08x", what, i, len(want),
				math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
}

func sameHalves(t *testing.T, what string, got, want []Bits, src []float32) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: element %d of %d (float32 bits %08x): kernel %04x, twin %04x", what, i, len(want),
				math.Float32bits(src[i]), got[i], want[i])
		}
	}
}

// checkHalfKernels runs all four bulk conversions on src, with the
// float32-side operand at slice offset fOff and the half-side (or
// wire-word) operand at hOff, against the twins.
func checkHalfKernels(t *testing.T, src []float32, fOff, hOff int) {
	t.Helper()
	n := len(src)
	what := fmt.Sprintf("n=%d offsets f32=%d half=%d", n, fOff, hOff)
	_, in := guarded(n, fOff, float32(0))
	copy(in, src)

	// EncodeInto, and DecodeInto of what it produced.
	const hFill = Bits(0xA5A5)
	hBuf, halves := guarded(n, hOff, hFill)
	wantHalves := make([]Bits, n)
	EncodeInto(halves, in)
	encodeGeneric(wantHalves, src)
	sameHalves(t, "EncodeInto "+what, halves, wantHalves, src)
	checkGuard(t, "EncodeInto "+what, hBuf, n, hOff, hFill)

	fFill := math.Float32frombits(0xDEADBEEF)
	fBuf, out := guarded(n, fOff, fFill)
	wantOut := make([]float32, n)
	DecodeInto(out, halves)
	decodeGeneric(wantOut, wantHalves)
	sameWords(t, "DecodeInto "+what, out, wantOut)
	checkGuard(t, "DecodeInto "+what, fBuf, n, fOff, fFill)

	// PackInto: every wire word, the zero high half of a half-filled
	// last word included, over a destination that held garbage.
	words := (n + 1) / 2
	wBuf, wire := guarded(words, hOff, fFill)
	wantWire := make([]float32, words)
	PackInto(wire, in)
	packGeneric(wantWire, src)
	sameWords(t, "PackInto "+what, wire, wantWire)
	checkGuard(t, "PackInto "+what, wBuf, words, hOff, fFill)
	if n%2 == 1 {
		if hi := math.Float32bits(wire[words-1]) >> 16; hi != 0 {
			t.Fatalf("PackInto %s: high half of the half-filled last word is %04x, want 0", what, hi)
		}
		// UnpackInto must ignore that high half.
		wire[words-1] = math.Float32frombits(math.Float32bits(wire[words-1]) | 0xBEEF0000)
	}

	fBuf, out = guarded(n, fOff, fFill)
	UnpackInto(out, wire)
	unpackGeneric(wantOut, wantWire)
	sameWords(t, "UnpackInto "+what, out, wantOut)
	checkGuard(t, "UnpackInto "+what, fBuf, n, fOff, fFill)
}

func halfLengths() []int {
	var ns []int
	for n := 0; n <= 67; n++ {
		ns = append(ns, n)
	}
	return append(ns, 1023, 4097, 100003)
}

// TestHalfKernelsMatchTwins: every length around the vector width, both
// operands at every slice offset (the kernels use unaligned loads and
// stores), odd element counts through the packed-word pair, on
// gradient-like values, the full exponent range, arbitrary bit patterns
// and the special values.
func TestHalfKernelsMatchTwins(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, kind := range halfKinds {
		for _, n := range halfLengths() {
			offs := 8
			if n > 5000 {
				offs = 2
			}
			src := halfVec(rng, n, kind)
			for fOff := 0; fOff < offs; fOff++ {
				for hOff := 0; hOff < offs; hOff++ {
					checkHalfKernels(t, src, fOff, hOff)
				}
			}
		}
	}
}

// TestHalfKernelsSpecials puts every special value in every lane of a
// vector and pins a few results absolutely, so a kernel and a twin that
// were wrong together would still show.
func TestHalfKernelsSpecials(t *testing.T) {
	for lane := 0; lane < 8; lane++ {
		for _, b := range halfSpecials {
			src := make([]float32, 16)
			for i := range src {
				src[i] = float32(i) * 0.125
			}
			src[lane], src[8+lane] = math.Float32frombits(b), math.Float32frombits(b)
			checkHalfKernels(t, src, 0, 0)
		}
	}
	for _, c := range []struct {
		f32  uint32
		half Bits
	}{
		{0x80000000, 0x8000},
		{0xFF800000, 0xFC00},
		{0x7F800001, 0x7E00}, // signalling NaN, payload in the dropped bits: quiet, payload gone
		{0x7FA00000, 0x7F00}, // signalling NaN, payload in the kept bits
		{0xFFC01234, 0xFE00},
		{0xFFFFFFFF, 0xFFFF},
		{0x807FFFFF, 0x8000}, // float32 denormal
		{0x477FE000, 0x7BFF}, // 65504
		{0x477FEFFF, 0x7BFF}, // 65519.996
		{0x477FF000, 0x7C00}, // 65520
		{0x33800000, 0x0001}, // 2^-24
		{0x33000000, 0x0000}, // 2^-25 ties to zero
		{0x33000001, 0x0001},
		{0xB3C00000, 0x8002}, // -1.5 * 2^-24 ties up to even
		{0x387FF000, 0x0400}, // largest subnormal + half ulp ties up into the normals
	} {
		src, got := make([]float32, 8), make([]Bits, 8)
		for i := range src {
			src[i] = math.Float32frombits(c.f32)
		}
		EncodeInto(got, src)
		for lane, h := range got {
			if h != c.half {
				t.Errorf("EncodeInto lane %d: float32 bits %08x -> %04x, want %04x", lane, c.f32, h, c.half)
			}
		}
	}
}

// TestDecodeKernelExhaustive: all 65536 halves through DecodeInto and,
// as wire words, through UnpackInto.
func TestDecodeKernelExhaustive(t *testing.T) {
	halves := make([]Bits, 1<<16)
	wire := make([]float32, 1<<15)
	for i := range halves {
		halves[i] = Bits(i)
	}
	for w := range wire {
		wire[w] = math.Float32frombits(uint32(2*w) | uint32(2*w+1)<<16)
	}
	got, want := make([]float32, 1<<16), make([]float32, 1<<16)
	decodeGeneric(want, halves)
	DecodeInto(got, halves)
	sameWords(t, "DecodeInto all halves", got, want)
	clear(got)
	UnpackInto(got, wire)
	sameWords(t, "UnpackInto all halves", got, want)
}

// TestEncodeKernelExhaustive sweeps every one of the 2^32 float32 bit
// patterns through EncodeInto and the twin when the F16C kernel is what
// EncodeInto runs (about 20 s). Under -short, under the race detector
// and in builds without the kernel — where the sweep would compare the
// twin to itself — it runs every sign+exponent class with the edgeFracs
// mantissa patterns plus two million random words instead.
func TestEncodeKernelExhaustive(t *testing.T) {
	const chunk = 1 << 16
	src, got, want := make([]float32, chunk), make([]Bits, chunk), make([]Bits, chunk)
	check := func(n int) {
		t.Helper()
		EncodeInto(got[:n], src[:n])
		encodeGeneric(want[:n], src[:n])
		sameHalves(t, "EncodeInto", got[:n], want[:n], src[:n])
	}
	if cpu.HasF16C && !testing.Short() && !raceEnabled {
		for base := uint64(0); base < 1<<32; base += chunk {
			for i := range src {
				src[i] = math.Float32frombits(uint32(base) + uint32(i))
			}
			check(chunk)
		}
		return
	}
	n := 0
	for se := uint32(0); se < 512; se++ {
		for _, frac := range edgeFracs {
			src[n] = math.Float32frombits(se<<23 | frac)
			n++
		}
	}
	check(n)
	rng := rand.New(rand.NewSource(25))
	for done := 0; done < 2_000_000; done += chunk {
		for i := range src {
			src[i] = math.Float32frombits(rng.Uint32())
		}
		check(chunk)
	}
}

// Every wrapper must panic on inconsistent lengths — in Go, before any
// pointer reaches the assembly. A kernel reached with a short slice
// would fault or corrupt the heap instead of panicking.
func TestHalfKernelsLengthMismatchPanics(t *testing.T) {
	f := func(n int) []float32 { return make([]float32, n) }
	h := func(n int) []Bits { return make([]Bits, n) }
	for name, call := range map[string]func(){
		"EncodeInto short dst": func() { EncodeInto(h(63), f(64)) },
		"EncodeInto long dst":  func() { EncodeInto(h(65), f(64)) },
		"EncodeInto nil dst":   func() { EncodeInto(nil, f(64)) },
		"EncodeInto nil src":   func() { EncodeInto(h(64), nil) },
		"DecodeInto short src": func() { DecodeInto(f(64), h(8)) },
		"DecodeInto long src":  func() { DecodeInto(f(64), h(65)) },
		"DecodeInto nil src":   func() { DecodeInto(f(64), nil) },
		"DecodeInto nil dst":   func() { DecodeInto(nil, h(64)) },
		"PackInto short dst":   func() { PackInto(f(31), f(64)) },
		"PackInto long dst":    func() { PackInto(f(33), f(64)) },
		"PackInto odd, short":  func() { PackInto(f(32), f(65)) },
		"PackInto nil dst":     func() { PackInto(nil, f(64)) },
		"PackInto nil src":     func() { PackInto(f(32), nil) },
		"UnpackInto short src": func() { UnpackInto(f(64), f(31)) },
		"UnpackInto long src":  func() { UnpackInto(f(64), f(33)) },
		"UnpackInto odd short": func() { UnpackInto(f(65), f(32)) },
		"UnpackInto nil src":   func() { UnpackInto(f(64), nil) },
		"UnpackInto nil dst":   func() { UnpackInto(nil, f(32)) },
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

func TestHalfKernelsZeroAllocs(t *testing.T) {
	const n = 1003
	rng := rand.New(rand.NewSource(23))
	x, y := halfVec(rng, n, "gaussian"), make([]float32, n)
	halves, wire := make([]Bits, n), make([]float32, (n+1)/2)
	for name, call := range map[string]func(){
		"EncodeInto": func() { EncodeInto(halves, x) },
		"DecodeInto": func() { DecodeInto(y, halves) },
		"PackInto":   func() { PackInto(wire, x) },
		"UnpackInto": func() { UnpackInto(y, wire) },
	} {
		if a := testing.AllocsPerRun(20, call); a != 0 {
			t.Errorf("%s: %v allocs per call, want 0", name, a)
		}
	}
}

// FuzzHalfKernels feeds arbitrary float32 bit patterns at an arbitrary
// length and pair of slice offsets to the four bulk conversions and
// their twins, then reads the same words as packed halves: unpacking and
// packing again must reproduce every half (a NaN comes back quiet).
func FuzzHalfKernels(f *testing.F) {
	rng := rand.New(rand.NewSource(24))
	for _, kind := range halfKinds {
		for _, n := range []int{1, 7, 8, 9, 33, 67} {
			raw := make([]byte, 4*n)
			for i, v := range halfVec(rng, n, kind) {
				binary.LittleEndian.PutUint32(raw[4*i:], math.Float32bits(v))
			}
			f.Add(raw, uint8(rng.Intn(64)), uint16(rng.Intn(n+1)))
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte, offByte uint8, drop uint16) {
		if len(raw) < 4 || len(raw) > 1<<16 {
			return
		}
		words := make([]float32, len(raw)/4)
		for i := range words {
			words[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		fOff, hOff := int(offByte%8), int(offByte/8%8)
		checkHalfKernels(t, words[:len(words)-int(drop)%len(words)], fOff, hOff)

		// The words as a packed payload of n halves, n odd or even.
		n := 2*len(words) - int(drop)%2
		_, vals := guarded(n, fOff, float32(0))
		UnpackInto(vals, words)
		_, back := guarded(len(words), hOff, float32(0))
		PackInto(back, vals)
		for i := 0; i < 2*len(words); i++ {
			got := Bits(math.Float32bits(back[i/2]) >> (16 * (i % 2)))
			want := Bits(math.Float32bits(words[i/2]) >> (16 * (i % 2)))
			switch {
			case i >= n:
				want = 0
			case isNaN(want):
				want |= 0x0200
			}
			if got != want {
				t.Fatalf("pack(unpack) of %d halves: half %d is %04x, want %04x", n, i, got, want)
			}
		}
	})
}
