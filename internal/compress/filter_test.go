package compress

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The listing passes, as dispatched (the AVX2 kernels on a CPU with AVX2,
// the twins elsewhere), against their pure-Go twins bit for bit: count,
// residual, and the listed indices and bit patterns up to the cap. Under
// -tags noasm and on GOARCH=386 both sides are the twin and the tests
// still run.
//
// Which payload survives a NaN+NaN is an instruction's operand order, and
// the race detector's and the fuzzer's instrumentation may reorder the
// twin's commutative add. So the differential inputs never pair two NaNs
// of different payloads at one index (filterInputs, sanitizeNaNPairs),
// which keeps every comparison strict in every build, and
// TestFilterOperandOrder pins the order itself where it is the plain
// build's.

// filterFloors are the floors every differential case runs at: zero, the
// smallest denormal, a denormal, finite ones, +Inf, a NaN, the largest
// pattern and floorMax, which lists nothing.
var filterFloors = []uint32{0, 1, 0x00400000, 0x3f800000, 0x3a83126f, 0x7f7fffff, 0x7f800000, 0x7fc00000, 0x7fffffff, floorMax}

// filterInputs draws an n-element payload and residual of one kind.
func filterInputs(rng *rand.Rand, n int, kind string) (src, r []float32) {
	draw := func() float32 {
		switch kind {
		case "gauss":
			return float32(rng.NormFloat64())
		case "relu-sparse":
			if rng.Intn(4) != 0 {
				return float32(math.Copysign(0, float64(rng.Intn(2)*2-1)))
			}
			return float32(rng.NormFloat64())
		case "denormal":
			return math.Float32frombits(rng.Uint32() & 0x807fffff)
		default: // "specials"
			specials := []uint32{0, 0x80000000, 1, 0x00400000, 0x3f800000, 0x7f7fffff, 0x7f800000, 0xff800000,
				0x7fc00000, 0xffc00000, 0x7f800001, 0xffc12345, 0x7fffffff}
			if rng.Intn(3) == 0 {
				return float32(rng.NormFloat64())
			}
			return math.Float32frombits(specials[rng.Intn(len(specials))])
		}
	}
	src, r = make([]float32, n), make([]float32, n)
	for i := range src {
		src[i], r[i] = draw(), draw()
	}
	sanitizeNaNPairs(src, r)
	return src, r
}

// sanitizeNaNPairs gives r[i] src[i]'s payload wherever both are NaN, so
// their sum is the same NaN whichever operand an add keeps.
func sanitizeNaNPairs(src, r []float32) {
	for i := range src {
		if src[i] != src[i] && r[i] != r[i] {
			r[i] = src[i]
		}
	}
}

// checkFilter runs both passes as dispatched and as twins on copies of
// the same inputs, with list and vals exactly lim+8 long and followed by
// guard words, and compares everything the passes define. It also holds
// the twin to the definition: the count and ascending indices of the
// entries whose magnitude pattern is at least lo.
func checkFilter(t testing.TB, what string, src, r []float32, lo uint32, lim int) {
	t.Helper()
	const guard = 0xdeadbeef
	run := func(fused, kernel bool, r []float32) (int, []uint32, []uint32) {
		buf := make([]uint32, 2*(lim+8)+16)
		for i := range buf {
			buf[i] = guard
		}
		list, vals := buf[:lim+8:lim+8], buf[lim+8:2*(lim+8):2*(lim+8)]
		var n int
		switch {
		case fused && kernel:
			n = addFilter(list, vals, lim, r, src, lo)
		case fused:
			n = addFilterGeneric(list, vals, lim, r, src, 0, 0, lo)
		case kernel:
			n = filter(list, vals, lim, r, lo)
		default:
			n = filterGeneric(list, vals, lim, r, 0, 0, lo)
		}
		for i, w := range buf[2*(lim+8):] {
			if w != guard {
				t.Fatalf("%s: guard word %d past lim+8 = %d overwritten", what, i, lim+8)
			}
		}
		m := min(n, lim)
		return n, list[:m], vals[:m]
	}
	for _, fused := range []bool{true, false} {
		rk, rt := append([]float32(nil), r...), append([]float32(nil), r...)
		nk, lk, vk := run(fused, true, rk)
		nt, lt, vt := run(fused, false, rt)
		name := fmt.Sprintf("%s fused=%v lo=%#x lim=%d", what, fused, lo, lim)
		if nk != nt {
			t.Fatalf("%s: count %d, twin %d", name, nk, nt)
		}
		if i := bitsEqual(rk, rt); i >= 0 {
			t.Fatalf("%s: residual %d = %#x, twin %#x", name, i, math.Float32bits(rk[i]), math.Float32bits(rt[i]))
		}
		for i := range lt {
			if lk[i] != lt[i] || vk[i] != vt[i] {
				t.Fatalf("%s: slot %d = (%d, %#x), twin (%d, %#x)", name, i, lk[i], vk[i], lt[i], vt[i])
			}
		}
		want := 0
		for i, x := range rt {
			if absBits(x) < lo {
				continue
			}
			if want < len(lt) && (lt[want] != uint32(i) || vt[want] != math.Float32bits(x)) {
				t.Fatalf("%s: twin slot %d = (%d, %#x), want (%d, %#x)", name, want, lt[want], vt[want], i, math.Float32bits(x))
			}
			want++
		}
		if nt != want {
			t.Fatalf("%s: twin counts %d, %d entries qualify", name, nt, want)
		}
	}
}

// TestFilterKernelsMatchTwins runs lengths around the 8-lane block, every
// floor of filterFloors and every cap from 0 to n — so the list fills up
// in every block and in the scalar tail — over four payload kinds.
func TestFilterKernelsMatchTwins(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, kind := range []string{"gauss", "relu-sparse", "denormal", "specials"} {
		for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 17, 31, 33, 64, 67} {
			src, r := filterInputs(rng, n, kind)
			floors := filterFloors
			if n > 0 { // a floor among the data's own magnitudes
				floors = append(floors[:len(floors):len(floors)], absBits(src[n/2]))
			}
			for _, lo := range floors {
				for lim := 0; lim <= n; lim++ {
					checkFilter(t, fmt.Sprintf("%s n=%d", kind, n), src, r, lo, lim)
				}
			}
		}
	}
}

// TestFilterEveryMask lists a payload whose i-th block of eight has the
// lanes of bit pattern i above the floor, so every entry of the kernel's
// left-pack table is used, against the definition.
func TestFilterEveryMask(t *testing.T) {
	src, r := make([]float32, 8*256+5), make([]float32, 8*256+5)
	for m := 0; m < 256; m++ {
		for l := 0; l < 8; l++ {
			if m>>l&1 != 0 {
				src[8*m+l] = -2
			}
		}
	}
	for _, lim := range []int{0, 1000, 1024, len(src)} {
		checkFilter(t, "every mask", src, r, 0x3f800000, lim)
	}
}

// TestFilterOperandOrder pins which payload a NaN+NaN keeps: src's, in
// the fused kernel (on every build) and in the twin and addHist (on a
// plain build). The cold and warm paths therefore form the same
// residual bits; an instrumented build's twin may differ and is not
// checked.
func TestFilterOperandOrder(t *testing.T) {
	src := make([]float32, 19)
	r := make([]float32, len(src))
	for i := range src {
		src[i] = math.Float32frombits(0x7fc00000 | uint32(i))
		r[i] = math.Float32frombits(0xffc12345)
	}
	check := func(what string, got []float32) {
		t.Helper()
		for i, x := range got {
			if math.Float32bits(x) != math.Float32bits(src[i]) {
				t.Fatalf("%s: NaN+NaN at %d kept %#x, want src's %#x", what, i, math.Float32bits(x), math.Float32bits(src[i]))
			}
		}
	}
	list, vals := make([]uint32, len(src)+8), make([]uint32, len(src)+8)
	rk := append([]float32(nil), r...)
	addFilter(list, vals, len(src), rk, src, 0)
	check("addFilter", rk)
	if raceBuild || testing.CoverMode() != "" {
		t.Skip("instrumented build: the twin's operand order is not the plain build's")
	}
	rt := append([]float32(nil), r...)
	addFilterGeneric(list, vals, len(src), rt, src, 0, 0, 0)
	check("addFilterGeneric", rt)
	rh := append([]float32(nil), r...)
	addHist(new([1 << histBits]uint32), rh, src)
	check("addHist", rh)
}

// FuzzTopKFilter feeds arbitrary bit patterns — the first half of the
// words as the payload, the second as the residual — with an arbitrary
// floor and cap through checkFilter.
func FuzzTopKFilter(f *testing.F) {
	rng := rand.New(rand.NewSource(30))
	for _, kind := range []string{"gauss", "relu-sparse", "denormal", "specials"} {
		for _, n := range []int{1, 8, 9, 67} {
			src, r := filterInputs(rng, n, kind)
			raw := make([]byte, 8*n)
			for i := range src {
				binary.LittleEndian.PutUint32(raw[4*i:], math.Float32bits(src[i]))
				binary.LittleEndian.PutUint32(raw[4*(n+i):], math.Float32bits(r[i]))
			}
			for _, lo := range filterFloors {
				f.Add(raw, lo, uint16(rng.Intn(n+1)))
			}
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte, lo uint32, limRaw uint16) {
		n := min(len(raw)/8, 4096)
		src, r := make([]float32, n), make([]float32, n)
		for i := range src {
			src[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
			r[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*(n+i):]))
		}
		sanitizeNaNPairs(src, r)
		checkFilter(t, fmt.Sprintf("n=%d", n), src, r, min(lo, floorMax), int(limRaw)%(n+1))
	})
}
