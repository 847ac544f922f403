// Package float16 implements IEEE-754 binary16 ("half precision"). The
// paper's Adasum implementation supports fp16 gradients for compute and
// communication efficiency (§4.4.1); Go has no native half type, so
// values are stored as uint16 bit patterns and converted to and from
// float32 for arithmetic. Conversions implement round-to-nearest-even,
// subnormals, infinities and NaN propagation.
//
// There are two implementations of the conversion and they agree on
// every input. The table-driven FromFloat32/ToFloat32 in this file are
// the definition: they serve single values, every build without the
// assembly, and the tail of every bulk call. The bulk forms (bulk.go:
// EncodeInto/DecodeInto over []Bits, PackInto/UnpackInto over fp16 wire
// words) run VCVTPS2PH/VCVTPH2PS on an amd64 CPU with F16C, eight
// elements per instruction. The hardware conversion equals the tables on
// all 2^32 float32 patterns and all 2^16 halves — NaN payloads,
// signalling NaNs and rounding ties included — and the test suite
// re-proves that on the machine it runs on (TestEncodeKernelExhaustive,
// TestDecodeKernelExhaustive), so which one ran is not observable.
package float16

import "math"

// Bits is the raw binary16 bit pattern of a half-precision float.
type Bits uint16

const (
	signMask     = 0x8000
	expMask      = 0x7C00
	fracMask     = 0x03FF
	expBias      = 15
	maxExp       = 0x1F
	PositiveInf  = Bits(0x7C00)
	NegativeInf  = Bits(0xFC00)
	NaN          = Bits(0x7E00)
	MaxValue     = 65504.0 // largest finite half
	MinNormal    = 6.103515625e-05
	MinSubnormal = 5.9604644775390625e-08
)

// Conversion tables. Both scalar directions are table-driven:
//
//   - encoding indexes a 512-entry table by the float32's sign+exponent
//     byte, replacing the per-value branch tree of the reference
//     implementation with one shift/add plus the round-to-nearest-even
//     fixup (which must inspect the mantissa and cannot be tabled);
//   - decoding is a straight 65536-entry lookup.
//
// The encode table packs all three per-class values into one uint32 —
// bits 0–15 the half bits before the mantissa contribution, bits 24–28
// the mantissa right shift (encNoMant = no mantissa/rounding; the top
// byte holds nothing else, so extracting it is a bare enc>>24), and bit
// 23 the implicit-bit addend for subnormal halves, positioned so it
// adds onto the 23-bit float32 fraction directly. One packed entry
// instead of three parallel tables keeps FromFloat32 to a single load
// and under the compiler's inlining budget, so the twins' loops inline
// the conversion (DESIGN.md "Half-precision kernels" has the per-element
// cost of both paths).
//
// The tables are built at init from the reference conversions, so they
// are exact by construction; the test suite additionally pins the fast
// paths to the references exhaustively (decode) and across the exponent
// boundaries (encode).
var (
	encTable [512]uint32
	decTable [1 << 16]float32
)

// encNoMant marks sign+exponent classes whose result ignores the
// mantissa entirely (zero underflow and overflow→inf); NaNs are the one
// exception, branched on explicitly. The value is chosen so the class
// needs no branch in the hot path: with a shift of 31, the mantissa
// contribution (m>>31, m < 2^24) and the rounding fixup
// ((2^30-1 + rem + lowbit) >> 31, sum < 2^31) are both identically
// zero, so the conversion falls out of the same arithmetic as the
// normal and subnormal classes and returns the tabled base bits alone.
const encNoMant = 31

func init() {
	for s := 0; s < 2; s++ {
		sign := uint16(s << 15)
		for exp := 0; exp < 256; exp++ {
			i := s<<8 | exp
			e := exp - 127 + expBias
			switch {
			case exp == 0xFF: // inf and NaN (NaN payload handled by the branch)
				encTable[i] = uint32(sign|expMask) | encNoMant<<24
			case e >= maxExp: // overflow -> inf
				encTable[i] = uint32(sign|expMask) | encNoMant<<24
			case e >= 1: // normal half
				encTable[i] = uint32(sign|uint16(e<<10)) | 13<<24
			case e >= -10: // subnormal half
				encTable[i] = uint32(sign) | uint32(14-e)<<24 | 0x800000
			default: // underflow -> signed zero
				encTable[i] = uint32(sign) | encNoMant<<24
			}
		}
	}
	for i := range decTable {
		decTable[i] = toFloat32Ref(Bits(i))
	}
}

// FromFloat32 converts a float32 to the nearest binary16, with
// round-to-nearest-even. Values beyond ±65504 become infinities. It is
// the table-driven form of the branch-tree fromFloat32Ref in
// float16_test.go and bit-identical to it.
//
//adasum:noalloc
func FromFloat32(f float32) Bits {
	b := math.Float32bits(f)
	if b<<1 > 0xFF000000 { // sign shifted out: true exactly for NaNs
		// NaN: preserve a quiet NaN with some payload bits. The one
		// input class whose result the tabled arithmetic below cannot
		// produce (it would collapse payloads to infinity).
		return Bits(b>>16&0x8000 | 0x7E00 | (b&0x7FFFFF)>>13)
	}
	enc := encTable[b>>23] // indexed by the sign+exponent byte
	shift := enc >> 24
	// enc&0x800000 is the implicit-bit addend (set only for subnormal
	// halves), pre-positioned at the float32 fraction width.
	m := b&0x7FFFFF + enc&0x800000
	// One fused shift-and-round-to-nearest-even: pre-biasing m by
	// (halfway - 1) plus the pre-rounding low result bit ((m>>shift)&1 —
	// every tabled base is even, so this IS the result's tie bit) makes
	// the truncating shift round correctly, the carry propagating into
	// the exponent (subnormal -> normal, normal -> inf) exactly as IEEE
	// rounding requires. The encNoMant classes ride the same arithmetic:
	// at shift 31 both the mantissa contribution and the bias vanish
	// (see the constant's comment), leaving the tabled bits — signed
	// zero or infinity — untouched. Everything is a single expression to
	// keep the function within the inlining budget. The Bits conversion
	// truncates enc to its base bits, and the 16-bit add cannot wrap: the
	// largest possible result is infinity's bit pattern.
	return Bits(enc) + Bits((m+(m>>shift)&1+1<<(shift-1)-1)>>shift)
}

// ToFloat32 converts a binary16 bit pattern to float32 exactly (every
// half value is representable in single precision), by table lookup.
func ToFloat32(h Bits) float32 { return decTable[h] }

// toFloat32Ref is the algorithmic reference conversion that builds the
// decode table.
func toFloat32Ref(h Bits) float32 {
	sign := uint32(h&signMask) << 16
	exp := uint32(h&expMask) >> 10
	frac := uint32(h & fracMask)

	switch exp {
	case 0:
		if frac == 0 {
			return math.Float32frombits(sign) // signed zero
		}
		// Subnormal: normalize.
		e := uint32(127 - expBias + 1)
		for frac&0x400 == 0 {
			frac <<= 1
			e--
		}
		frac &= fracMask
		return math.Float32frombits(sign | (e << 23) | (frac << 13))
	case maxExp:
		if frac == 0 {
			return math.Float32frombits(sign | 0x7F800000) // inf
		}
		return math.Float32frombits(sign | 0x7F800000 | (frac << 13) | 0x400000) // quiet NaN
	default:
		e := exp - expBias + 127
		return math.Float32frombits(sign | (e << 23) | (frac << 13))
	}
}
