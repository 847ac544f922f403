package float16

import "math"

// The bulk conversions: EncodeInto/DecodeInto between []float32 and
// []Bits, and PackInto/UnpackInto between []float32 and the fp16 wire
// format — two halves per float32 wire word, element 2w in the low half
// of word w, the high half of a half-filled last word zero. The wire
// words carry raw bit patterns and are never used arithmetically.
//
// Each exported function checks its slice lengths and dispatches to a
// kernel (bulk_amd64.go: VCVTPS2PH/VCVTPH2PS on a CPU with F16C;
// bulk_noasm.go elsewhere). The *Generic functions below are the pure-Go
// twins: FromFloat32/ToFloat32 applied element by element. They define
// the result — every element converts independently, so the assembly is
// held to them bit for bit on every input, NaN payloads included — and
// they run the tail the vector loop leaves and every build without the
// assembly.

// EncodeInto converts src into dst, which must have the same length.
//
//adasum:noalloc
func EncodeInto(dst []Bits, src []float32) {
	if len(dst) != len(src) {
		panic("float16: EncodeInto length mismatch")
	}
	encodeInto(dst, src)
}

// DecodeInto converts src into dst, which must have the same length.
//
//adasum:noalloc
func DecodeInto(dst []float32, src []Bits) {
	if len(dst) != len(src) {
		panic("float16: DecodeInto length mismatch")
	}
	decodeInto(dst, src)
}

// PackInto rounds src to half precision and packs it into the wire
// words dst, which must have length (len(src)+1)/2.
//
//adasum:noalloc
func PackInto(dst, src []float32) {
	if len(dst) != (len(src)+1)/2 {
		panic("float16: PackInto length mismatch")
	}
	packInto(dst, src)
}

// UnpackInto decodes the wire words src, which must have length
// (len(dst)+1)/2, into dst. The high half of a half-filled last word is
// ignored.
//
//adasum:noalloc
func UnpackInto(dst, src []float32) {
	if len(src) != (len(dst)+1)/2 {
		panic("float16: UnpackInto length mismatch")
	}
	unpackInto(dst, src)
}

//adasum:noalloc
func encodeGeneric(dst []Bits, src []float32) {
	for i, v := range src {
		dst[i] = FromFloat32(v)
	}
}

//adasum:noalloc
func decodeGeneric(dst []float32, src []Bits) {
	for i, v := range src {
		dst[i] = ToFloat32(v)
	}
}

//adasum:noalloc
func packGeneric(dst, src []float32) {
	for w := 0; w < len(src)/2; w++ {
		lo := uint32(FromFloat32(src[2*w]))
		hi := uint32(FromFloat32(src[2*w+1]))
		dst[w] = math.Float32frombits(lo | hi<<16)
	}
	if len(src)%2 == 1 {
		dst[len(dst)-1] = math.Float32frombits(uint32(FromFloat32(src[len(src)-1])))
	}
}

//adasum:noalloc
func unpackGeneric(dst, src []float32) {
	for w := 0; w < len(dst)/2; w++ {
		bits := math.Float32bits(src[w])
		dst[2*w] = ToFloat32(Bits(bits))
		dst[2*w+1] = ToFloat32(Bits(bits >> 16))
	}
	if len(dst)%2 == 1 {
		dst[len(dst)-1] = ToFloat32(Bits(math.Float32bits(src[len(src)-1])))
	}
}
