// F16C kernels for the bulk half-precision conversions. See
// bulk_amd64.go for the dispatch and bulk.go for the twins that define
// the results.

//go:build amd64 && !noasm

#include "textflag.h"

// func encodeF16C(dst *Bits, src *float32, n int)
//
// n must be a positive multiple of 8. Eight float32 become eight halves
// per iteration. The immediate 0 selects round-to-nearest-even in the
// instruction itself (bit 2 clear: MXCSR.RC is not consulted); NaNs keep
// their sign and top ten payload bits with the quiet bit set, which is
// FromFloat32's NaN rule.
TEXT ·encodeF16C(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	SHRQ $3, CX // iterations of 8 elements

encloop:
	VMOVUPS    (SI), Y0
	VCVTPS2PH  $0, Y0, X0
	VMOVDQU    X0, (DI)
	ADDQ       $32, SI
	ADDQ       $16, DI
	DECQ       CX
	JNZ        encloop

	VZEROUPPER
	RET

// func decodeF16C(dst *float32, src *Bits, n int)
//
// n must be a positive multiple of 8. The conversion is exact; a
// signalling NaN comes out quiet with its payload shifted up, as in
// toFloat32Ref.
TEXT ·decodeF16C(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	SHRQ $3, CX // iterations of 8 elements

decloop:
	VCVTPH2PS  (SI), Y0
	VMOVUPS    Y0, (DI)
	ADDQ       $16, SI
	ADDQ       $32, DI
	DECQ       CX
	JNZ        decloop

	VZEROUPPER
	RET
