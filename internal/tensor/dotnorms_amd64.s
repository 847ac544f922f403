// AVX+FMA kernel for the fused dot/norm reduction. See dotnorms_amd64.go
// for the dispatch logic and the lane-accumulation contract.

//go:build amd64 && !noasm

#include "textflag.h"

// func dotNormsAVX(a, b *float32, n int, out *[12]float64)
//
// n must be a positive multiple of 8. Processes eight elements per
// iteration with two quad-lane accumulator sets per quantity; the pair is
// folded lane-wise before the store, so out holds
//
//	out[0:4]  dot lanes   (lane j sums elements i with i%4 == j)
//	out[4:8]  ‖a‖² lanes
//	out[8:12] ‖b‖² lanes
//
// Products of float32 values widened to float64 are exact, so the FMAs
// below produce bitwise the same partial sums as separate multiply/add.
TEXT ·dotNormsAVX(SB), NOSPLIT, $0-32
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ n+16(FP), CX
	MOVQ out+24(FP), DX
	VXORPD Y0, Y0, Y0 // dot lanes, even quads
	VXORPD Y1, Y1, Y1 // ‖a‖² lanes, even quads
	VXORPD Y2, Y2, Y2 // ‖b‖² lanes, even quads
	VXORPD Y3, Y3, Y3 // dot lanes, odd quads
	VXORPD Y4, Y4, Y4 // ‖a‖² lanes, odd quads
	VXORPD Y5, Y5, Y5 // ‖b‖² lanes, odd quads
	SHRQ $3, CX       // iterations of 8 elements

loop:
	VCVTPS2PD (SI), Y6    // a[i:i+4] widened
	VCVTPS2PD (DI), Y7    // b[i:i+4]
	VCVTPS2PD 16(SI), Y8  // a[i+4:i+8]
	VCVTPS2PD 16(DI), Y9  // b[i+4:i+8]
	VFMADD231PD Y7, Y6, Y0
	VFMADD231PD Y6, Y6, Y1
	VFMADD231PD Y7, Y7, Y2
	VFMADD231PD Y9, Y8, Y3
	VFMADD231PD Y8, Y8, Y4
	VFMADD231PD Y9, Y9, Y5
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  loop

	VADDPD Y3, Y0, Y0 // fold odd quads into even, lane-wise
	VADDPD Y4, Y1, Y1
	VADDPD Y5, Y2, Y2
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VZEROUPPER
	RET
