// AVX lane kernels for the per-rank arithmetic. See lanes.go for the
// contract (each lane executes the pure-Go twin's operations in the
// twin's order, every result rounded on its own — hence no FMA anywhere
// in this file) and lanes_amd64.go for the dispatchers that guarantee
// the pointer and count arguments.

//go:build amd64 && !noasm

#include "textflag.h"

// func axpyAVX(x, y *float32, n int, alpha float32)
//
// y[i] = y[i] + alpha*x[i], eight lanes per vector, four vectors per
// iteration while 32 elements remain, then one at a time.
TEXT ·axpyAVX(SB), NOSPLIT, $0-28
	MOVQ         x+0(FP), SI
	MOVQ         y+8(FP), DI
	MOVQ         n+16(FP), CX
	VBROADCASTSS alpha+24(FP), Y0
	SUBQ         $32, CX
	JLT          axpyrest

axpyloop4:
	VMULPS  (SI), Y0, Y1   // alpha*x
	VMULPS  32(SI), Y0, Y2
	VMULPS  64(SI), Y0, Y3
	VMULPS  96(SI), Y0, Y4
	VMOVUPS (DI), Y5
	VMOVUPS 32(DI), Y6
	VMOVUPS 64(DI), Y7
	VMOVUPS 96(DI), Y8
	VADDPS  Y1, Y5, Y5     // y + alpha*x
	VADDPS  Y2, Y6, Y6
	VADDPS  Y3, Y7, Y7
	VADDPS  Y4, Y8, Y8
	VMOVUPS Y5, (DI)
	VMOVUPS Y6, 32(DI)
	VMOVUPS Y7, 64(DI)
	VMOVUPS Y8, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $32, CX
	JGE     axpyloop4

axpyrest:
	ADDQ $32, CX
	JZ   axpydone

axpyloop:
	VMULPS  (SI), Y0, Y1
	VMOVUPS (DI), Y5
	VADDPS  Y1, Y5, Y5
	VMOVUPS Y5, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $8, CX
	JNZ     axpyloop

axpydone:
	VZEROUPPER
	RET

// func subAVX(dst, a, b *float32, n int)
//
// dst[i] = a[i] - b[i]. Both loads of a vector precede its store, so dst
// may be a or b.
TEXT ·subAVX(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), CX
	SHRQ $3, CX

subloop:
	VMOVUPS (SI), Y0
	VSUBPS  (DX), Y0, Y0 // a - b
	VMOVUPS Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI
	DECQ    CX
	JNZ     subloop
	VZEROUPPER
	RET

// func norm2AVX(a *float32, n int, s *[4]float64)
//
// n is a positive multiple of 4. One ymm accumulator: lane j sums
// a[i]² over i%4 == j in index order, so each lane's chain of adds is
// norm2Generic's s_j, operation for operation.
TEXT ·norm2AVX(SB), NOSPLIT, $0-24
	MOVQ   a+0(FP), SI
	MOVQ   n+8(FP), CX
	MOVQ   s+16(FP), DX
	VXORPD Y0, Y0, Y0
	SHRQ   $2, CX

norm2loop:
	VCVTPS2PD (SI), Y1 // a[i:i+4] widened
	VMULPD    Y1, Y1, Y1
	VADDPD    Y1, Y0, Y0
	ADDQ      $16, SI
	DECQ      CX
	JNZ       norm2loop
	VMOVUPD   Y0, (DX)
	VZEROUPPER
	RET

// func scaledCombineAVX(dst, a, b *float32, n int, ca, cb float32)
//
// dst[i] = ca*a[i] + cb*b[i]. Both loads of a vector precede its store,
// so dst may be a or b.
TEXT ·scaledCombineAVX(SB), NOSPLIT, $0-40
	MOVQ         dst+0(FP), DI
	MOVQ         a+8(FP), SI
	MOVQ         b+16(FP), DX
	MOVQ         n+24(FP), CX
	VBROADCASTSS ca+32(FP), Y0
	VBROADCASTSS cb+36(FP), Y1
	SHRQ         $3, CX

combineloop:
	VMULPS  (SI), Y0, Y2 // ca*a
	VMULPS  (DX), Y1, Y3 // cb*b
	VADDPS  Y3, Y2, Y2
	VMOVUPS Y2, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI
	DECQ    CX
	JNZ     combineloop
	VZEROUPPER
	RET

// func denseTileAVX(yt, xt, w, b *float32, in, out int)
//
// For each output o, with lane l holding sample l of the tile:
//
//	acc = 0
//	per group of four features: acc += ((w0*x0 + w1*x1) + w2*x2) + w3*x3
//	per tail feature:           acc += w*x
//	acc += b[o]                 (when b != nil)
//	yt[o*8 : o*8+8] = acc
//
// which is denseForwardGeneric's order for every lane. BX walks the
// weight matrix once, front to back; DX walks the tile once per output.
TEXT ·denseTileAVX(SB), NOSPLIT, $0-48
	MOVQ yt+0(FP), DI
	MOVQ xt+8(FP), SI
	MOVQ w+16(FP), BX
	MOVQ b+24(FP), R8
	MOVQ in+32(FP), R9
	MOVQ out+40(FP), R10
	MOVQ R9, R11
	SHRQ $2, R11         // groups of four features
	ANDQ $3, R9          // tail features

denserow:
	VXORPS Y0, Y0, Y0
	MOVQ   SI, DX
	MOVQ   R11, CX
	TESTQ  CX, CX
	JZ     densetail

densegroup:
	VBROADCASTSS (BX), Y1
	VBROADCASTSS 4(BX), Y2
	VBROADCASTSS 8(BX), Y3
	VBROADCASTSS 12(BX), Y4
	VMULPS       (DX), Y1, Y1
	VMULPS       32(DX), Y2, Y2
	VMULPS       64(DX), Y3, Y3
	VMULPS       96(DX), Y4, Y4
	VADDPS       Y2, Y1, Y1
	VADDPS       Y3, Y1, Y1
	VADDPS       Y4, Y1, Y1
	VADDPS       Y1, Y0, Y0
	ADDQ         $16, BX
	ADDQ         $128, DX
	DECQ         CX
	JNZ          densegroup

densetail:
	MOVQ  R9, CX
	TESTQ CX, CX
	JZ    densebias

densetailloop:
	VBROADCASTSS (BX), Y1
	VMULPS       (DX), Y1, Y1
	VADDPS       Y1, Y0, Y0
	ADDQ         $4, BX
	ADDQ         $32, DX
	DECQ         CX
	JNZ          densetailloop

densebias:
	TESTQ        R8, R8
	JZ           densestore
	VBROADCASTSS (R8), Y1
	VADDPS       Y1, Y0, Y0
	ADDQ         $4, R8

densestore:
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	DECQ    R10
	JNZ     denserow
	VZEROUPPER
	RET

// func denseRowsAVX(y, x, w, b *float32, in, rows int)
//
// One sample through the first rows outputs of an in-wide layer, eight
// outputs at a time with lane l holding output o+l. Per group of four
// features the eight rows' 128-bit pieces w[o+l][i..i+3] are loaded two
// to a register (rows l and l+4 in the two halves) and transposed in
// registers, so that column j holds w[o+l][i+j] on lane l; each column
// is multiplied by a broadcast x[i+j]:
//
//	acc = 0
//	per group of four features: acc += ((w0*x0 + w1*x1) + w2*x2) + w3*x3
//	per tail feature:           acc += w*x
//	acc += b[o+l]               (when b != nil)
//	y[o : o+8] = acc
//
// which is denseForwardGeneric's order for every lane. The first source
// of every VMULPS and VADDPS (the middle operand here) is the
// destination operand of the twin's MULSS/ADDSS, so that two NaN
// operands leave the payload the twin leaves. BX walks rows o..o+3 and
// R9 rows o+4..o+7, both across the features; R13 is the row stride in
// bytes and AX three times it. The 128-bit loads stop at the last whole
// group: the tail reads one float at a time, so no load passes the end
// of a row.
TEXT ·denseRowsAVX(SB), NOSPLIT, $0-48
	MOVQ y+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ w+16(FP), BX
	MOVQ b+24(FP), R8
	MOVQ in+32(FP), R11
	MOVQ rows+40(FP), R10
	LEAQ (R11*4), R13
	LEAQ (R13)(R13*2), AX
	MOVQ R11, R12
	SHRQ $2, R11          // groups of four features
	ANDQ $3, R12          // tail features
	SHRQ $3, R10          // blocks of eight rows

rowsblock:
	LEAQ   (BX)(R13*4), R9
	VXORPS Y0, Y0, Y0
	MOVQ   SI, DX
	MOVQ   R11, CX
	TESTQ  CX, CX
	JZ     rowstail

rowsgroup:
	VMOVUPS      (BX), X1
	VMOVUPS      (BX)(R13*1), X2
	VMOVUPS      (BX)(R13*2), X3
	VMOVUPS      (BX)(AX*1), X4
	VINSERTF128  $1, (R9), Y1, Y1        // rows 0|4
	VINSERTF128  $1, (R9)(R13*1), Y2, Y2 // rows 1|5
	VINSERTF128  $1, (R9)(R13*2), Y3, Y3 // rows 2|6
	VINSERTF128  $1, (R9)(AX*1), Y4, Y4  // rows 3|7
	VUNPCKLPS    Y2, Y1, Y5              // r0.0 r1.0 r0.1 r1.1
	VUNPCKHPS    Y2, Y1, Y6              // r0.2 r1.2 r0.3 r1.3
	VUNPCKLPS    Y4, Y3, Y7              // r2.0 r3.0 r2.1 r3.1
	VUNPCKHPS    Y4, Y3, Y8              // r2.2 r3.2 r2.3 r3.3
	VSHUFPS      $0x44, Y7, Y5, Y1       // column 0
	VSHUFPS      $0xEE, Y7, Y5, Y2       // column 1
	VSHUFPS      $0x44, Y8, Y6, Y3       // column 2
	VSHUFPS      $0xEE, Y8, Y6, Y4       // column 3
	VBROADCASTSS (DX), Y5
	VBROADCASTSS 4(DX), Y6
	VBROADCASTSS 8(DX), Y7
	VBROADCASTSS 12(DX), Y8
	VMULPS       Y5, Y1, Y1              // w0*x0
	VMULPS       Y6, Y2, Y2
	VMULPS       Y7, Y3, Y3
	VMULPS       Y8, Y4, Y4
	VADDPS       Y1, Y2, Y2              // twin: p1 += p0
	VADDPS       Y2, Y3, Y3              // p2 += that
	VADDPS       Y3, Y4, Y4              // p3 += that
	VADDPS       Y4, Y0, Y0              // acc += that
	ADDQ         $16, BX
	ADDQ         $16, R9
	ADDQ         $16, DX
	DECQ         CX
	JNZ          rowsgroup

rowstail:
	MOVQ  R12, CX
	TESTQ CX, CX
	JZ    rowsbias

rowstailloop:
	VMOVSS       (BX), X1
	VINSERTPS    $0x10, (BX)(R13*1), X1, X1
	VINSERTPS    $0x20, (BX)(R13*2), X1, X1
	VINSERTPS    $0x30, (BX)(AX*1), X1, X1
	VMOVSS       (R9), X2
	VINSERTPS    $0x10, (R9)(R13*1), X2, X2
	VINSERTPS    $0x20, (R9)(R13*2), X2, X2
	VINSERTPS    $0x30, (R9)(AX*1), X2, X2
	VINSERTF128  $1, X2, Y1, Y1
	VBROADCASTSS (DX), Y5
	VMULPS       Y1, Y5, Y1              // twin: x*w here, not w*x
	VADDPS       Y1, Y0, Y0
	ADDQ         $4, BX
	ADDQ         $4, R9
	ADDQ         $4, DX
	DECQ         CX
	JNZ          rowstailloop

rowsbias:
	TESTQ  R8, R8
	JZ     rowsstore
	VADDPS (R8), Y0, Y0
	ADDQ   $32, R8

rowsstore:
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	LEAQ    (R9)(AX*1), BX // R9 is one row past o+4: three more is row o+8
	DECQ    R10
	JNZ     rowsblock
	VZEROUPPER
	RET

// func backwardRowsAVX(dst, gp, src, bias *float32, outer, inner, ga, gb, width, cols int, add bool)
//
// backwardRows over columns 0..cols-1 on register tiles, and — when bias
// is not nil — biasGrad's sum of each row's terms into bias[a]. Row a
// takes its terms 64 b at a time. First the chunk is listed, without a
// branch: every g[a*ga+b*gb] is stored to the next slot of the frame
// with src[b]'s byte offset, and the slot is kept (the count advances)
// only if g is non-zero — tested on the bits, so ±0 is dropped and NaN
// kept. The bias sum adds the kept g in order. Then the columns are
// taken 64 at a time (eight accumulators), then 32 (four), then 8
// (one): a tile's accumulators are loaded from dst — or start at +0 in
// the first chunk of a row without add — and every kept term broadcasts
// its g and gives each accumulator one VMULPS by src[b]'s columns and
// one VADDPS. So every lane performs backwardRows's operations for its
// element, in its order. The tile is stored at the end of the chunk; a
// row of up to 64 terms stores each tile once. Listing the terms keeps
// ReLU-sparse g (half zeros, in no pattern) from costing a mispredicted
// branch per term and tile.
//
// Registers: DI is row a of dst, DX its first g, SI src, R10/R11 the g
// strides and R12 the row stride of dst and src in bytes, R13 cols in
// bytes, R8 the listed slots in bytes, BX a tile's byte offset, AX
// src+BX, CX a slot, R9 its src offset, X13 the bias sum.
// Frame: 64 slots of 16 bytes (g, then the offset), then a at 1024, the
// terms of the row already listed at 1032, and whether tiles load at 1040.
TEXT ·backwardRowsAVX(SB), 0, $1048-81
	MOVQ   dst+0(FP), DI
	MOVQ   gp+8(FP), DX
	MOVQ   src+16(FP), SI
	MOVQ   ga+48(FP), R10
	SHLQ   $2, R10
	MOVQ   gb+56(FP), R11
	SHLQ   $2, R11
	MOVQ   width+64(FP), R12
	SHLQ   $2, R12
	MOVQ   cols+72(FP), R13
	SHLQ   $2, R13
	MOVQ   $0, 1024(SP)

rowsrow:
	MOVQ    $0, 1032(SP)
	MOVBQZX add+80(FP), AX
	MOVQ    AX, 1040(SP)
	VXORPS  X13, X13, X13
	TESTQ   AX, AX
	JEQ     rowschunk
	MOVQ    bias+24(FP), AX
	TESTQ   AX, AX
	JEQ     rowschunk
	MOVQ    1024(SP), CX
	VMOVSS  (AX)(CX*4), X13

rowschunk:
	MOVQ  1032(SP), AX // b of the chunk's first term
	MOVQ  AX, R9
	IMULQ R11, R9
	ADDQ  DX, R9       // its g
	IMULQ R12, AX      // its src offset
	MOVQ  inner+40(FP), CX
	SUBQ  1032(SP), CX
	CMPQ  CX, $64
	JLE   rowslist
	MOVQ  $64, CX

rowslist:
	ADDQ CX, 1032(SP)
	XORQ R8, R8

rowslistloop:
	MOVL    (R9), BX
	MOVL    BX, (SP)(R8*1)
	MOVQ    AX, 8(SP)(R8*1)
	ADDL    BX, BX      // drops the sign: zero for ±0 only
	SETNE   BL
	MOVBQZX BL, BX
	SHLQ    $4, BX
	ADDQ    BX, R8
	ADDQ    R11, R9
	ADDQ    R12, AX
	DECQ    CX
	JNZ     rowslistloop

	CMPQ bias+24(FP), $0
	JEQ  rowstiles
	XORQ CX, CX
	JMP  rowsbiasnext

rowsbiasterm:
	VADDSS (SP)(CX*1), X13, X13
	ADDQ   $16, CX

rowsbiasnext:
	CMPQ CX, R8
	JLT  rowsbiasterm

rowstiles:
	XORQ BX, BX

rows64:
	LEAQ 256(BX), AX
	CMPQ AX, R13
	JGT  rows32
	CMPQ 1040(SP), $0
	JEQ  rows64zero
	VMOVUPS (DI)(BX*1), Y0
	VMOVUPS 32(DI)(BX*1), Y1
	VMOVUPS 64(DI)(BX*1), Y2
	VMOVUPS 96(DI)(BX*1), Y3
	VMOVUPS 128(DI)(BX*1), Y4
	VMOVUPS 160(DI)(BX*1), Y5
	VMOVUPS 192(DI)(BX*1), Y6
	VMOVUPS 224(DI)(BX*1), Y7
	JMP     rows64run

rows64zero:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

rows64run:
	LEAQ (SI)(BX*1), AX
	XORQ CX, CX
	JMP  rows64next

rows64term:
	VBROADCASTSS (SP)(CX*1), Y8
	MOVQ         8(SP)(CX*1), R9
	VMULPS       (AX)(R9*1), Y8, Y9
	VMULPS       32(AX)(R9*1), Y8, Y10
	VMULPS       64(AX)(R9*1), Y8, Y11
	VMULPS       96(AX)(R9*1), Y8, Y12
	VADDPS       Y9, Y0, Y0
	VADDPS       Y10, Y1, Y1
	VADDPS       Y11, Y2, Y2
	VADDPS       Y12, Y3, Y3
	VMULPS       128(AX)(R9*1), Y8, Y9
	VMULPS       160(AX)(R9*1), Y8, Y10
	VMULPS       192(AX)(R9*1), Y8, Y11
	VMULPS       224(AX)(R9*1), Y8, Y12
	VADDPS       Y9, Y4, Y4
	VADDPS       Y10, Y5, Y5
	VADDPS       Y11, Y6, Y6
	VADDPS       Y12, Y7, Y7
	ADDQ         $16, CX

rows64next:
	CMPQ CX, R8
	JLT  rows64term
	VMOVUPS Y0, (DI)(BX*1)
	VMOVUPS Y1, 32(DI)(BX*1)
	VMOVUPS Y2, 64(DI)(BX*1)
	VMOVUPS Y3, 96(DI)(BX*1)
	VMOVUPS Y4, 128(DI)(BX*1)
	VMOVUPS Y5, 160(DI)(BX*1)
	VMOVUPS Y6, 192(DI)(BX*1)
	VMOVUPS Y7, 224(DI)(BX*1)
	ADDQ    $256, BX
	JMP     rows64
rows32:
	LEAQ 128(BX), AX
	CMPQ AX, R13
	JGT  rows8
	CMPQ 1040(SP), $0
	JEQ  rows32zero
	VMOVUPS (DI)(BX*1), Y0
	VMOVUPS 32(DI)(BX*1), Y1
	VMOVUPS 64(DI)(BX*1), Y2
	VMOVUPS 96(DI)(BX*1), Y3
	JMP     rows32run

rows32zero:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3

rows32run:
	LEAQ (SI)(BX*1), AX
	XORQ CX, CX
	JMP  rows32next

rows32term:
	VBROADCASTSS (SP)(CX*1), Y8
	MOVQ         8(SP)(CX*1), R9
	VMULPS       (AX)(R9*1), Y8, Y9
	VMULPS       32(AX)(R9*1), Y8, Y10
	VMULPS       64(AX)(R9*1), Y8, Y11
	VMULPS       96(AX)(R9*1), Y8, Y12
	VADDPS       Y9, Y0, Y0
	VADDPS       Y10, Y1, Y1
	VADDPS       Y11, Y2, Y2
	VADDPS       Y12, Y3, Y3
	ADDQ         $16, CX

rows32next:
	CMPQ CX, R8
	JLT  rows32term
	VMOVUPS Y0, (DI)(BX*1)
	VMOVUPS Y1, 32(DI)(BX*1)
	VMOVUPS Y2, 64(DI)(BX*1)
	VMOVUPS Y3, 96(DI)(BX*1)
	ADDQ    $128, BX
	JMP     rows32
rows8:
	CMPQ BX, R13
	JGE  rowschunkdone
	CMPQ 1040(SP), $0
	JEQ  rows8zero
	VMOVUPS (DI)(BX*1), Y0
	JMP     rows8run

rows8zero:
	VXORPS Y0, Y0, Y0

rows8run:
	LEAQ (SI)(BX*1), AX
	XORQ CX, CX
	JMP  rows8next

rows8term:
	VBROADCASTSS (SP)(CX*1), Y8
	MOVQ         8(SP)(CX*1), R9
	VMULPS       (AX)(R9*1), Y8, Y9
	VADDPS       Y9, Y0, Y0
	ADDQ         $16, CX

rows8next:
	CMPQ CX, R8
	JLT  rows8term
	VMOVUPS Y0, (DI)(BX*1)
	ADDQ    $32, BX
	JMP     rows8
rowschunkdone:
	MOVQ   $1, 1040(SP) // later chunks add to what the earlier stored
	MOVQ   1032(SP), AX
	CMPQ   AX, inner+40(FP)
	JLT    rowschunk
	MOVQ   bias+24(FP), AX
	TESTQ  AX, AX
	JEQ    rowsnext
	MOVQ   1024(SP), CX
	VMOVSS X13, (AX)(CX*4)

rowsnext:
	ADDQ R12, DI
	ADDQ R10, DX
	MOVQ 1024(SP), AX
	INCQ AX
	MOVQ AX, 1024(SP)
	CMPQ AX, outer+32(FP)
	JLT  rowsrow
	VZEROUPPER
	RET

// func adamAVX(pp, gg, mm, vv *float32, n int, c *AdamCoef, k1, k2 float64)
//
// Four elements per iteration: the moment updates on four float32 lanes
// (xmm), the quotient on four float64 lanes (ymm), one VCVTPD2PS back.
// The quotient is first taken in the one-divide form, with k1 = LR/BC1
// and k2 = 1/sqrt(BC2) from the caller:
//
//	m = B1*m + C1*g
//	v = B2*v + (C2*g)*g
//	q' = (k1*m) / (sqrt(v)*k2 + Eps)
//
// q' is within 14 float64 ulps of the definition's quotient (DESIGN.md,
// "Lane kernels"), so the two round to the same float32 unless a float32
// rounding boundary lies near q'. Each lane checks that: |q'| must be a
// float32 normal or exactly zero, and q''s low 29 mantissa bits — the
// bits float32 rounding drops — must be more than adamMargin ulps from
// 2^28, the midpoint. The distance is taken in float64 arithmetic, which
// is exact here: the bits are ORed into 1.0 and 1 + 2^-24 subtracted.
// If any lane fails, the group recomputes the definition's sequence
//
//	q = (LR*(m/BC1)) / (sqrt(v/BC2) + Eps)
//
// on all four lanes. Then, as before,
//
//	p = p - (float32(q) + WD*p)
//
// AdamCoef field offsets: LR 0, BC1 8, BC2 16, Eps 24, B1 32, C1 36,
// B2 40, C2 44, WD 48.
TEXT ·adamAVX(SB), NOSPLIT, $0-64
	MOVQ         pp+0(FP), DI
	MOVQ         gg+8(FP), SI
	MOVQ         mm+16(FP), DX
	MOVQ         vv+24(FP), BX
	MOVQ         n+32(FP), CX
	MOVQ         c+40(FP), AX
	VBROADCASTSD k1+48(FP), Y8
	VBROADCASTSD k2+56(FP), Y9
	VBROADCASTSD 24(AX), Y10  // Eps
	VXORPD       Y11, Y11, Y11
	VBROADCASTSS 32(AX), X12  // B1
	VBROADCASTSS 36(AX), X13  // C1
	VBROADCASTSS 40(AX), X14  // B2
	VBROADCASTSS 44(AX), X15  // C2
	VBROADCASTSS 48(AX), X7   // WD
	SHRQ         $2, CX

adamloop:
	VMOVUPS    (SI), X0      // g
	VMULPS     (DX), X12, X1 // B1*m
	VMULPS     X0, X13, X2   // C1*g
	VADDPS     X2, X1, X1    // m
	VMOVUPS    X1, (DX)
	VMULPS     (BX), X14, X2 // B2*v
	VMULPS     X0, X15, X3   // C2*g
	VMULPS     X0, X3, X3    // (C2*g)*g
	VADDPS     X3, X2, X2    // v
	VMOVUPS    X2, (BX)
	VCVTPS2PD  X1, Y1
	VCVTPS2PD  X2, Y2
	VSQRTPD    Y2, Y3
	VMULPD     Y9, Y3, Y3    // sqrt(v)*k2
	VADDPD     Y10, Y3, Y3   // + Eps
	VMULPD     Y1, Y8, Y0    // k1*m
	VDIVPD     Y3, Y0, Y0    // q'

	VANDPD     adamAbs<>(SB), Y0, Y4
	VCMPPD     $0x0D, adamFltMin<>(SB), Y4, Y5 // |q'| >= 2^-126
	VCMPPD     $0x02, adamFltMax<>(SB), Y4, Y6 // |q'| <= MaxFloat32
	VANDPD     Y6, Y5, Y5
	VCMPPD     $0x00, Y11, Y4, Y6              // |q'| == 0
	VORPD      Y6, Y5, Y5                      // a normal float32 or zero; false for NaN
	VANDPD     adamLow29<>(SB), Y0, Y6
	VORPD      adamOne<>(SB), Y6, Y6           // 1 + low29*2^-52
	VSUBPD     adamMid<>(SB), Y6, Y6           // (low29 - 2^28)*2^-52
	VANDPD     adamAbs<>(SB), Y6, Y6
	VCMPPD     $0x0E, adamMargin<>(SB), Y6, Y6 // more than adamMargin ulps from the midpoint
	VANDPD     Y6, Y5, Y5
	VMOVMSKPD  Y5, R8
	CMPQ       R8, $15
	JNE        adamexact

adamround:
	VCVTPD2PSY Y0, X1        // the update, rounded to float32
	VMOVUPS    (DI), X4      // p
	VMULPS     X4, X7, X5    // WD*p
	VADDPS     X5, X1, X1    // update + WD*p
	VSUBPS     X1, X4, X4    // p - (update + WD*p)
	VMOVUPS    X4, (DI)
	ADDQ       $16, SI
	ADDQ       $16, DX
	ADDQ       $16, BX
	ADDQ       $16, DI
	DECQ       CX
	JNZ        adamloop
	VZEROUPPER
	RET

adamexact:
	VBROADCASTSD 8(AX), Y4
	VDIVPD       Y4, Y1, Y1 // mhat = m/BC1
	VBROADCASTSD 16(AX), Y4
	VDIVPD       Y4, Y2, Y2 // vhat = v/BC2
	VSQRTPD      Y2, Y2
	VADDPD       Y10, Y2, Y2 // sqrt(vhat) + Eps
	VBROADCASTSD 0(AX), Y4
	VMULPD       Y1, Y4, Y1 // LR*mhat
	VDIVPD       Y2, Y1, Y0
	JMP          adamround

// The rounding test's constants, four float64 lanes each. adamMargin is
// 64 ulps of the 1 + low29*2^-52 scale: 2^-46.
DATA adamAbs<>+0(SB)/8, $0x7fffffffffffffff
DATA adamAbs<>+8(SB)/8, $0x7fffffffffffffff
DATA adamAbs<>+16(SB)/8, $0x7fffffffffffffff
DATA adamAbs<>+24(SB)/8, $0x7fffffffffffffff
GLOBL adamAbs<>(SB), RODATA|NOPTR, $32

DATA adamFltMin<>+0(SB)/8, $0x3810000000000000
DATA adamFltMin<>+8(SB)/8, $0x3810000000000000
DATA adamFltMin<>+16(SB)/8, $0x3810000000000000
DATA adamFltMin<>+24(SB)/8, $0x3810000000000000
GLOBL adamFltMin<>(SB), RODATA|NOPTR, $32

DATA adamFltMax<>+0(SB)/8, $0x47efffffe0000000
DATA adamFltMax<>+8(SB)/8, $0x47efffffe0000000
DATA adamFltMax<>+16(SB)/8, $0x47efffffe0000000
DATA adamFltMax<>+24(SB)/8, $0x47efffffe0000000
GLOBL adamFltMax<>(SB), RODATA|NOPTR, $32

DATA adamLow29<>+0(SB)/8, $0x000000001fffffff
DATA adamLow29<>+8(SB)/8, $0x000000001fffffff
DATA adamLow29<>+16(SB)/8, $0x000000001fffffff
DATA adamLow29<>+24(SB)/8, $0x000000001fffffff
GLOBL adamLow29<>(SB), RODATA|NOPTR, $32

DATA adamOne<>+0(SB)/8, $0x3ff0000000000000
DATA adamOne<>+8(SB)/8, $0x3ff0000000000000
DATA adamOne<>+16(SB)/8, $0x3ff0000000000000
DATA adamOne<>+24(SB)/8, $0x3ff0000000000000
GLOBL adamOne<>(SB), RODATA|NOPTR, $32

DATA adamMid<>+0(SB)/8, $0x3ff0000010000000
DATA adamMid<>+8(SB)/8, $0x3ff0000010000000
DATA adamMid<>+16(SB)/8, $0x3ff0000010000000
DATA adamMid<>+24(SB)/8, $0x3ff0000010000000
GLOBL adamMid<>(SB), RODATA|NOPTR, $32

DATA adamMargin<>+0(SB)/8, $0x3d10000000000000
DATA adamMargin<>+8(SB)/8, $0x3d10000000000000
DATA adamMargin<>+16(SB)/8, $0x3d10000000000000
DATA adamMargin<>+24(SB)/8, $0x3d10000000000000
GLOBL adamMargin<>(SB), RODATA|NOPTR, $32

// func momentumAVX(pp, gg, vv *float32, n int, mu, wd, lr float32)
//
//	v = mu*v + (g + wd*p)
//	p = p - lr*v
TEXT ·momentumAVX(SB), NOSPLIT, $0-44
	MOVQ         pp+0(FP), DI
	MOVQ         gg+8(FP), SI
	MOVQ         vv+16(FP), DX
	MOVQ         n+24(FP), CX
	VBROADCASTSS mu+32(FP), Y5
	VBROADCASTSS wd+36(FP), Y6
	VBROADCASTSS lr+40(FP), Y7
	SHRQ         $3, CX

momentumloop:
	VMOVUPS (DI), Y0     // p
	VMULPS  Y0, Y6, Y1   // wd*p
	VMOVUPS (SI), Y2
	VADDPS  Y1, Y2, Y2   // g + wd*p
	VMULPS  (DX), Y5, Y3 // mu*v
	VADDPS  Y2, Y3, Y3   // v
	VMOVUPS Y3, (DX)
	VMULPS  Y3, Y7, Y4   // lr*v
	VSUBPS  Y4, Y0, Y0   // p - lr*v
	VMOVUPS Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI
	DECQ    CX
	JNZ     momentumloop
	VZEROUPPER
	RET
