//go:build amd64

#include "textflag.h"

// The correlation block kernels. Both compute, for the 4 hypotheses ×
// 16 samples of one block,
//
//	ht[i][j] = +0 + H[0][i]·S_0[j] + H[1][i]·S_1[j] + … (classes in order)
//	out[i][j] = (n·ht − h[i]·t[j]) / (sh[i]·st[j]), or +0 where the
//	            denominator is 0 or NaN
//
// with every product and sum a separately rounded VMULPD / VADDPD (no
// fused multiply-add), so each element is the same chain of roundings
// as corrBlockGeneric. strip holds nc class rows of 16 samples, tbl nc
// rows of 4 hypothesis coefficients; out is 4 rows of 16.

// func corrBlockAVX512(out, strip, tbl *float64, nc int, n float64, h, sh, t, st *float64)
TEXT ·corrBlockAVX512(SB), NOSPLIT, $0-72
	MOVQ out+0(FP), DI
	MOVQ strip+8(FP), SI
	MOVQ tbl+16(FP), DX
	MOVQ nc+24(FP), CX

	// Eight accumulators: hypothesis i holds samples 0-7 in Z(2i) and
	// 8-15 in Z(2i+1).
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	TESTQ  CX, CX
	JZ     zstore

zclass:
	VMOVUPD      (SI), Z8
	VMOVUPD      64(SI), Z9
	VBROADCASTSD (DX), Z10
	VBROADCASTSD 8(DX), Z11
	VBROADCASTSD 16(DX), Z12
	VBROADCASTSD 24(DX), Z13
	VMULPD       Z10, Z8, Z14
	VMULPD       Z10, Z9, Z15
	VMULPD       Z11, Z8, Z16
	VMULPD       Z11, Z9, Z17
	VMULPD       Z12, Z8, Z18
	VMULPD       Z12, Z9, Z19
	VMULPD       Z13, Z8, Z20
	VMULPD       Z13, Z9, Z21
	VADDPD       Z14, Z0, Z0
	VADDPD       Z15, Z1, Z1
	VADDPD       Z16, Z2, Z2
	VADDPD       Z17, Z3, Z3
	VADDPD       Z18, Z4, Z4
	VADDPD       Z19, Z5, Z5
	VADDPD       Z20, Z6, Z6
	VADDPD       Z21, Z7, Z7
	ADDQ         $128, SI
	ADDQ         $32, DX
	DECQ         CX
	JNZ          zclass

zstore:
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, 128(DI)
	VMOVUPD Z3, 192(DI)
	VMOVUPD Z4, 256(DI)
	VMOVUPD Z5, 320(DI)
	VMOVUPD Z6, 384(DI)
	VMOVUPD Z7, 448(DI)

	// Correlation transform, one hypothesis row of 16 per iteration.
	VBROADCASTSD n+32(FP), Z8
	VPXORQ       Z15, Z15, Z15
	MOVQ         h+40(FP), R10
	MOVQ         sh+48(FP), R11
	MOVQ         t+56(FP), R8
	MOVQ         st+64(FP), R9
	XORQ         AX, AX

zrow:
	VBROADCASTSD (R10)(AX*8), Z9
	VBROADCASTSD (R11)(AX*8), Z10
	MOVQ         AX, R12
	SHLQ         $7, R12
	ADDQ         DI, R12

	VMOVUPD  (R12), Z11
	VMULPD   Z11, Z8, Z11
	VMULPD   (R8), Z9, Z12
	VSUBPD   Z12, Z11, Z11
	VMULPD   (R9), Z10, Z12
	VCMPPD   $12, Z15, Z12, K1 // NEQ_OQ: den ordered and non-zero
	VDIVPD.Z Z12, Z11, K1, Z11
	VMOVUPD  Z11, (R12)

	VMOVUPD  64(R12), Z11
	VMULPD   Z11, Z8, Z11
	VMULPD   64(R8), Z9, Z12
	VSUBPD   Z12, Z11, Z11
	VMULPD   64(R9), Z10, Z12
	VCMPPD   $12, Z15, Z12, K1
	VDIVPD.Z Z12, Z11, K1, Z11
	VMOVUPD  Z11, 64(R12)

	INCQ AX
	CMPQ AX, $4
	JLT  zrow
	VZEROUPPER
	RET

// func corrBlockAVX(out, strip, tbl *float64, nc int, n float64, h, sh, t, st *float64)
//
// The VEX leg has 16 registers, so it derives the block in two halves
// of 8 samples, each with 8 accumulators (hypothesis i in Y(2i) and
// Y(2i+1)).
TEXT ·corrBlockAVX(SB), NOSPLIT, $0-72
	MOVQ out+0(FP), DI
	MOVQ strip+8(FP), SI
	MOVQ tbl+16(FP), DX
	MOVQ nc+24(FP), CX
	XORQ BX, BX // byte offset of the half within a 16-sample row

yhalf:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	LEAQ   (SI)(BX*1), R10
	MOVQ   DX, R11
	MOVQ   CX, R12
	TESTQ  R12, R12
	JZ     ystore

yclass:
	VMOVUPD      (R10), Y8
	VMOVUPD      32(R10), Y9
	VBROADCASTSD (R11), Y10
	VMULPD       Y10, Y8, Y11
	VMULPD       Y10, Y9, Y12
	VADDPD       Y11, Y0, Y0
	VADDPD       Y12, Y1, Y1
	VBROADCASTSD 8(R11), Y10
	VMULPD       Y10, Y8, Y11
	VMULPD       Y10, Y9, Y12
	VADDPD       Y11, Y2, Y2
	VADDPD       Y12, Y3, Y3
	VBROADCASTSD 16(R11), Y10
	VMULPD       Y10, Y8, Y11
	VMULPD       Y10, Y9, Y12
	VADDPD       Y11, Y4, Y4
	VADDPD       Y12, Y5, Y5
	VBROADCASTSD 24(R11), Y10
	VMULPD       Y10, Y8, Y11
	VMULPD       Y10, Y9, Y12
	VADDPD       Y11, Y6, Y6
	VADDPD       Y12, Y7, Y7
	ADDQ         $128, R10
	ADDQ         $32, R11
	DECQ         R12
	JNZ          yclass

ystore:
	LEAQ    (DI)(BX*1), R13
	VMOVUPD Y0, (R13)
	VMOVUPD Y1, 32(R13)
	VMOVUPD Y2, 128(R13)
	VMOVUPD Y3, 160(R13)
	VMOVUPD Y4, 256(R13)
	VMOVUPD Y5, 288(R13)
	VMOVUPD Y6, 384(R13)
	VMOVUPD Y7, 416(R13)
	ADDQ    $64, BX
	CMPQ    BX, $128
	JLT     yhalf

	// Correlation transform, 4 samples per step.
	VBROADCASTSD n+32(FP), Y8
	VXORPD       Y15, Y15, Y15
	MOVQ         h+40(FP), R10
	MOVQ         sh+48(FP), R11
	MOVQ         t+56(FP), R8
	MOVQ         st+64(FP), R9
	XORQ         AX, AX

yrow:
	VBROADCASTSD (R10)(AX*8), Y9
	VBROADCASTSD (R11)(AX*8), Y10
	MOVQ         AX, R12
	SHLQ         $7, R12
	ADDQ         DI, R12
	XORQ         BX, BX

ystep:
	VMOVUPD (R12)(BX*1), Y11
	VMULPD  Y11, Y8, Y11
	VMULPD  (R8)(BX*1), Y9, Y12
	VSUBPD  Y12, Y11, Y11
	VMULPD  (R9)(BX*1), Y10, Y12
	VCMPPD  $12, Y15, Y12, Y13 // NEQ_OQ: den ordered and non-zero
	VDIVPD  Y12, Y11, Y11
	VANDPD  Y13, Y11, Y11
	VMOVUPD Y11, (R12)(BX*1)
	ADDQ    $32, BX
	CMPQ    BX, $128
	JLT     ystep

	INCQ AX
	CMPQ AX, $4
	JLT  yrow
	VZEROUPPER
	RET
