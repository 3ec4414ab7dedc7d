//go:build amd64

#include "textflag.h"

// CPUID/XGETBV feature probes (see detectAVX2 in simd_amd64.go).

// func cpuidAsm(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidAsm(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbvAsm() (eax, edx uint32)
TEXT ·xgetbvAsm(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func quadAxpyF32AVX2(dst, b0, b1, b2, b3 *float32, a *float32, n int)
//
// dst[j] += a[0]*b0[j] + a[1]*b1[j] + a[2]*b2[j] + a[3]*b3[j] for
// j in [0,n), n a positive multiple of 8. VMULPS+VADDPS (not FMA) in the
// scalar loop's left-associated order, so results are bit-identical to
// the pure-Go fallback.
TEXT ·quadAxpyF32AVX2(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ b0+8(FP), R8
	MOVQ b1+16(FP), R9
	MOVQ b2+24(FP), R10
	MOVQ b3+32(FP), R11
	MOVQ a+40(FP), SI
	MOVQ n+48(FP), CX
	VBROADCASTSS (SI), Y8
	VBROADCASTSS 4(SI), Y9
	VBROADCASTSS 8(SI), Y10
	VBROADCASTSS 12(SI), Y11
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-16, DX
	CMPQ DX, $0
	JE   f32loop8

f32loop16:
	// Two 8-lane groups per iteration for ILP across the add chains.
	VMOVUPS (R8)(AX*4), Y1
	VMOVUPS 32(R8)(AX*4), Y5
	VMULPS  Y8, Y1, Y1
	VMULPS  Y8, Y5, Y5
	VMOVUPS (R9)(AX*4), Y2
	VMOVUPS 32(R9)(AX*4), Y6
	VMULPS  Y9, Y2, Y2
	VMULPS  Y9, Y6, Y6
	VADDPS  Y2, Y1, Y1
	VADDPS  Y6, Y5, Y5
	VMOVUPS (R10)(AX*4), Y3
	VMOVUPS 32(R10)(AX*4), Y7
	VMULPS  Y10, Y3, Y3
	VMULPS  Y10, Y7, Y7
	VADDPS  Y3, Y1, Y1
	VADDPS  Y7, Y5, Y5
	VMOVUPS (R11)(AX*4), Y4
	VMOVUPS 32(R11)(AX*4), Y12
	VMULPS  Y11, Y4, Y4
	VMULPS  Y11, Y12, Y12
	VADDPS  Y4, Y1, Y1
	VADDPS  Y12, Y5, Y5
	VADDPS  (DI)(AX*4), Y1, Y1
	VADDPS  32(DI)(AX*4), Y5, Y5
	VMOVUPS Y1, (DI)(AX*4)
	VMOVUPS Y5, 32(DI)(AX*4)
	ADDQ    $16, AX
	CMPQ    AX, DX
	JL      f32loop16

f32loop8:
	CMPQ AX, CX
	JGE  f32done
	VMOVUPS (R8)(AX*4), Y1
	VMULPS  Y8, Y1, Y1
	VMOVUPS (R9)(AX*4), Y2
	VMULPS  Y9, Y2, Y2
	VADDPS  Y2, Y1, Y1
	VMOVUPS (R10)(AX*4), Y3
	VMULPS  Y10, Y3, Y3
	VADDPS  Y3, Y1, Y1
	VMOVUPS (R11)(AX*4), Y4
	VMULPS  Y11, Y4, Y4
	VADDPS  Y4, Y1, Y1
	VADDPS  (DI)(AX*4), Y1, Y1
	VMOVUPS Y1, (DI)(AX*4)
	ADDQ    $8, AX
	JMP     f32loop8

f32done:
	VZEROUPPER
	RET

// func quadAxpyI8AVX2(dst *int32, b0, b1, b2, b3 *int8, a *int32, n int)
//
// dst[j] += a[0]*int32(b0[j]) + ... + a[3]*int32(b3[j]) for j in [0,n),
// n a positive multiple of 8. Exact int32 arithmetic (VPMOVSXBD widens,
// VPMULLD multiplies in 32 bits).
TEXT ·quadAxpyI8AVX2(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ b0+8(FP), R8
	MOVQ b1+16(FP), R9
	MOVQ b2+24(FP), R10
	MOVQ b3+32(FP), R11
	MOVQ a+40(FP), SI
	MOVQ n+48(FP), CX
	VPBROADCASTD (SI), Y8
	VPBROADCASTD 4(SI), Y9
	VPBROADCASTD 8(SI), Y10
	VPBROADCASTD 12(SI), Y11
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-16, DX
	CMPQ DX, $0
	JE   i8loop8

i8loop16:
	VPMOVSXBD (R8)(AX*1), Y1
	VPMOVSXBD 8(R8)(AX*1), Y5
	VPMULLD   Y8, Y1, Y1
	VPMULLD   Y8, Y5, Y5
	VPMOVSXBD (R9)(AX*1), Y2
	VPMOVSXBD 8(R9)(AX*1), Y6
	VPMULLD   Y9, Y2, Y2
	VPMULLD   Y9, Y6, Y6
	VPADDD    Y2, Y1, Y1
	VPADDD    Y6, Y5, Y5
	VPMOVSXBD (R10)(AX*1), Y3
	VPMOVSXBD 8(R10)(AX*1), Y7
	VPMULLD   Y10, Y3, Y3
	VPMULLD   Y10, Y7, Y7
	VPADDD    Y3, Y1, Y1
	VPADDD    Y7, Y5, Y5
	VPMOVSXBD (R11)(AX*1), Y4
	VPMOVSXBD 8(R11)(AX*1), Y12
	VPMULLD   Y11, Y4, Y4
	VPMULLD   Y11, Y12, Y12
	VPADDD    Y4, Y1, Y1
	VPADDD    Y12, Y5, Y5
	VPADDD    (DI)(AX*4), Y1, Y1
	VPADDD    32(DI)(AX*4), Y5, Y5
	VMOVDQU   Y1, (DI)(AX*4)
	VMOVDQU   Y5, 32(DI)(AX*4)
	ADDQ      $16, AX
	CMPQ      AX, DX
	JL        i8loop16

i8loop8:
	CMPQ AX, CX
	JGE  i8done
	VPMOVSXBD (R8)(AX*1), Y1
	VPMULLD   Y8, Y1, Y1
	VPMOVSXBD (R9)(AX*1), Y2
	VPMULLD   Y9, Y2, Y2
	VPADDD    Y2, Y1, Y1
	VPMOVSXBD (R10)(AX*1), Y3
	VPMULLD   Y10, Y3, Y3
	VPADDD    Y3, Y1, Y1
	VPMOVSXBD (R11)(AX*1), Y4
	VPMULLD   Y11, Y4, Y4
	VPADDD    Y4, Y1, Y1
	VPADDD    (DI)(AX*4), Y1, Y1
	VMOVDQU   Y1, (DI)(AX*4)
	ADDQ      $8, AX
	JMP       i8loop8

i8done:
	VZEROUPPER
	RET

// func convTileF64AVX2(dst, p, w0, w1, w2, w3 *float64, k, n int)
//
// dst[c*n+j] = Σ_kk p[kk*n+j]·wc[kk] for c in 0..3 and j in [0,n), n a
// positive multiple of 4: four output channels by eight (then four) pixel
// lanes stay in YMM accumulators over the whole kk loop. Every lane is
// one sum from +0, kk ascending, VMULPD then VADDPD (never FMA) with the
// scalar loop's operand order, so each element carries dotRows's bits.
TEXT ·convTileF64AVX2(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	MOVQ p+8(FP), SI
	MOVQ w0+16(FP), R8
	MOVQ w1+24(FP), R9
	MOVQ w2+32(FP), R10
	MOVQ w3+40(FP), R11
	MOVQ k+48(FP), CX
	MOVQ n+56(FP), BX
	MOVQ BX, R12
	SHLQ $3, R12 // bytes between rows of p and of dst

f64tile8:
	CMPQ BX, $8
	JL   f64tile4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ   SI, R13
	XORQ   AX, AX

f64k8:
	VMOVUPD      (R13), Y8
	VMOVUPD      32(R13), Y9
	VBROADCASTSD (R8)(AX*8), Y10
	VBROADCASTSD (R9)(AX*8), Y11
	VMULPD       Y8, Y10, Y12
	VMULPD       Y9, Y10, Y13
	VADDPD       Y12, Y0, Y0
	VADDPD       Y13, Y1, Y1
	VMULPD       Y8, Y11, Y14
	VMULPD       Y9, Y11, Y15
	VADDPD       Y14, Y2, Y2
	VADDPD       Y15, Y3, Y3
	VBROADCASTSD (R10)(AX*8), Y10
	VBROADCASTSD (R11)(AX*8), Y11
	VMULPD       Y8, Y10, Y12
	VMULPD       Y9, Y10, Y13
	VADDPD       Y12, Y4, Y4
	VADDPD       Y13, Y5, Y5
	VMULPD       Y8, Y11, Y14
	VMULPD       Y9, Y11, Y15
	VADDPD       Y14, Y6, Y6
	VADDPD       Y15, Y7, Y7
	ADDQ         R12, R13
	INCQ         AX
	CMPQ         AX, CX
	JL           f64k8

	MOVQ    DI, R14
	VMOVUPD Y0, (R14)
	VMOVUPD Y1, 32(R14)
	ADDQ    R12, R14
	VMOVUPD Y2, (R14)
	VMOVUPD Y3, 32(R14)
	ADDQ    R12, R14
	VMOVUPD Y4, (R14)
	VMOVUPD Y5, 32(R14)
	ADDQ    R12, R14
	VMOVUPD Y6, (R14)
	VMOVUPD Y7, 32(R14)
	ADDQ    $64, DI
	ADDQ    $64, SI
	SUBQ    $8, BX
	JMP     f64tile8

f64tile4:
	CMPQ BX, $4
	JL   f64tiledone
	VXORPD Y0, Y0, Y0
	VXORPD Y2, Y2, Y2
	VXORPD Y4, Y4, Y4
	VXORPD Y6, Y6, Y6
	MOVQ   SI, R13
	XORQ   AX, AX

f64k4:
	VMOVUPD      (R13), Y8
	VBROADCASTSD (R8)(AX*8), Y10
	VBROADCASTSD (R9)(AX*8), Y11
	VMULPD       Y8, Y10, Y12
	VMULPD       Y8, Y11, Y14
	VADDPD       Y12, Y0, Y0
	VADDPD       Y14, Y2, Y2
	VBROADCASTSD (R10)(AX*8), Y10
	VBROADCASTSD (R11)(AX*8), Y11
	VMULPD       Y8, Y10, Y12
	VMULPD       Y8, Y11, Y14
	VADDPD       Y12, Y4, Y4
	VADDPD       Y14, Y6, Y6
	ADDQ         R12, R13
	INCQ         AX
	CMPQ         AX, CX
	JL           f64k4

	MOVQ    DI, R14
	VMOVUPD Y0, (R14)
	ADDQ    R12, R14
	VMOVUPD Y2, (R14)
	ADDQ    R12, R14
	VMOVUPD Y4, (R14)
	ADDQ    R12, R14
	VMOVUPD Y6, (R14)

f64tiledone:
	VZEROUPPER
	RET

// func axpyF64AVX2(dst, b *float64, a float64, n int)
//
// dst[j] += a·b[j] for j in [0,n), n a positive multiple of 4: VMULPD
// then VADDPD per element, the scalar loop's bits.
TEXT ·axpyF64AVX2(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         b+8(FP), SI
	VBROADCASTSD a+16(FP), Y8
	MOVQ         n+24(FP), CX
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-16, DX
	JE           f64axpy4

f64axpy16:
	VMOVUPD (SI)(AX*8), Y0
	VMOVUPD 32(SI)(AX*8), Y1
	VMOVUPD 64(SI)(AX*8), Y2
	VMOVUPD 96(SI)(AX*8), Y3
	VMULPD  Y8, Y0, Y0
	VMULPD  Y8, Y1, Y1
	VMULPD  Y8, Y2, Y2
	VMULPD  Y8, Y3, Y3
	VADDPD  (DI)(AX*8), Y0, Y0
	VADDPD  32(DI)(AX*8), Y1, Y1
	VADDPD  64(DI)(AX*8), Y2, Y2
	VADDPD  96(DI)(AX*8), Y3, Y3
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y1, 32(DI)(AX*8)
	VMOVUPD Y2, 64(DI)(AX*8)
	VMOVUPD Y3, 96(DI)(AX*8)
	ADDQ    $16, AX
	CMPQ    AX, DX
	JL      f64axpy16

f64axpy4:
	CMPQ    AX, CX
	JGE     f64axpydone
	VMOVUPD (SI)(AX*8), Y0
	VMULPD  Y8, Y0, Y0
	VADDPD  (DI)(AX*8), Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     f64axpy4

f64axpydone:
	VZEROUPPER
	RET
