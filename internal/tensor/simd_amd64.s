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

// The register tiles read B through a table of per-tap offsets: tap kk of
// lane j is b[offs[kk]+j]. A k×n matrix stored row by row is the table
// kk·ldb; a once-padded image read on its padded-width output grid is the
// table c·Hp·Wp + ky·Wp + kx (see convShape.implicit). n (the lanes) must
// be a positive multiple of the tile's width. In the narrow tiles A is
// read a scalar at a time and broadcast. Sums stay in registers across
// the whole k loop and are stored once.

// F32B(at) loads the 8 lanes of the tap whose offset is at(R14) into Y8.
#define F32B(at) MOVLQSX at(R14), DX; VMOVUPS (SI)(DX*4), Y8

// F32TAP(row, bc, t) adds the tap's product b·a (b in Y8, a at row's
// pointer plus AX) to quartet sum t.
#define F32TAP(row, bc, t) VBROADCASTSS (row)(AX*1), bc; VMULPS bc, Y8, bc; VADDPS bc, t, t

// F32ONE(row, bc, acc) adds a tail tap's product b·a to acc.
#define F32ONE(row, bc, acc) VBROADCASTSS (row)(AX*1), bc; VMULPS bc, Y8, bc; VADDPS acc, bc, acc

// func tileF32x4AVX2(dst *float32, ldd int, a0, a1, a2, a3 *float32, lda int, b *float32, offs *int32, k, n, rows int)
//
// dst[r*ldd+j] = Σ ar[kk*lda]·b[offs[kk]+j] for the rows r < rows (2..4)
// whose taps start at a0..a3, and j in [0,n), n a positive multiple of 8:
// a tile of 4 rows × 8 lanes in Y0–Y3 across the whole k loop. Each sum
// runs gemmPanel32's order: from +0, one quartet ((p0 + p1) + p2) + p3
// at a time added to it, then the k%4 tail one tap at a time; VMULPS then
// VADDPS, never FMA, with the scalar panel's operand order, so every
// element carries its bits.
TEXT ·tileF32x4AVX2(SB), NOSPLIT, $0-96
	MOVQ dst+0(FP), DI
	MOVQ ldd+8(FP), R12
	SHLQ $2, R12           // bytes between dst rows
	MOVQ a0+16(FP), R8
	MOVQ a1+24(FP), R9
	MOVQ a2+32(FP), R10
	MOVQ a3+40(FP), R11
	MOVQ lda+48(FP), R13
	SHLQ $2, R13           // bytes between A's taps
	MOVQ b+56(FP), SI
	MOVQ n+80(FP), BX

f32x4lanes:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	XORQ   AX, AX
	MOVQ   offs+64(FP), R14
	MOVQ   k+72(FP), CX
	SHRQ   $2, CX
	JZ     f32x4tail

f32x4quad:
	// The quartet's first tap starts its four sums Y4–Y7.
	F32B(0)
	VBROADCASTSS (R8)(AX*1), Y9
	VMULPS       Y9, Y8, Y4
	VBROADCASTSS (R9)(AX*1), Y10
	VMULPS       Y10, Y8, Y5
	VBROADCASTSS (R10)(AX*1), Y11
	VMULPS       Y11, Y8, Y6
	VBROADCASTSS (R11)(AX*1), Y12
	VMULPS       Y12, Y8, Y7
	ADDQ         R13, AX
	F32B(4)
	F32TAP(R8, Y9, Y4)
	F32TAP(R9, Y10, Y5)
	F32TAP(R10, Y11, Y6)
	F32TAP(R11, Y12, Y7)
	ADDQ         R13, AX
	F32B(8)
	F32TAP(R8, Y9, Y4)
	F32TAP(R9, Y10, Y5)
	F32TAP(R10, Y11, Y6)
	F32TAP(R11, Y12, Y7)
	ADDQ         R13, AX
	F32B(12)
	F32TAP(R8, Y9, Y4)
	F32TAP(R9, Y10, Y5)
	F32TAP(R10, Y11, Y6)
	F32TAP(R11, Y12, Y7)
	ADDQ         R13, AX
	ADDQ         $16, R14
	VADDPS       Y0, Y4, Y0
	VADDPS       Y1, Y5, Y1
	VADDPS       Y2, Y6, Y2
	VADDPS       Y3, Y7, Y3
	DECQ         CX
	JNZ          f32x4quad

f32x4tail:
	MOVQ k+72(FP), CX
	ANDQ $3, CX
	JZ   f32x4store

f32x4one:
	F32B(0)
	F32ONE(R8, Y9, Y0)
	F32ONE(R9, Y10, Y1)
	F32ONE(R10, Y11, Y2)
	F32ONE(R11, Y12, Y3)
	ADDQ    R13, AX
	ADDQ    $4, R14
	DECQ    CX
	JNZ     f32x4one

f32x4store:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, (DI)(R12*1)
	MOVQ    rows+88(FP), CX
	CMPQ    CX, $3
	JL      f32x4next
	VMOVUPS Y2, (DI)(R12*2)
	JE      f32x4next
	LEAQ    (DI)(R12*2), CX
	VMOVUPS Y3, (CX)(R12*1)

f32x4next:
	ADDQ $32, DI
	ADDQ $32, SI
	SUBQ $8, BX
	JNZ  f32x4lanes
	VZEROUPPER
	RET

// func tileF32x1AVX2(dst, a *float32, lda int, b *float32, offs *int32, k, n int)
//
// tileF32x4AVX2 for one row: a panel's lone last row. Same order, same
// bits.
TEXT ·tileF32x1AVX2(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), R8
	MOVQ lda+16(FP), R13
	SHLQ $2, R13
	MOVQ b+24(FP), SI
	MOVQ n+48(FP), BX

f32x1lanes:
	VXORPS Y0, Y0, Y0
	XORQ   AX, AX
	MOVQ   offs+32(FP), R14
	MOVQ   k+40(FP), CX
	SHRQ   $2, CX
	JZ     f32x1tail

f32x1quad:
	F32B(0)
	VBROADCASTSS (R8)(AX*1), Y9
	VMULPS       Y9, Y8, Y4
	ADDQ         R13, AX
	F32B(4)
	F32TAP(R8, Y10, Y4)
	ADDQ         R13, AX
	F32B(8)
	F32TAP(R8, Y11, Y4)
	ADDQ         R13, AX
	F32B(12)
	F32TAP(R8, Y12, Y4)
	ADDQ         R13, AX
	ADDQ         $16, R14
	VADDPS       Y0, Y4, Y0
	DECQ         CX
	JNZ          f32x1quad

f32x1tail:
	MOVQ k+40(FP), CX
	ANDQ $3, CX
	JZ   f32x1store

f32x1one:
	F32B(0)
	F32ONE(R8, Y9, Y0)
	ADDQ    R13, AX
	ADDQ    $4, R14
	DECQ    CX
	JNZ     f32x1one

f32x1store:
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	SUBQ    $8, BX
	JNZ     f32x1lanes
	VZEROUPPER
	RET

// The i8 tiles read A packed by gemmTiles8 as int16 tap pairs: for a
// 4-row tile, pair p of rows 0..3 is the 16 bytes at a+16·p, so one
// VPBROADCASTD per row and pair needs no stride; a 1-row tile reads its
// row's pairs one after another.

// I8B(at, y) sign-extends the 16 lanes of the tap whose offset is at(R14)
// to words in y.
#define I8B(at, y) MOVLQSX at(R14), DX; VPMOVSXBW (SI)(DX*1), y

// I8PAIR(off, lo, hi) adds the pair of taps' products for the row whose
// packed int16 pair is at off(AX) to its sums lo (lanes 0–3, 8–11) and
// hi (lanes 4–7, 12–15); B's two taps are interleaved in Y10 and Y11.
#define I8PAIR(off, lo, hi) VPBROADCASTD off(AX), Y12; VPMADDWD Y12, Y10, Y13; VPMADDWD Y12, Y11, Y14; VPADDD Y13, lo, lo; VPADDD Y14, hi, hi

// func tileI8x4AVX2(dst *int32, ldd int, a *int32, b *int8, offs *int32, k, n, rows int)
//
// dst[r*ldd+j] = Σ_kk int32(A[r][kk])·int32(b[offs[kk]+j]) for r < rows
// (2..4) and j in [0,n), n a positive multiple of 16. a holds A as int16 pairs:
// dword a[p*4+r] is taps 2p (low word) and 2p+1 (high word, zero past k)
// of row r. Two of B's int8 taps are sign-extended to words and
// interleaved the same way, so one VPMADDWD per row and 8 lanes adds two
// products into int32 sums. That is exact: every word came from an int8,
// so a pair of products is at most 2·128² and never the one VPMADDWD
// case that wraps (both words −32768). The interleave leaves a row's
// lanes 0–3 and 8–11 in one register and 4–7 and 12–15 in another;
// VPERM2I128 puts them back in order at the store.
TEXT ·tileI8x4AVX2(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	MOVQ ldd+8(FP), R12
	SHLQ $2, R12
	LEAQ (R12)(R12*2), R13
	MOVQ b+24(FP), SI
	MOVQ n+48(FP), BX

i8x4lanes:
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7
	MOVQ  a+16(FP), AX
	MOVQ  offs+32(FP), R14
	MOVQ  k+40(FP), CX
	SHRQ  $1, CX
	JZ    i8x4odd

i8x4pair:
	I8B(0, Y8)
	I8B(4, Y9)
	VPUNPCKLWD Y9, Y8, Y10
	VPUNPCKHWD Y9, Y8, Y11
	I8PAIR(0, Y0, Y1)
	I8PAIR(4, Y2, Y3)
	I8PAIR(8, Y4, Y5)
	I8PAIR(12, Y6, Y7)
	ADDQ       $16, AX
	ADDQ       $8, R14
	DECQ       CX
	JNZ        i8x4pair

i8x4odd:
	// An odd k's last tap pairs with zeros.
	MOVQ       k+40(FP), CX
	ANDQ       $1, CX
	JZ         i8x4store
	I8B(0, Y8)
	VPXOR      Y9, Y9, Y9
	VPUNPCKLWD Y9, Y8, Y10
	VPUNPCKHWD Y9, Y8, Y11
	I8PAIR(0, Y0, Y1)
	I8PAIR(4, Y2, Y3)
	I8PAIR(8, Y4, Y5)
	I8PAIR(12, Y6, Y7)

i8x4store:
	VPERM2I128 $0x20, Y1, Y0, Y8
	VPERM2I128 $0x31, Y1, Y0, Y9
	VMOVDQU    Y8, (DI)
	VMOVDQU    Y9, 32(DI)
	LEAQ       (DI)(R12*1), R8
	VPERM2I128 $0x20, Y3, Y2, Y8
	VPERM2I128 $0x31, Y3, Y2, Y9
	VMOVDQU    Y8, (R8)
	VMOVDQU    Y9, 32(R8)
	MOVQ       rows+56(FP), CX
	CMPQ       CX, $3
	JL         i8x4next
	LEAQ       (DI)(R12*2), R8
	VPERM2I128 $0x20, Y5, Y4, Y8
	VPERM2I128 $0x31, Y5, Y4, Y9
	VMOVDQU    Y8, (R8)
	VMOVDQU    Y9, 32(R8)
	CMPQ       CX, $3
	JE         i8x4next
	LEAQ       (DI)(R13*1), R8
	VPERM2I128 $0x20, Y7, Y6, Y8
	VPERM2I128 $0x31, Y7, Y6, Y9
	VMOVDQU    Y8, (R8)
	VMOVDQU    Y9, 32(R8)

i8x4next:
	ADDQ       $64, DI
	ADDQ       $16, SI
	SUBQ       $16, BX
	JNZ        i8x4lanes
	VZEROUPPER
	RET

// func tileI8x1AVX2(dst *int32, a *int32, b *int8, offs *int32, k, n int)
//
// tileI8x4AVX2 for one row, its int16 pairs a[p] contiguous.
TEXT ·tileI8x1AVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ b+16(FP), SI
	MOVQ n+40(FP), BX

i8x1lanes:
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	MOVQ  a+8(FP), AX
	MOVQ  offs+24(FP), R14
	MOVQ  k+32(FP), CX
	SHRQ  $1, CX
	JZ    i8x1odd

i8x1pair:
	I8B(0, Y8)
	I8B(4, Y9)
	VPUNPCKLWD Y9, Y8, Y10
	VPUNPCKHWD Y9, Y8, Y11
	I8PAIR(0, Y0, Y1)
	ADDQ       $4, AX
	ADDQ       $8, R14
	DECQ       CX
	JNZ        i8x1pair

i8x1odd:
	MOVQ       k+32(FP), CX
	ANDQ       $1, CX
	JZ         i8x1store
	I8B(0, Y8)
	VPXOR      Y9, Y9, Y9
	VPUNPCKLWD Y9, Y8, Y10
	VPUNPCKHWD Y9, Y8, Y11
	I8PAIR(0, Y0, Y1)

i8x1store:
	VPERM2I128 $0x20, Y1, Y0, Y8
	VPERM2I128 $0x31, Y1, Y0, Y9
	VMOVDQU    Y8, (DI)
	VMOVDQU    Y9, 32(DI)
	ADDQ       $64, DI
	ADDQ       $16, SI
	SUBQ       $16, BX
	JNZ        i8x1lanes
	VZEROUPPER
	RET

// func convTileF64AVX2(dst *float64, ldd int, b *float64, offs *int32, w0, w1, w2, w3 *float64, k, n int)
//
// dst[c*ldd+j] = Σ_kk b[offs[kk]+j]·wc[kk] for c in 0..3 and j in [0,n),
// n a positive multiple of 4: four output channels by eight (then four)
// pixel lanes stay in YMM accumulators over the whole kk loop. Every lane
// is one sum from +0, kk ascending, VMULPD then VADDPD (never FMA) with
// the scalar loop's operand order, so each element carries dotRows's bits.
TEXT ·convTileF64AVX2(SB), NOSPLIT, $0-80
	MOVQ dst+0(FP), DI
	MOVQ ldd+8(FP), R12
	SHLQ $3, R12 // bytes between rows of dst
	MOVQ b+16(FP), SI
	MOVQ offs+24(FP), R13
	MOVQ w0+32(FP), R8
	MOVQ w1+40(FP), R9
	MOVQ w2+48(FP), R10
	MOVQ w3+56(FP), R11
	MOVQ k+64(FP), CX
	MOVQ n+72(FP), BX

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
	XORQ   AX, AX

f64k8:
	MOVLQSX      (R13)(AX*4), DX
	VMOVUPD      (SI)(DX*8), Y8
	VMOVUPD      32(SI)(DX*8), Y9
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
	XORQ   AX, AX

f64k4:
	MOVLQSX      (R13)(AX*4), DX
	VMOVUPD      (SI)(DX*8), Y8
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
