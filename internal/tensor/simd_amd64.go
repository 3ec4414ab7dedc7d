//go:build amd64

package tensor

import "os"

// AVX2 fast paths for the kernels of every precision. The assembly
// implements the SAME sums the scalar loops compute — float32's
// quartets, per element acc + (((a0·b0[j] + a1·b1[j]) + a2·b2[j]) +
// a3·b3[j]), float64's single k-ascending accumulator, and int8's exact
// int32 sums — with identical association and no FMA, so the SIMD and
// scalar paths are bit-identical and every determinism property holds on
// both. The binary stays GOAMD64=v1 portable: AVX2 is detected at startup
// via CPUID (incl. the OSXSAVE/XGETBV dance for OS YMM-state support) and
// the scalar kernels remain the fallback. OFFLOADNN_NO_SIMD=1 forces the
// fallback, which tests use to compare the two paths.

// cpuidAsm executes CPUID for the given leaf/subleaf.
func cpuidAsm(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbvAsm reads XCR0 (requires OSXSAVE, checked by the caller).
func xgetbvAsm() (eax, edx uint32)

// The tiles read B through a table of per-tap offsets, offs[0..k): tap kk
// of lane j is b[offs[kk]+j]. A row-major k×n matrix is the table kk·n
// (matrixOffsets); a padded image on its output grid is the table of
// convShape.tapOffsets. Lanes [0,n) of every tap must be readable.

// tileF32x4AVX2 computes rows r < rows (2..4) of dst (ldd apart) = A·B
// for the rows of A whose taps start at a0..a3, lda apart, and B read
// through offs, lanes [0,n); n must be a positive multiple of 8. Every
// element is summed in gemmPanel32's order with VMULPS then VADDPS, so it
// equals the scalar panel bit for bit.
//
//go:noescape
func tileF32x4AVX2(dst *float32, ldd int, a0, a1, a2, a3 *float32, lda int, b *float32, offs *int32, k, n, rows int)

// tileF32x1AVX2 is tileF32x4AVX2 for one row.
//
//go:noescape
func tileF32x1AVX2(dst, a *float32, lda int, b *float32, offs *int32, k, n int)

// tileI8x4AVX2 computes rows r < rows (2..4) of dst (ldd apart) = A·B
// exactly in int32 for A packed as int16 tap pairs (dword a[p*4+r] holds
// taps 2p and 2p+1 of row r) and int8 B read through offs, lanes [0,n); n
// must be a positive multiple of 16.
//
//go:noescape
func tileI8x4AVX2(dst *int32, ldd int, a *int32, b *int8, offs *int32, k, n, rows int)

// tileI8x1AVX2 is tileI8x4AVX2 for one row, its tap pairs a[p] contiguous.
//
//go:noescape
func tileI8x1AVX2(dst *int32, a *int32, b *int8, offs *int32, k, n int)

// convTileF64AVX2 computes dst[c*ldd+j] = Σ_kk b[offs[kk]+j]·wc[kk] for
// the four weight rows w0..w3 (c = 0..3, k taps each) and j in [0,n). n
// must be a positive multiple of 4. Every element is one accumulator
// summed kk ascending from +0, multiply then add, so it equals the scalar
// dot product bit for bit.
//
//go:noescape
func convTileF64AVX2(dst *float64, ldd int, b *float64, offs *int32, w0, w1, w2, w3 *float64, k, n int)

// axpyF64AVX2 computes dst[j] += a*b[j] for j in [0,n); n must be a
// positive multiple of 4.
//
//go:noescape
func axpyF64AVX2(dst, b *float64, a float64, n int)

// useSIMD gates the AVX2 kernels; fixed at init so the choice never
// changes mid-run.
var useSIMD = os.Getenv("OFFLOADNN_NO_SIMD") == "" && detectAVX2()

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuidAsm(0, 0)
	if maxLeaf < 7 {
		return false
	}
	// OS must have enabled XMM+YMM state saving before AVX is usable.
	_, _, ecx, _ := cpuidAsm(1, 0)
	const osxsave = 1 << 27
	if ecx&osxsave == 0 {
		return false
	}
	if xcr0, _ := xgetbvAsm(); xcr0&0x6 != 0x6 {
		return false
	}
	_, ebx, _, _ := cpuidAsm(7, 0)
	const avx2 = 1 << 5
	return ebx&avx2 != 0
}

// SIMDEnabled reports whether the AVX2 kernel paths are active (always
// false off amd64 or under OFFLOADNN_NO_SIMD=1).
func SIMDEnabled() bool { return useSIMD }
