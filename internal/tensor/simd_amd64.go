//go:build amd64

package tensor

import "os"

// AVX2 fast paths for the kernels of every precision. The assembly
// implements the SAME sums the scalar loops compute — the narrow types'
// fused quad-axpy, per element di[j] + (((a0·b0[j] + a1·b1[j]) + a2·b2[j])
// + a3·b3[j]), and float64's single k-ascending accumulator — with
// identical association and no FMA, so the SIMD and scalar paths are
// bit-identical and every determinism property holds on both. The binary
// stays GOAMD64=v1 portable: AVX2 is detected at startup via CPUID (incl.
// the OSXSAVE/XGETBV dance for OS YMM-state support) and the scalar
// kernels remain the fallback. OFFLOADNN_NO_SIMD=1 forces the fallback,
// which tests use to compare the two paths.

// cpuidAsm executes CPUID for the given leaf/subleaf.
func cpuidAsm(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbvAsm reads XCR0 (requires OSXSAVE, checked by the caller).
func xgetbvAsm() (eax, edx uint32)

// quadAxpyF32AVX2 computes dst[j] += a[0]*b0[j] + a[1]*b1[j] +
// a[2]*b2[j] + a[3]*b3[j] (left-associated) for j in [0,n); n must be a
// multiple of 8 and > 0.
//
//go:noescape
func quadAxpyF32AVX2(dst, b0, b1, b2, b3 *float32, a *float32, n int)

// quadAxpyI8AVX2 computes dst[j] += a[0]*int32(b0[j]) + ... +
// a[3]*int32(b3[j]) exactly in int32 for j in [0,n); n must be a
// multiple of 8 and > 0.
//
//go:noescape
func quadAxpyI8AVX2(dst *int32, b0, b1, b2, b3 *int8, a *int32, n int)

// convTileF64AVX2 computes dst[c*n+j] = Σ_kk p[kk*n+j]·wc[kk] for the
// four weight rows w0..w3 (c = 0..3, k taps each) and j in [0,n): p is a
// k×n patch matrix, pixels contiguous, and dst four rows of n. n must be
// a positive multiple of 4. Every element is one accumulator summed kk
// ascending from +0, multiply then add, so it equals the scalar dot
// product bit for bit.
//
//go:noescape
func convTileF64AVX2(dst, p, w0, w1, w2, w3 *float64, k, n int)

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
