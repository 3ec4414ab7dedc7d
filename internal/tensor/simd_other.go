//go:build !amd64

package tensor

// Non-amd64 targets run the portable scalar kernels; see simd_amd64.go.

var useSIMD = false

// SIMDEnabled reports whether the AVX2 kernel paths are active (always
// false off amd64 or under OFFLOADNN_NO_SIMD=1).
func SIMDEnabled() bool { return false }

func tileF32x4AVX2(dst *float32, ldd int, a0, a1, a2, a3 *float32, lda int, b *float32, offs *int32, k, n, rows int) {
	panic("tensor: SIMD kernel called on non-amd64 build")
}

func tileF32x1AVX2(dst, a *float32, lda int, b *float32, offs *int32, k, n int) {
	panic("tensor: SIMD kernel called on non-amd64 build")
}

func tileI8x4AVX2(dst *int32, ldd int, a *int32, b *int8, offs *int32, k, n, rows int) {
	panic("tensor: SIMD kernel called on non-amd64 build")
}

func tileI8x1AVX2(dst *int32, a *int32, b *int8, offs *int32, k, n int) {
	panic("tensor: SIMD kernel called on non-amd64 build")
}

func convTileF64AVX2(dst *float64, ldd int, b *float64, offs *int32, w0, w1, w2, w3 *float64, k, n int) {
	panic("tensor: SIMD kernel called on non-amd64 build")
}

func axpyF64AVX2(dst, b *float64, a float64, n int) {
	panic("tensor: SIMD kernel called on non-amd64 build")
}
