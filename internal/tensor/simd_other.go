//go:build !amd64

package tensor

// Non-amd64 targets run the portable scalar kernels; see simd_amd64.go.

var useSIMD = false

// SIMDEnabled reports whether the AVX2 kernel paths are active (always
// false off amd64 or under OFFLOADNN_NO_SIMD=1).
func SIMDEnabled() bool { return false }

func quadAxpyF32AVX2(dst, b0, b1, b2, b3 *float32, a *float32, n int) {
	panic("tensor: SIMD kernel called on non-amd64 build")
}

func quadAxpyI8AVX2(dst *int32, b0, b1, b2, b3 *int8, a *int32, n int) {
	panic("tensor: SIMD kernel called on non-amd64 build")
}

func convTileF64AVX2(dst, p, w0, w1, w2, w3 *float64, k, n int) {
	panic("tensor: SIMD kernel called on non-amd64 build")
}

func axpyF64AVX2(dst, b *float64, a float64, n int) {
	panic("tensor: SIMD kernel called on non-amd64 build")
}
