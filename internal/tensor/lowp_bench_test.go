package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// Kernel-level precision benchmarks: the raw GEMM and Conv2D speed ratios
// the root-level BenchmarkMatMul/BenchmarkConv2DForward precision
// variants are built on, and the pair a narrow-kernel change alternates
// against its parent. CI's bench smoke runs each once.

func benchRand64(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.NormFloat64()
	}
	return s
}

func BenchmarkGemmPrecision(b *testing.B) {
	for _, n := range []int{64, 128, 256} {
		a64 := benchRand64(n*n, 1)
		b64 := benchRand64(n*n, 2)
		dst64 := make([]float64, n*n)
		a32 := make([]float32, n*n)
		b32 := make([]float32, n*n)
		dst32 := make([]float32, n*n)
		toF32(a32, a64)
		toF32(b32, b64)
		a8 := make([]int8, n*n)
		b8 := make([]int8, n*n)
		acc := make([]int32, n*n)
		quantizeSymmetric(a8, a64, SymmetricScale(a64))
		quantizeSymmetric(b8, b64, SymmetricScale(b64))

		for _, workers := range []int{1, 4} {
			tag := fmt.Sprintf("n%d/workers%d", n, workers)
			b.Run(tag+"/f64", func(b *testing.B) {
				defer SetParallelism(SetParallelism(workers))
				for i := 0; i < b.N; i++ {
					gemm(dst64, a64, b64, n, n, n)
				}
			})
			b.Run(tag+"/f32", func(b *testing.B) {
				defer SetParallelism(SetParallelism(workers))
				for i := 0; i < b.N; i++ {
					GemmF32(dst32, a32, b32, n, n, n)
				}
			})
			b.Run(tag+"/i8", func(b *testing.B) {
				defer SetParallelism(SetParallelism(workers))
				for i := 0; i < b.N; i++ {
					GemmI8(acc, a8, b8, n, n, n)
				}
			})
		}
	}
}

func mustBenchTensor(b *testing.B, data []float64, shape ...int) *Tensor {
	b.Helper()
	t, err := fromSlice(data, shape...)
	if err != nil {
		b.Fatal(err)
	}
	return t
}

func BenchmarkConvPrecision(b *testing.B) {
	cases := []struct{ n, ch, size int }{
		{1, 16, 16},
		{8, 16, 16},
		{8, 32, 32},
	}
	for _, c := range cases {
		p := Conv2DParams{InChannels: c.ch, OutChannels: 2 * c.ch, Kernel: 3, Stride: 1, Padding: 1}
		x := mustBenchTensor(b, benchRand64(c.n*c.ch*c.size*c.size, 3), c.n, c.ch, c.size, c.size)
		wt := mustBenchTensor(b, benchRand64(2*c.ch*c.ch*3*3, 4), 2*c.ch, c.ch, 3, 3)
		bias := mustBenchTensor(b, benchRand64(2*c.ch, 5), 2*c.ch)
		w32, err := PrepareConvWeightsF32(wt, p)
		if err != nil {
			b.Fatal(err)
		}
		w8, err := PrepareConvWeightsI8(wt, p)
		if err != nil {
			b.Fatal(err)
		}
		xScale := SymmetricScale(x.Data())
		oh, ow := p.outSize(c.size, c.size)
		dst := New(c.n, 2*c.ch, oh, ow)

		tag := fmt.Sprintf("n%d_c%d_s%d", c.n, c.ch, c.size)
		b.Run(tag+"/f64", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := Conv2DInto(dst, x, wt, bias, p); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(tag+"/f32", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := Conv2DIntoF32(dst, x, w32, bias, p); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(tag+"/i8", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := Conv2DIntoI8(dst, x, w8, bias, p, xScale); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
