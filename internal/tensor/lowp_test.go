package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Property tests for the reduced-precision kernels: f32 tracks the f64
// reference within a scaled 1e-4 tolerance, i8 reproduces the
// dequantized int32 reference exactly, both are bit-deterministic across
// worker counts, and the AVX2 and scalar paths agree bit-for-bit.

func randSlice64(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.NormFloat64()
	}
	return s
}

func randSlice8(rng *rand.Rand, n int) []int8 {
	s := make([]int8, n)
	for i := range s {
		s[i] = int8(rng.Intn(255) - 127)
	}
	return s
}

// close64 reports |got-want| <= tol*max(1, max|want|) elementwise.
func close64(got, want []float64, tol float64) (int, bool) {
	scale := 1.0
	for _, v := range want {
		if a := math.Abs(v); a > scale {
			scale = a
		}
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > tol*scale {
			return i, false
		}
	}
	return -1, true
}

func TestMatMulF32MatchesF64(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, dims := range [][3]int{{1, 1, 1}, {3, 5, 7}, {17, 9, 33}, {32, 144, 100}, {64, 64, 64}, {70, 130, 258}} {
		m, k, n := dims[0], dims[1], dims[2]
		a64 := randSlice64(rng, m*k)
		b64 := randSlice64(rng, k*n)
		want := make([]float64, m*n)
		matmulInto(want, a64, b64, m, k, n)

		a32 := make([]float32, m*k)
		b32 := make([]float32, k*n)
		toF32(a32, a64)
		toF32(b32, b64)
		got32 := make([]float32, m*n)
		GemmF32(got32, a32, b32, m, k, n)
		got := make([]float64, m*n)
		for i, v := range got32 {
			got[i] = float64(v)
		}
		if i, ok := close64(got, want, 1e-4); !ok {
			t.Errorf("m=%d k=%d n=%d: f32 GEMM diverges from f64 at %d: got %g want %g", m, k, n, i, got[i], want[i])
		}
	}
}

func TestMatMulLowpWorkerDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m, k, n := 70, 150, 230
	a64 := randSlice64(rng, m*k)
	b64 := randSlice64(rng, k*n)
	a32 := make([]float32, m*k)
	b32 := make([]float32, k*n)
	toF32(a32, a64)
	toF32(b32, b64)
	a8 := randSlice8(rng, m*k)
	b8 := randSlice8(rng, k*n)

	ref32 := make([]float32, m*n)
	ref8 := make([]int32, m*n)
	func() {
		defer SetParallelism(SetParallelism(1))
		GemmF32(ref32, a32, b32, m, k, n)
		GemmI8(ref8, a8, b8, m, k, n)
	}()
	for _, workers := range []int{2, 3, 8} {
		got32 := make([]float32, m*n)
		got8 := make([]int32, m*n)
		func() {
			defer SetParallelism(SetParallelism(workers))
			GemmF32(got32, a32, b32, m, k, n)
			GemmI8(got8, a8, b8, m, k, n)
		}()
		for i := range ref32 {
			if got32[i] != ref32[i] {
				t.Fatalf("workers=%d: f32 GEMM not bit-identical at %d: %g vs %g", workers, i, got32[i], ref32[i])
			}
		}
		for i := range ref8 {
			if got8[i] != ref8[i] {
				t.Fatalf("workers=%d: i8 GEMM not identical at %d: %d vs %d", workers, i, got8[i], ref8[i])
			}
		}
	}
}

// TestMatMulLowpSIMDMatchesScalar holds the narrow register tiles to the
// portable panels bit for bit on every remainder: 1–9 rows (whole 4-row
// tiles and 1–3 rows left over), lane counts either side of the f32 tile's
// 8 and the i8 tile's 16, and k across every k%4 (the f32 quartet tail)
// and both parities (the i8 tap pairs) — each product with A row-major
// and again stored transposed, the strides the conv lowering uses.
func TestMatMulLowpSIMDMatchesScalar(t *testing.T) {
	if !SIMDEnabled() {
		t.Skip("SIMD not active on this host")
	}
	rng := rand.New(rand.NewSource(13))
	grid := [][3]int{{5, 9, 23}, {33, 65, 129}, {64, 144, 256}}
	for m := 1; m <= 9; m++ {
		for _, n := range []int{7, 8, 9, 15, 16, 17, 127, 128, 129, 257} {
			for _, k := range []int{1, 2, 3, 4, 5, 127, 128, 129, 1152} {
				grid = append(grid, [3]int{m, k, n})
			}
		}
	}
	for _, dims := range grid {
		m, k, n := dims[0], dims[1], dims[2]
		a64 := randSlice64(rng, m*k)
		b64 := randSlice64(rng, k*n)
		a32 := make([]float32, m*k)
		b32 := make([]float32, k*n)
		toF32(a32, a64)
		toF32(b32, b64)
		a8 := randSlice8(rng, m*k)
		b8 := randSlice8(rng, k*n)
		aT32 := make([]float32, k*m)
		aT8 := make([]int8, k*m)
		for i := 0; i < m; i++ {
			for kk := 0; kk < k; kk++ {
				aT32[kk*m+i], aT8[kk*m+i] = a32[i*k+kk], a8[i*k+kk]
			}
		}

		run := func() (g32, t32 []float32, g8, t8 []int32) {
			g32, t32 = make([]float32, m*n), make([]float32, m*n)
			g8, t8 = make([]int32, m*n), make([]int32, m*n)
			GemmF32(g32, a32, b32, m, k, n)
			GemmI8(g8, a8, b8, m, k, n)
			gemmPanel32(t32, aT32, b32, 1, m, 0, m, k, n)
			gemmPanel8(t8, aT8, b8, 1, m, 0, m, k, n)
			return
		}
		simd32, simdT32, simd8, simdT8 := run()
		prev := useSIMD
		useSIMD = false
		scalar32, scalarT32, scalar8, scalarT8 := run()
		useSIMD = prev

		for i := range simd32 {
			if math.Float32bits(simd32[i]) != math.Float32bits(scalar32[i]) {
				t.Fatalf("m=%d k=%d n=%d: AVX2 f32 differs from scalar at %d: %g vs %g", m, k, n, i, simd32[i], scalar32[i])
			}
			if math.Float32bits(simdT32[i]) != math.Float32bits(scalarT32[i]) {
				t.Fatalf("m=%d k=%d n=%d, A transposed: AVX2 f32 differs from scalar at %d: %g vs %g", m, k, n, i, simdT32[i], scalarT32[i])
			}
		}
		for i := range simd8 {
			if simd8[i] != scalar8[i] {
				t.Fatalf("m=%d k=%d n=%d: AVX2 i8 differs from scalar at %d: %d vs %d", m, k, n, i, simd8[i], scalar8[i])
			}
			if simdT8[i] != scalarT8[i] {
				t.Fatalf("m=%d k=%d n=%d, A transposed: AVX2 i8 differs from scalar at %d: %d vs %d", m, k, n, i, simdT8[i], scalarT8[i])
			}
		}
	}
}

// TestGemmI8ExtremeOperands runs GemmI8 on operands that are all −128 or
// 127 — −128 is outside the symmetric quantizer's range but GemmI8
// accepts it — at a deep k, against the naive int32 loop, on every tile
// remainder of rows and lanes.
func TestGemmI8ExtremeOperands(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	const k = 1152
	for _, mn := range [][2]int{{1, 16}, {4, 17}, {7, 33}, {9, 129}} {
		m, n := mn[0], mn[1]
		// All −128, all 127, and each operand one of the two at random.
		for _, fill := range []string{"-128", "127", "mixed"} {
			operands := func(count int) []int8 {
				s := make([]int8, count)
				for i := range s {
					if fill == "-128" || fill == "mixed" && rng.Intn(2) == 0 {
						s[i] = -128
					} else {
						s[i] = 127
					}
				}
				return s
			}
			a, b := operands(m*k), operands(k*n)
			got := make([]int32, m*n)
			GemmI8(got, a, b, m, k, n)
			for i := 0; i < m; i++ {
				for j := 0; j < n; j++ {
					var want int32
					for kk := 0; kk < k; kk++ {
						want += int32(a[i*k+kk]) * int32(b[kk*n+j])
					}
					if got[i*n+j] != want {
						t.Fatalf("m=%d n=%d %s: GemmI8[%d,%d] = %d, naive int32 = %d", m, n, fill, i, j, got[i*n+j], want)
					}
				}
			}
		}
	}
}

func TestGemmI8ExactVsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, dims := range [][3]int{{1, 1, 1}, {3, 7, 5}, {16, 144, 64}, {33, 100, 77}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := randSlice8(rng, m*k)
		b := randSlice8(rng, k*n)
		got := make([]int32, m*n)
		GemmI8(got, a, b, m, k, n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var want int32
				for kk := 0; kk < k; kk++ {
					want += int32(a[i*k+kk]) * int32(b[kk*n+j])
				}
				if got[i*n+j] != want {
					t.Fatalf("m=%d k=%d n=%d: GemmI8[%d,%d] = %d, naive int32 = %d", m, k, n, i, j, got[i*n+j], want)
				}
			}
		}
	}
}

func lowpConvCase(t *testing.T, rng *rand.Rand, n, cin, cout, size, kernel, stride, pad int) (x, wt, bias *Tensor, p Conv2DParams) {
	t.Helper()
	p = Conv2DParams{InChannels: cin, OutChannels: cout, Kernel: kernel, Stride: stride, Padding: pad}
	var err error
	x, err = fromSlice(randSlice64(rng, n*cin*size*size), n, cin, size, size)
	if err != nil {
		t.Fatal(err)
	}
	wt, err = fromSlice(randSlice64(rng, cout*cin*kernel*kernel), cout, cin, kernel, kernel)
	if err != nil {
		t.Fatal(err)
	}
	bias, err = fromSlice(randSlice64(rng, cout), cout)
	if err != nil {
		t.Fatal(err)
	}
	return
}

func TestConv2DF32MatchesF64(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	cases := []struct{ n, cin, cout, size, kernel, stride, pad int }{
		{1, 3, 8, 9, 3, 1, 1},
		{2, 16, 32, 16, 3, 1, 1},
		{8, 16, 32, 16, 3, 1, 1}, // batch-sharded path
		{3, 8, 16, 11, 3, 2, 1},
	}
	for _, c := range cases {
		x, wt, bias, p := lowpConvCase(t, rng, c.n, c.cin, c.cout, c.size, c.kernel, c.stride, c.pad)
		want, err := Conv2D(x, wt, bias, p)
		if err != nil {
			t.Fatal(err)
		}
		w32, err := PrepareConvWeightsF32(wt, p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Conv2DF32(x, w32, bias, p)
		if err != nil {
			t.Fatal(err)
		}
		if i, ok := close64(got.Data(), want.Data(), 1e-4); !ok {
			t.Errorf("case %+v: f32 conv diverges at %d: got %g want %g", c, i, got.Data()[i], want.Data()[i])
		}
		Release(want)
		Release(got)
	}
}

func TestConv2DI8ExactVsDequantReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	cases := []struct{ n, cin, cout, size, kernel, stride, pad int }{
		{1, 3, 8, 9, 3, 1, 1},
		{2, 8, 16, 12, 3, 1, 1},
		{8, 16, 32, 16, 3, 1, 1}, // batch-sharded path
	}
	for _, c := range cases {
		x, wt, bias, p := lowpConvCase(t, rng, c.n, c.cin, c.cout, c.size, c.kernel, c.stride, c.pad)
		w8, err := PrepareConvWeightsI8(wt, p)
		if err != nil {
			t.Fatal(err)
		}
		xScale := SymmetricScale(x.Data())
		got, err := Conv2DI8(x, w8, bias, p, xScale)
		if err != nil {
			t.Fatal(err)
		}

		// Reference: quantize with the same helpers, convolve naively in
		// int32, dequantize with the same per-channel scales. Must match
		// the kernel bit-for-bit.
		oh, ow := p.outSize(c.size, c.size)
		xq := make([]int8, c.n*c.cin*c.size*c.size)
		quantizeSymmetric(xq, x.Data(), xScale)
		gd := got.Data()
		for b := 0; b < c.n; b++ {
			for oc := 0; oc < c.cout; oc++ {
				for oy := 0; oy < oh; oy++ {
					for ox := 0; ox < ow; ox++ {
						var acc int32
						for ch := 0; ch < c.cin; ch++ {
							for ky := 0; ky < c.kernel; ky++ {
								for kx := 0; kx < c.kernel; kx++ {
									iy := oy*c.stride + ky - c.pad
									ix := ox*c.stride + kx - c.pad
									if iy < 0 || iy >= c.size || ix < 0 || ix >= c.size {
										continue
									}
									xv := xq[((b*c.cin+ch)*c.size+iy)*c.size+ix]
									wv := w8.w[((oc*c.cin+ch)*c.kernel+ky)*c.kernel+kx]
									acc += int32(xv) * int32(wv)
								}
							}
						}
						want := float64(acc)*(w8.scale[oc]*xScale) + bias.Data()[oc]
						idx := ((b*c.cout+oc)*oh+oy)*ow + ox
						if gd[idx] != want {
							t.Fatalf("case %+v: i8 conv [%d,%d,%d,%d] = %v, dequantized reference = %v",
								c, b, oc, oy, ox, gd[idx], want)
						}
					}
				}
			}
		}
		Release(got)
	}
}

func TestConv2DLowpWorkerDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	x, wt, bias, p := lowpConvCase(t, rng, 8, 16, 32, 16, 3, 1, 1)
	w32, err := PrepareConvWeightsF32(wt, p)
	if err != nil {
		t.Fatal(err)
	}
	w8, err := PrepareConvWeightsI8(wt, p)
	if err != nil {
		t.Fatal(err)
	}
	xScale := SymmetricScale(x.Data())

	run := func(workers int) (f32out, i8out []float64) {
		defer SetParallelism(SetParallelism(workers))
		a, err := Conv2DF32(x, w32, bias, p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Conv2DI8(x, w8, bias, p, xScale)
		if err != nil {
			t.Fatal(err)
		}
		f32out = append([]float64(nil), a.Data()...)
		i8out = append([]float64(nil), b.Data()...)
		Release(a)
		Release(b)
		return
	}
	ref32, ref8 := run(1)
	for _, workers := range []int{2, 4, 8} {
		got32, got8 := run(workers)
		for i := range ref32 {
			if got32[i] != ref32[i] {
				t.Fatalf("workers=%d: f32 conv not bit-identical at %d", workers, i)
			}
		}
		for i := range ref8 {
			if got8[i] != ref8[i] {
				t.Fatalf("workers=%d: i8 conv not bit-identical at %d", workers, i)
			}
		}
	}
}

func TestLinearLowpMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	n, in, out := 5, 37, 19
	x, err := fromSlice(randSlice64(rng, n*in), n, in)
	if err != nil {
		t.Fatal(err)
	}
	wt, err := fromSlice(randSlice64(rng, out*in), out, in)
	if err != nil {
		t.Fatal(err)
	}
	bias, err := fromSlice(randSlice64(rng, out), out)
	if err != nil {
		t.Fatal(err)
	}

	want, err := Linear(x, wt, bias)
	if err != nil {
		t.Fatal(err)
	}
	lw32, err := PrepareLinearWeightsF32(wt)
	if err != nil {
		t.Fatal(err)
	}
	got32, err := LinearF32(x, lw32, bias)
	if err != nil {
		t.Fatal(err)
	}
	if i, ok := close64(got32.Data(), want.Data(), 1e-4); !ok {
		t.Errorf("f32 linear diverges at %d: got %g want %g", i, got32.Data()[i], want.Data()[i])
	}

	lw8, err := PrepareLinearWeightsI8(wt)
	if err != nil {
		t.Fatal(err)
	}
	xScale := SymmetricScale(x.Data())
	got8, err := LinearI8(x, lw8, bias, xScale)
	if err != nil {
		t.Fatal(err)
	}
	xq := make([]int8, n*in)
	quantizeSymmetric(xq, x.Data(), xScale)
	for i := 0; i < n; i++ {
		for j := 0; j < out; j++ {
			var acc int32
			for kk := 0; kk < in; kk++ {
				acc += int32(xq[i*in+kk]) * int32(lw8.w[j*in+kk])
			}
			wantV := float64(acc)*(lw8.scale[j]*xScale) + bias.Data()[j]
			if got8.Data()[i*out+j] != wantV {
				t.Fatalf("i8 linear [%d,%d] = %v, reference = %v", i, j, got8.Data()[i*out+j], wantV)
			}
		}
	}
	Release(want)
	Release(got32)
	Release(got8)
}

func TestQuantizeSymmetricProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	src := randSlice64(rng, 513)
	scale := SymmetricScale(src)
	dst := make([]int8, len(src))
	quantizeSymmetric(dst, src, scale)
	for i, q := range dst {
		if q > 127 || q < -127 {
			t.Fatalf("quantized value %d out of symmetric range at %d", q, i)
		}
		if src[i] == 0 && q != 0 {
			t.Fatalf("q(0) must be 0, got %d", q)
		}
		if err := math.Abs(float64(q)*scale - src[i]); err > scale/2+1e-12 {
			t.Fatalf("dequant error %g at %d exceeds scale/2=%g", err, i, scale/2)
		}
	}
	// Degenerate scale maps everything to zero.
	quantizeSymmetric(dst, src, 0)
	for i, q := range dst {
		if q != 0 {
			t.Fatalf("scale<=0 should zero-fill, got %d at %d", q, i)
		}
	}
	if got, err := ParsePrecision("i8"); err != nil || got != I8 {
		t.Fatalf("ParsePrecision(i8) = %v, %v", got, err)
	}
	if _, err := ParsePrecision("f16"); err == nil {
		t.Fatal("ParsePrecision(f16) should fail")
	}
	for _, p := range []Precision{F64, F32, I8} {
		rt, err := ParsePrecision(p.String())
		if err != nil || rt != p {
			t.Fatalf("precision %v does not round-trip: %v, %v", p, rt, err)
		}
	}
	if F64.DeployedBytesPerParam() != 4 || F32.DeployedBytesPerParam() != 4 || I8.DeployedBytesPerParam() != 1 {
		t.Fatal("DeployedBytesPerParam: want 4/4/1 for f64/f32/i8")
	}
	_ = fmt.Sprintf("%v", F32) // Stringer smoke
}
