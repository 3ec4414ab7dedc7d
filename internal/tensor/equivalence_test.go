package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// The reference kernels below are deliberately naive re-implementations —
// straight loops with no tiling, pooling or sharding — so the property
// sweeps check the blocked/parallel production kernels against an
// independently-derived answer rather than against themselves.

func refMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	out := New(m, n)
	for i := 0; i < m; i++ {
		for kk := 0; kk < k; kk++ {
			av := a.At(i, kk)
			for j := 0; j < n; j++ {
				out.Set(out.At(i, j)+av*b.At(kk, j), i, j)
			}
		}
	}
	return out
}

func refMatMulTransA(a, b *Tensor) *Tensor {
	k, m, n := a.Dim(0), a.Dim(1), b.Dim(1)
	out := New(m, n)
	for kk := 0; kk < k; kk++ {
		for i := 0; i < m; i++ {
			av := a.At(kk, i)
			for j := 0; j < n; j++ {
				out.Set(out.At(i, j)+av*b.At(kk, j), i, j)
			}
		}
	}
	return out
}

func refMatMulTransB(a, b *Tensor) *Tensor {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(0)
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for kk := 0; kk < k; kk++ {
				s += a.At(i, kk) * b.At(j, kk)
			}
			out.Set(s, i, j)
		}
	}
	return out
}

func refConv2D(x, weight, bias *Tensor, p Conv2DParams) *Tensor {
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	oh, ow := p.outSize(h, w)
	out := New(n, p.OutChannels, oh, ow)
	for b := 0; b < n; b++ {
		for oc := 0; oc < p.OutChannels; oc++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					s := 0.0
					for ic := 0; ic < c; ic++ {
						for ky := 0; ky < p.Kernel; ky++ {
							iy := oy*p.Stride + ky - p.Padding
							if iy < 0 || iy >= h {
								continue
							}
							for kx := 0; kx < p.Kernel; kx++ {
								ix := ox*p.Stride + kx - p.Padding
								if ix < 0 || ix >= w {
									continue
								}
								s += x.At(b, ic, iy, ix) * weight.At(oc, ic, ky, kx)
							}
						}
					}
					if bias != nil {
						s += bias.At(oc)
					}
					out.Set(s, b, oc, oy, ox)
				}
			}
		}
	}
	return out
}

func refConv2DBackward(dy, x, weight *Tensor, p Conv2DParams, hasBias bool) (dx, dw, db *Tensor) {
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	oh, ow := p.outSize(h, w)
	dx = New(x.Shape()...)
	dw = New(weight.Shape()...)
	if hasBias {
		db = New(p.OutChannels)
	}
	for b := 0; b < n; b++ {
		for oc := 0; oc < p.OutChannels; oc++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					g := dy.At(b, oc, oy, ox)
					if hasBias {
						db.Set(db.At(oc)+g, oc)
					}
					for ic := 0; ic < c; ic++ {
						for ky := 0; ky < p.Kernel; ky++ {
							iy := oy*p.Stride + ky - p.Padding
							if iy < 0 || iy >= h {
								continue
							}
							for kx := 0; kx < p.Kernel; kx++ {
								ix := ox*p.Stride + kx - p.Padding
								if ix < 0 || ix >= w {
									continue
								}
								dx.Set(dx.At(b, ic, iy, ix)+g*weight.At(oc, ic, ky, kx), b, ic, iy, ix)
								dw.Set(dw.At(oc, ic, ky, kx)+g*x.At(b, ic, iy, ix), oc, ic, ky, kx)
							}
						}
					}
				}
			}
		}
	}
	return dx, dw, db
}

func randTensor(rng *rand.Rand, shape ...int) *Tensor {
	t := New(shape...)
	d := t.Data()
	for i := range d {
		d[i] = rng.NormFloat64()
	}
	return t
}

func maxAbsDiff(t *testing.T, got, want *Tensor) float64 {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("shape %v, want %v", got.Shape(), want.Shape())
	}
	worst := 0.0
	g, wd := got.Data(), want.Data()
	for i := range g {
		if d := math.Abs(g[i] - wd[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// atParallelism runs fn at each of the given worker counts, restoring the
// previous setting afterwards.
func atParallelism(t *testing.T, workers []int, fn func(t *testing.T, w int)) {
	t.Helper()
	prev := SetParallelism(1)
	defer SetParallelism(prev)
	for _, w := range workers {
		SetParallelism(w)
		fn(t, w)
	}
}

func TestMatMulMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := [][3]int{
		{1, 1, 1}, {1, 5, 3}, {3, 1, 7}, {7, 3, 1},
		{5, 7, 9}, {17, 13, 11}, {33, 65, 31},
		{70, 71, 72}, // above the parallel cutoff
	}
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		a := randTensor(rng, m, k)
		b := randTensor(rng, k, n)
		want := refMatMul(a, b)
		atParallelism(t, []int{1, 4}, func(t *testing.T, w int) {
			got, err := matMul(a, b)
			if err != nil {
				t.Fatalf("matmul %v workers=%d: %v", s, w, err)
			}
			if d := maxAbsDiff(t, got, want); d > 1e-12 {
				t.Errorf("matmul %v workers=%d: max diff %g", s, w, d)
			}
			Release(got)
		})
	}
}

// TestMatMulBitIdenticalAcrossWorkers pins the stronger property the
// calibration relies on: the blocked parallel kernel tiles only in ways
// that keep each output element's k-summation in ascending order, so the
// result is bit-identical to the serial kernel, not merely close.
func TestMatMulBitIdenticalAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, s := range [][3]int{{70, 71, 72}, {129, 257, 65}} {
		a := randTensor(rng, s[0], s[1])
		b := randTensor(rng, s[1], s[2])
		var serial *Tensor
		atParallelism(t, []int{1, 2, 4}, func(t *testing.T, w int) {
			got, err := matMul(a, b)
			if err != nil {
				t.Fatal(err)
			}
			if serial == nil {
				serial = got.clone()
			} else {
				g, sd := got.Data(), serial.Data()
				for i := range g {
					if g[i] != sd[i] {
						t.Fatalf("shape %v workers=%d: elem %d differs bitwise: %g vs %g",
							s, w, i, g[i], sd[i])
					}
				}
			}
			Release(got)
		})
	}
}

// TestGemmF64AxpyMatchesReference pins the float64 GEMM panels' AVX2 axpy
// to the scalar loop and to the naive references, bit for bit: row
// lengths around the 4- and 16-lane steps and the gemmNC tile, the serial
// kernel and the sharded one, and an Inf and a NaN in each operand.
func TestGemmF64AxpyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	simd := simdSettings(t)
	for _, mk := range [][2]int{{1, 5}, {3, 130}, {64, 330}} { // the last forks from 13 columns up
		for _, n := range []int{1, 2, 3, 5, 7, 9, 13, 16, 19, 35, 261} {
			for _, planted := range []bool{false, true} {
				m, k := mk[0], mk[1]
				a, aT, b := randTensor(rng, m, k), randTensor(rng, k, m), randTensor(rng, k, n)
				if planted {
					a.data[k/2], aT.data[k/2*m], b.data[n-1] = math.Inf(1), math.Inf(-1), math.NaN()
					a.data[(m-1)*k], aT.data[m-1], b.data[(k-1)*n] = math.NaN(), math.NaN(), math.Inf(1)
				}
				want, wantT := refMatMul(a, b), refMatMulTransA(aT, b)
				for _, useSIMD = range simd {
					atParallelism(t, []int{1, 2, 4}, func(t *testing.T, w int) {
						got, err := matMul(a, b)
						if err != nil {
							t.Fatal(err)
						}
						gotT, err := matMulTransA(aT, b)
						if err != nil {
							t.Fatal(err)
						}
						for i := range want.data {
							if !sameFloat(got.data[i], want.data[i]) {
								t.Fatalf("matmul %dx%dx%d planted=%v simd=%v workers=%d: element %d = %v, reference %v",
									m, k, n, planted, useSIMD, w, i, got.data[i], want.data[i])
							}
							if !sameFloat(gotT.data[i], wantT.data[i]) {
								t.Fatalf("matmulTransA %dx%dx%d planted=%v simd=%v workers=%d: element %d = %v, reference %v",
									m, k, n, planted, useSIMD, w, i, gotT.data[i], wantT.data[i])
							}
						}
						Release(got)
						Release(gotT)
					})
				}
			}
		}
	}
}

// refMaxPool2DInto is MaxPool2DInto as it was before the window was
// clamped once per output pixel: bounds and a found flag tested on every
// tap. Kept as the reference the clamped loop must equal bit for bit.
func refMaxPool2DInto(dst, x *Tensor, p PoolParams) {
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	oh, ow := p.OutSize(h, w)
	oi := 0
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			plane := x.data[(b*c+ch)*h*w : (b*c+ch+1)*h*w]
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					best := 0.0
					found := false
					for ky := 0; ky < p.Kernel; ky++ {
						iy := oy*p.Stride + ky - p.padding
						if iy < 0 || iy >= h {
							continue
						}
						for kx := 0; kx < p.Kernel; kx++ {
							ix := ox*p.Stride + kx - p.padding
							if ix < 0 || ix >= w {
								continue
							}
							v := plane[iy*w+ix]
							if !found || v > best {
								best = v
								found = true
							}
						}
					}
					dst.data[oi] = best
					oi++
				}
			}
		}
	}
}

// TestMaxPool2DIntoMatchesTapLoop sweeps kernel × stride × padding × odd
// and even sizes, with NaNs and both zeros among the inputs: the order of
// comparisons decides which of them a window reports.
func TestMaxPool2DIntoMatchesTapLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	params := []PoolParams{{Kernel: 1, Stride: 1, padding: 1}, {Kernel: 2, Stride: 1, padding: 2}} // windows wholly in padding
	for _, k := range []int{2, 3} {
		for _, st := range []int{1, 2} {
			for _, pad := range []int{0, 1} {
				params = append(params, PoolParams{Kernel: k, Stride: st, padding: pad})
			}
		}
	}
	for _, p := range params {
		for _, hw := range [][2]int{{3, 3}, {4, 7}, {5, 5}, {7, 4}, {8, 8}, {9, 3}} {
			x := randTensor(rng, 2, 3, hw[0], hw[1])
			for i := range x.data {
				switch rng.Intn(6) {
				case 0:
					x.data[i] = math.NaN()
				case 1:
					x.data[i] = 0
				case 2:
					x.data[i] = math.Copysign(0, -1)
				}
			}
			oh, ow := p.OutSize(hw[0], hw[1])
			got, want := New(2, 3, oh, ow), New(2, 3, oh, ow)
			if err := MaxPool2DInto(got, x, p); err != nil {
				t.Fatal(err)
			}
			refMaxPool2DInto(want, x, p)
			for i := range want.data {
				if !sameFloat(got.data[i], want.data[i]) {
					t.Fatalf("%+v on %dx%d: element %d = %v, tap loop %v", p, hw[0], hw[1], i, got.data[i], want.data[i])
				}
			}
		}
	}
}

func TestMatMulTransposedMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, s := range [][3]int{{1, 3, 5}, {5, 7, 9}, {31, 17, 23}, {70, 71, 72}} {
		m, k, n := s[0], s[1], s[2]
		aT := randTensor(rng, k, m) // matMulTransA takes a as (K, M)
		a := randTensor(rng, m, k)
		b := randTensor(rng, k, n)
		bT := randTensor(rng, n, k) // matMulTransB takes b as (N, K)
		wantA := refMatMulTransA(aT, b)
		wantB := refMatMulTransB(a, bT)
		atParallelism(t, []int{1, 4}, func(t *testing.T, w int) {
			gotA, err := matMulTransA(aT, b)
			if err != nil {
				t.Fatalf("transA %v workers=%d: %v", s, w, err)
			}
			if d := maxAbsDiff(t, gotA, wantA); d > 1e-12 {
				t.Errorf("transA %v workers=%d: max diff %g", s, w, d)
			}
			Release(gotA)
			gotB, err := matMulTransB(a, bT)
			if err != nil {
				t.Fatalf("transB %v workers=%d: %v", s, w, err)
			}
			if d := maxAbsDiff(t, gotB, wantB); d > 1e-12 {
				t.Errorf("transB %v workers=%d: max diff %g", s, w, d)
			}
			Release(gotB)
		})
	}
}

func TestConv2DMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	cases := []struct {
		n, c, h, w int
		p          Conv2DParams
		bias       bool
	}{
		{1, 1, 5, 5, Conv2DParams{InChannels: 1, OutChannels: 1, Kernel: 3, Stride: 1, Padding: 1}, false},
		{2, 3, 7, 5, Conv2DParams{InChannels: 3, OutChannels: 4, Kernel: 3, Stride: 2, Padding: 1}, true},
		{3, 2, 9, 9, Conv2DParams{InChannels: 2, OutChannels: 5, Kernel: 1, Stride: 1, Padding: 0}, false},
		{1, 4, 8, 6, Conv2DParams{InChannels: 4, OutChannels: 3, Kernel: 5, Stride: 3, Padding: 2}, true},
		{5, 3, 6, 6, Conv2DParams{InChannels: 3, OutChannels: 2, Kernel: 2, Stride: 2, Padding: 0}, false},
		// Large enough to cross the flop cutoff and shard the batch.
		{8, 8, 20, 20, Conv2DParams{InChannels: 8, OutChannels: 16, Kernel: 3, Stride: 1, Padding: 1}, true},
	}
	for _, tc := range cases {
		x := randTensor(rng, tc.n, tc.c, tc.h, tc.w)
		weight := randTensor(rng, tc.p.OutChannels, tc.p.InChannels, tc.p.Kernel, tc.p.Kernel)
		var bias *Tensor
		if tc.bias {
			bias = randTensor(rng, tc.p.OutChannels)
		}
		want := refConv2D(x, weight, bias, tc.p)
		atParallelism(t, []int{1, 4}, func(t *testing.T, w int) {
			got, err := Conv2D(x, weight, bias, tc.p)
			if err != nil {
				t.Fatalf("conv %+v workers=%d: %v", tc.p, w, err)
			}
			if d := maxAbsDiff(t, got, want); d > 1e-12 {
				t.Errorf("conv %+v workers=%d: max diff %g", tc.p, w, d)
			}
			Release(got)

			oh, ow := tc.p.outSize(tc.h, tc.w)
			dst := New(tc.n, tc.p.OutChannels, oh, ow)
			if err := Conv2DInto(dst, x, weight, bias, tc.p); err != nil {
				t.Fatalf("conv into %+v workers=%d: %v", tc.p, w, err)
			}
			if d := maxAbsDiff(t, dst, want); d > 1e-12 {
				t.Errorf("conv into %+v workers=%d: max diff %g", tc.p, w, d)
			}
		})
	}
}

func TestConv2DBackwardMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cases := []struct {
		n, c, h, w int
		p          Conv2DParams
		bias       bool
	}{
		{2, 3, 7, 5, Conv2DParams{InChannels: 3, OutChannels: 4, Kernel: 3, Stride: 2, Padding: 1}, true},
		{1, 2, 9, 9, Conv2DParams{InChannels: 2, OutChannels: 5, Kernel: 1, Stride: 1, Padding: 0}, false},
		{3, 4, 8, 6, Conv2DParams{InChannels: 4, OutChannels: 3, Kernel: 5, Stride: 3, Padding: 2}, true},
		// Crosses the flop cutoff: exercises the sharded dW/dB reduction.
		{8, 8, 20, 20, Conv2DParams{InChannels: 8, OutChannels: 16, Kernel: 3, Stride: 1, Padding: 1}, true},
	}
	for _, tc := range cases {
		x := randTensor(rng, tc.n, tc.c, tc.h, tc.w)
		weight := randTensor(rng, tc.p.OutChannels, tc.p.InChannels, tc.p.Kernel, tc.p.Kernel)
		oh, ow := tc.p.outSize(tc.h, tc.w)
		dy := randTensor(rng, tc.n, tc.p.OutChannels, oh, ow)
		wantDX, wantDW, wantDB := refConv2DBackward(dy, x, weight, tc.p, tc.bias)
		atParallelism(t, []int{1, 4}, func(t *testing.T, w int) {
			grads, err := Conv2DBackward(dy, x, weight, tc.p, tc.bias)
			if err != nil {
				t.Fatalf("conv backward %+v workers=%d: %v", tc.p, w, err)
			}
			if d := maxAbsDiff(t, grads.DX, wantDX); d > 1e-12 {
				t.Errorf("conv backward dx %+v workers=%d: max diff %g", tc.p, w, d)
			}
			if d := maxAbsDiff(t, grads.DW, wantDW); d > 1e-12 {
				t.Errorf("conv backward dw %+v workers=%d: max diff %g", tc.p, w, d)
			}
			if tc.bias {
				if d := maxAbsDiff(t, grads.DB, wantDB); d > 1e-12 {
					t.Errorf("conv backward db %+v workers=%d: max diff %g", tc.p, w, d)
				}
			}
			grads.Release()
		})
	}
}

func TestInferenceOpVariantsMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	x := randTensor(rng, 3, 4, 6, 5)

	// ReLU
	want, _ := ReLU(x)
	got := New(x.Shape()...)
	if err := ReLUInto(got, x); err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(t, got, want); d != 0 {
		t.Errorf("ReLUInto: max diff %g", d)
	}
	inPlace := x.clone()
	ReLUInPlaceInfer(inPlace)
	if d := maxAbsDiff(t, inPlace, want); d != 0 {
		t.Errorf("ReLUInPlaceInfer: max diff %g", d)
	}

	// BatchNorm inference
	s := NewBatchNormState(4)
	for i := range s.RunningMean.Data() {
		s.RunningMean.Data()[i] = rng.NormFloat64()
		s.RunningVar.Data()[i] = 0.5 + rng.Float64()
		s.Gamma.Data()[i] = rng.NormFloat64()
		s.Beta.Data()[i] = rng.NormFloat64()
	}
	res, err := BatchNorm2D(x, s, false)
	if err != nil {
		t.Fatal(err)
	}
	bn := New(x.Shape()...)
	if err := BatchNorm2DInto(bn, x, s); err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(t, bn, res.Out); d != 0 {
		t.Errorf("BatchNorm2DInto: max diff %g", d)
	}

	// MaxPool (window partially and fully in padding via big padding)
	for _, p := range []PoolParams{
		{Kernel: 2, Stride: 2},
		{Kernel: 3, Stride: 2, padding: 1},
		{Kernel: 2, Stride: 1, padding: 2},
	} {
		mp, err := MaxPool2D(x, p)
		if err != nil {
			t.Fatal(err)
		}
		oh, ow := p.OutSize(x.Dim(2), x.Dim(3))
		mpi := New(x.Dim(0), x.Dim(1), oh, ow)
		if err := MaxPool2DInto(mpi, x, p); err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(t, mpi, mp.Out); d != 0 {
			t.Errorf("MaxPool2DInto %+v: max diff %g", p, d)
		}
	}

	// GlobalAvgPool
	gap, err := GlobalAvgPool2D(x)
	if err != nil {
		t.Fatal(err)
	}
	gapi := New(x.Dim(0), x.Dim(1))
	if err := GlobalAvgPool2DInto(gapi, x); err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(t, gapi, gap); d != 0 {
		t.Errorf("GlobalAvgPool2DInto: max diff %g", d)
	}

	// Linear
	xf := randTensor(rng, 5, 8)
	wt := randTensor(rng, 3, 8)
	bias := randTensor(rng, 3)
	lin, err := Linear(xf, wt, bias)
	if err != nil {
		t.Fatal(err)
	}
	lini := New(5, 3)
	if err := LinearInto(lini, xf, wt, bias); err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(t, lini, lin); d != 0 {
		t.Errorf("LinearInto: max diff %g", d)
	}
	Release(lin)
}

// TestInferenceOpVariantsReLUBits pins the two inference ReLUs bit for
// bit against the branchy loops they replaced, on the values where a
// select through the bits could go wrong: NaNs of either sign and with a
// payload, ±0, ±Inf, the extreme subnormals, ±1 and random values. The
// two differ on purpose: ReLUInto maps NaN and −0 to +0 (like the
// training ReLUInPlace), ReLUInPlaceInfer passes them through.
func TestInferenceOpVariantsReLUBits(t *testing.T) {
	vals := []float64{
		math.NaN(), -math.NaN(), math.Float64frombits(0x7ff8000000000123), math.Float64frombits(0xfff0000000000001),
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), math.Float64frombits(0x800fffffffffffff),
		1, -1, math.MaxFloat64, -math.MaxFloat64,
	}
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 64; i++ {
		vals = append(vals, rng.NormFloat64())
	}
	x := MustFromSlice(vals, len(vals))

	got := New(len(vals))
	if err := ReLUInto(got, x); err != nil {
		t.Fatal(err)
	}
	inPlace := x.clone()
	ReLUInPlaceInfer(inPlace)
	for i, v := range vals {
		into := v // ReLUInto's branchy loop
		if !(v > 0) {
			into = 0
		}
		infer := v // ReLUInPlaceInfer's
		if v < 0 {
			infer = 0
		}
		if g := got.Data()[i]; math.Float64bits(g) != math.Float64bits(into) {
			t.Errorf("ReLUInto(%#x) = %#x, want %#x", math.Float64bits(v), math.Float64bits(g), math.Float64bits(into))
		}
		if g := inPlace.Data()[i]; math.Float64bits(g) != math.Float64bits(infer) {
			t.Errorf("ReLUInPlaceInfer(%#x) = %#x, want %#x", math.Float64bits(v), math.Float64bits(g), math.Float64bits(infer))
		}
	}
}

func TestRentReleaseSemantics(t *testing.T) {
	r := Rent(3, 4)
	for _, v := range r.Data() {
		if v != 0 {
			t.Fatal("Rent must return zeroed storage")
		}
	}
	r.Fill(7)
	Release(r)
	if r.Data() != nil {
		t.Fatal("Release must detach the data slice")
	}
	Release(r)       // double release is a no-op
	Release(nil)     // nil is a no-op
	Release(New(2))  // non-pooled is a no-op
	r2 := Rent(3, 4) // likely reuses the freed class; must come back zeroed
	for _, v := range r2.Data() {
		if v != 0 {
			t.Fatal("Rent after Release must return zeroed storage")
		}
	}
	// A clone of a pooled tensor must not inherit pooled-ness: releasing
	// the clone must not poison the freelist with the original's buffer.
	c := r2.clone()
	Release(c) // no-op
	if c.Data() == nil {
		t.Fatal("Release must not detach a non-pooled clone")
	}
	Release(r2)

	rl := RentLike(New(2, 3, 4))
	if got := rl.Shape(); len(got) != 3 || got[0] != 2 || got[1] != 3 || got[2] != 4 {
		t.Fatalf("RentLike shape %v", got)
	}
	Release(rl)
}

func TestSetParallelismBounds(t *testing.T) {
	prev := SetParallelism(3)
	defer SetParallelism(prev)
	if got := Parallelism(); got != 3 {
		t.Fatalf("Parallelism() = %d, want 3", got)
	}
	if back := SetParallelism(0); back != 3 {
		t.Fatalf("SetParallelism returned %d, want previous 3", back)
	}
	if got := Parallelism(); got < 1 {
		t.Fatalf("Parallelism() = %d after reset to default, want >= 1", got)
	}
}
