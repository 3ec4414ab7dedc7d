package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// convMode is one arithmetic the lowering runs at; i8dyn is int8 with the
// per-image dynamic activation scale (xScale <= 0).
type convMode int

const (
	modeF64 convMode = iota
	modeF32
	modeI8
	modeI8Dyn
)

func (m convMode) String() string { return [...]string{"f64", "f32", "i8", "i8dyn"}[m] }

// refDot is the documented per-element summation of each precision over
// one output pixel's taps in weight order: f64 one accumulator, k
// ascending; f32 aligned quartets, each summed left to right before it
// joins the accumulator, then the k%4 tail one by one; i8 exact.
func refDot64(a, b []float64) float64 {
	s := 0.0
	for k := range a {
		s += a[k] * b[k]
	}
	return s
}

func refDot32(a, b []float32) float32 {
	var s float32
	k := 0
	for ; k+3 < len(a); k += 4 {
		s += a[k]*b[k] + a[k+1]*b[k+1] + a[k+2]*b[k+2] + a[k+3]*b[k+3]
	}
	for ; k < len(a); k++ {
		s += a[k] * b[k]
	}
	return s
}

func refDot8(a, b []int8) int32 {
	var s int32
	for k := range a {
		s += int32(a[k]) * int32(b[k])
	}
	return s
}

// refConvImage convolves ONE image naively — tap by tap, pixel by pixel,
// no patch matrix — in the given mode's arithmetic. staticScale is the
// calibrated activation scale modeI8 uses.
func refConvImage(mode convMode, img []float64, h, w int, weight, bias *Tensor, p Conv2DParams, staticScale float64) []float64 {
	oh, ow := p.outSize(h, w)
	patch := p.InChannels * p.Kernel * p.Kernel
	out := make([]float64, p.OutChannels*oh*ow)

	img32 := make([]float32, len(img))
	toF32(img32, img)
	w32 := make([]float32, weight.Len())
	toF32(w32, weight.data)
	xScale := staticScale
	if mode == modeI8Dyn {
		xScale = SymmetricScale(img)
	}
	img8 := make([]int8, len(img))
	quantizeSymmetric(img8, img, xScale)
	w8 := make([]int8, weight.Len())
	wScale := make([]float64, p.OutChannels)
	for oc := range wScale {
		row := weight.data[oc*patch : (oc+1)*patch]
		wScale[oc] = SymmetricScale(row)
		quantizeSymmetric(w8[oc*patch:(oc+1)*patch], row, wScale[oc])
	}

	t64, t32, t8 := make([]float64, patch), make([]float32, patch), make([]int8, patch)
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			i := 0
			for ch := 0; ch < p.InChannels; ch++ {
				for ky := 0; ky < p.Kernel; ky++ {
					for kx := 0; kx < p.Kernel; kx++ {
						iy, ix := oy*p.Stride+ky-p.Padding, ox*p.Stride+kx-p.Padding
						t64[i], t32[i], t8[i] = 0, 0, 0
						if iy >= 0 && iy < h && ix >= 0 && ix < w {
							at := (ch*h+iy)*w + ix
							t64[i], t32[i], t8[i] = img[at], img32[at], img8[at]
						}
						i++
					}
				}
			}
			for oc := 0; oc < p.OutChannels; oc++ {
				bo, hasBias := 0.0, bias != nil
				if hasBias {
					bo = bias.data[oc]
				}
				var v float64
				switch mode {
				case modeF64:
					v = refDot64(t64, weight.data[oc*patch:(oc+1)*patch])
					if hasBias {
						v += bo
					}
				case modeF32:
					v = float64(refDot32(w32[oc*patch:(oc+1)*patch], t32)) + bo
				default:
					v = float64(refDot8(w8[oc*patch:(oc+1)*patch], t8))*(wScale[oc]*xScale) + bo
				}
				out[(oc*oh+oy)*ow+ox] = v
			}
		}
	}
	return out
}

// TestConv2DLoweringMatchesPerImageReference is the lowering's contract:
// whatever the batch, the worker count, the orientation the shape picks,
// the weight layout the first call fixed, the chunking and the SIMD path,
// image i of the output is bit for bit the naive convolution of image i
// alone in the documented summation order. Equality with a per-image
// reference is also equality across batch splits.
func TestConv2DLoweringMatchesPerImageReference(t *testing.T) {
	const maxBatch = 9
	rng := rand.New(rand.NewSource(41))
	simd := []bool{useSIMD}
	if useSIMD {
		simd = append(simd, false)
	}
	defer func(prev bool) { useSIMD = prev }(useSIMD)
	defer SetParallelism(SetParallelism(1))

	for _, geo := range []struct{ k, stride, pad int }{
		{1, 1, 0}, {1, 2, 0}, {1, 1, 1}, {1, 2, 1}, {3, 1, 0}, {3, 2, 0}, {3, 1, 1}, {3, 2, 1},
	} {
		sides := []int{1, 2, 4, 8} // OH·OW = 1, 4, 16, 64
		if geo.k == 3 && geo.stride == 1 && geo.pad == 1 {
			sides = append(sides, 16) // 9·256 rows: more than one chunk even of int8
		}
		for _, side := range sides {
			size := (side-1)*geo.stride + geo.k - 2*geo.pad
			if size < 1 {
				continue
			}
			for _, cout := range []int{3, 8, 128} {
				// 16 input channels at k=3 make the patch (144) cross a
				// gemmKC tile and nine 8×8 frames exceed one f64/f32 chunk;
				// the other widths keep the naive reference affordable.
				cin := 4
				switch {
				case geo.k == 1:
					cin = 5
				case cout == 8:
					cin = 16
				}
				p := Conv2DParams{InChannels: cin, OutChannels: cout, Kernel: geo.k, Stride: geo.stride, Padding: geo.pad}
				oh, ow := p.outSize(size, size)
				if oh != side || ow != side {
					t.Fatalf("%+v size %d: output %dx%d, want %d", p, size, oh, ow, side)
				}
				x := randTensor(rng, maxBatch, cin, size, size)
				weight := randTensor(rng, cout, cin, geo.k, geo.k)
				var bias *Tensor
				if cout != 8 {
					bias = randTensor(rng, cout)
				}
				staticScale := SymmetricScale(x.data)
				imgLen, outLen := cin*size*size, cout*oh*ow

				for _, mode := range []convMode{modeF64, modeF32, modeI8, modeI8Dyn} {
					want := make([]float64, 0, maxBatch*outLen)
					for b := 0; b < maxBatch; b++ {
						want = append(want, refConvImage(mode, x.data[b*imgLen:(b+1)*imgLen], size, size, weight, bias, p, staticScale)...)
					}
					// Prepared once: the first call (batch 1) fixes the
					// narrow layout every later batch must live with.
					w32, err := PrepareConvWeightsF32(weight, p)
					if err != nil {
						t.Fatal(err)
					}
					w8, err := PrepareConvWeightsI8(weight, p)
					if err != nil {
						t.Fatal(err)
					}
					for batch := 1; batch <= maxBatch; batch++ {
						xb := MustFromSlice(x.data[:batch*imgLen], batch, cin, size, size)
						// Worker counts below the fork cutoff cannot change the
						// code path and are run once.
						workerSet := []int{1, 2, 4}
						if batch*oh*ow*cout*cin*geo.k*geo.k < gemmParallelCutoff {
							workerSet = workerSet[:1]
						}
						for _, workers := range workerSet {
							for _, useSIMD = range simd {
								SetParallelism(workers)
								var got *Tensor
								switch mode {
								case modeF64:
									got, err = Conv2D(xb, weight, bias, p)
								case modeF32:
									got, err = Conv2DF32(xb, w32, bias, p)
								case modeI8:
									got, err = Conv2DI8(xb, w8, bias, p, staticScale)
								default:
									got, err = Conv2DI8(xb, w8, bias, p, 0)
								}
								if err != nil {
									t.Fatal(err)
								}
								for i, g := range got.data {
									if g != want[i] {
										t.Fatalf("%v %+v size=%d batch=%d workers=%d simd=%v: element %d (image %d) = %v, per-image reference %v",
											mode, p, size, batch, workers, useSIMD, i, i/outLen, g, want[i])
									}
								}
								Release(got)
							}
						}
					}
				}
			}
		}
	}
}

// sameFloat reports whether got is want bit for bit — signed zeros apart —
// or both are NaN: which NaN an operation hands on when several meet is
// the one thing the instruction sets leave to operand order.
func sameFloat(got, want float64) bool {
	return math.Float64bits(got) == math.Float64bits(want) || got != got && want != want
}

// simdSettings returns the values of useSIMD a test can run under — the
// host's, and false when that is not it already — and restores the
// host's when the test ends.
func simdSettings(t *testing.T) []bool {
	prev := useSIMD
	t.Cleanup(func() { useSIMD = prev })
	if prev {
		return []bool{true, false}
	}
	return []bool{false}
}

// TestConv2DF64TileMatchesScalarAndReference pins the float64 AVX2 tile
// to the scalar kernel and to the naive per-image reference on the shapes
// that exercise its edges: pixel-row counts around the 8- and 4-lane
// tiles and the short-range scalar rule, channel counts around the
// 4-channel tile, shard boundaries on and (calling convRows directly) off
// a tile edge, and an Inf and a NaN in a weight and in a pixel, which a
// padded lane or a repeated weight row would smear over its neighbours
// if one ever reached a result.
func TestConv2DF64TileMatchesScalarAndReference(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	simd := simdSettings(t)
	defer SetParallelism(SetParallelism(1))

	for _, stride := range []int{1, 2} {
		for _, rows := range []int{1, 2, 3, 5, 7, 9, 13} {
			for _, cout := range []int{1, 3, 5, 8, 128} {
				for _, planted := range []bool{false, true} {
					// A 1×rows output map per image, two images: the second
					// image starts mid-tile whenever rows is not a multiple
					// of the tile. 32 input channels put the Cout-128 calls
					// of 7 and more rows over the fork cutoff.
					const batch, cin, k = 2, 32, 3
					h, w := 1, (rows-1)*stride+1
					p := Conv2DParams{InChannels: cin, OutChannels: cout, Kernel: k, Stride: stride, Padding: 1}
					if oh, ow := p.outSize(h, w); oh != 1 || ow != rows {
						t.Fatalf("%+v on %dx%d: output %dx%d, want 1x%d", p, h, w, oh, ow, rows)
					}
					x, weight := randTensor(rng, batch, cin, h, w), randTensor(rng, cout, cin, k, k)
					var bias *Tensor
					if cout != 8 {
						bias = randTensor(rng, cout)
					}
					if planted {
						// Centre taps (never padding) of the first and last
						// channel's weights, and two pixels of image 0.
						weight.data[4], weight.data[(cout-1)*cin*k*k+k*k+4] = math.Inf(1), math.NaN()
						x.data[0], x.data[(cin-1)*h*w+w-1] = math.Inf(-1), math.NaN()
					}
					imgLen, outLen := cin*h*w, cout*rows
					var want []float64
					for b := 0; b < batch; b++ {
						want = append(want, refConvImage(modeF64, x.data[b*imgLen:(b+1)*imgLen], h, w, weight, bias, p, 0)...)
					}
					check := func(got []float64, what string) {
						t.Helper()
						for i, g := range got {
							if !sameFloat(g, want[i]) {
								t.Fatalf("stride=%d rows=%d cout=%d planted=%v %s: element %d (image %d) = %v, per-image reference %v",
									stride, rows, cout, planted, what, i, i/outLen, g, want[i])
							}
						}
					}
					for _, useSIMD = range simd {
						for _, n := range []int{1, batch} {
							xb := MustFromSlice(x.data[:n*imgLen], n, cin, h, w)
							for _, workers := range []int{1, 2, 4} {
								SetParallelism(workers)
								got, err := Conv2D(xb, weight, bias, p)
								if err != nil {
									t.Fatal(err)
								}
								check(got.data, fmt.Sprintf("simd=%v batch=%d workers=%d", useSIMD, n, workers))
								Release(got)
							}
						}
						// Any two ranges that cover the rows, however they cut
						// the tiles, write the same output.
						s := newConvShape(x, p, 1, rows)
						var biasData []float64
						if bias != nil {
							biasData = bias.data
						}
						for cut := 0; cut <= s.rows; cut++ {
							got := make([]float64, batch*outLen)
							if cut > 0 {
								convRows(got, x.data, weight.data, biasData, &s, 0, cut)
							}
							if cut < s.rows {
								convRows(got, x.data, weight.data, biasData, &s, cut, s.rows)
							}
							check(got, fmt.Sprintf("simd=%v rows [0,%d)+[%d,%d)", useSIMD, cut, cut, s.rows))
						}
					}
				}
			}
		}
	}
}

// TestConv2DLoweringGathers checks the two patch layouts against each
// other and against direct indexing on row ranges that start and end
// mid-row and mid-image — the ranges chunking and sharding produce.
func TestConv2DLoweringGathers(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, c := range []struct {
		p    Conv2DParams
		h, w int
	}{
		{Conv2DParams{InChannels: 3, OutChannels: 1, Kernel: 3, Stride: 1, Padding: 1}, 7, 6},
		{Conv2DParams{InChannels: 2, OutChannels: 1, Kernel: 3, Stride: 2, Padding: 1}, 7, 6},
		{Conv2DParams{InChannels: 4, OutChannels: 1, Kernel: 1, Stride: 2, Padding: 0}, 7, 6},
		{Conv2DParams{InChannels: 2, OutChannels: 1, Kernel: 5, Stride: 3, Padding: 2}, 7, 6},
		// Small maps, where whole tap rows read only padding for every
		// pixel of the call (gatherColsStride clears them in one go).
		{Conv2DParams{InChannels: 3, OutChannels: 1, Kernel: 3, Stride: 1, Padding: 1}, 1, 1},
		{Conv2DParams{InChannels: 3, OutChannels: 1, Kernel: 3, Stride: 2, Padding: 1}, 1, 1},
		{Conv2DParams{InChannels: 2, OutChannels: 1, Kernel: 3, Stride: 1, Padding: 1}, 2, 2},
		{Conv2DParams{InChannels: 2, OutChannels: 1, Kernel: 3, Stride: 2, Padding: 1}, 3, 3},
		{Conv2DParams{InChannels: 2, OutChannels: 1, Kernel: 3, Stride: 2, Padding: 1}, 2, 1},
		{Conv2DParams{InChannels: 2, OutChannels: 1, Kernel: 5, Stride: 1, Padding: 2}, 2, 2},
	} {
		p, h, w := c.p, c.h, c.w
		const n = 3
		x := randTensor(rng, n, p.InChannels, h, w)
		oh, ow := p.outSize(h, w)
		s := newConvShape(x, p, oh, ow)
		for lo := 0; lo < s.rows; lo += 5 {
			for hi := lo + 1; hi <= s.rows; hi += 7 {
				// Stale scratch holds anything: start from NaN so a tap the
				// gathers leave unwritten shows. The strided gather's rows
				// are ld = nc+3 apart, zero beyond the pixels.
				nc, ld := hi-lo, hi-lo+3
				rowsBuf, colsBuf, strideBuf := make([]float64, nc*s.patch), make([]float64, nc*s.patch), make([]float64, ld*s.patch)
				for _, buf := range [][]float64{rowsBuf, colsBuf, strideBuf} {
					for i := range buf {
						buf[i] = math.NaN()
					}
				}
				b0 := lo / s.cols
				src := x.data[b0*p.InChannels*h*w:]
				gatherRows(rowsBuf, src, &s, b0, lo, hi)
				gatherCols(colsBuf, src, &s, b0, lo, hi)
				gatherColsStride(strideBuf, src, &s, b0, lo, hi, ld)
				for q := 0; q < s.patch; q++ {
					for j := nc; j < ld; j++ {
						if got := strideBuf[q*ld+j]; got != 0 {
							t.Fatalf("%+v %dx%d rows[%d,%d): gatherColsStride tap %d lane %d past the pixels = %v, want 0", p, h, w, lo, hi, q, j, got)
						}
					}
				}
				for r := lo; r < hi; r++ {
					b, oy, ox := r/s.cols, r%s.cols/ow, r%ow
					q := 0
					for ch := 0; ch < p.InChannels; ch++ {
						for ky := 0; ky < p.Kernel; ky++ {
							for kx := 0; kx < p.Kernel; kx++ {
								want := 0.0
								iy, ix := oy*p.Stride+ky-p.Padding, ox*p.Stride+kx-p.Padding
								if iy >= 0 && iy < h && ix >= 0 && ix < w {
									want = x.At(b, ch, iy, ix)
								}
								if got := rowsBuf[(r-lo)*s.patch+q]; got != want {
									t.Fatalf("%+v %dx%d rows[%d,%d): gatherRows pixel %d tap %d = %v, want %v", p, h, w, lo, hi, r, q, got, want)
								}
								if got := colsBuf[q*nc+r-lo]; got != want {
									t.Fatalf("%+v %dx%d rows[%d,%d): gatherCols pixel %d tap %d = %v, want %v", p, h, w, lo, hi, r, q, got, want)
								}
								if got := strideBuf[q*ld+r-lo]; got != want {
									t.Fatalf("%+v %dx%d rows[%d,%d): gatherColsStride pixel %d tap %d = %v, want %v", p, h, w, lo, hi, r, q, got, want)
								}
								q++
							}
						}
					}
				}
			}
		}
	}
}

// TestConv2DSeesWeightUpdate pins that the float64 lowering keeps nothing
// derived from the master weight: training mutates it between forwards.
func TestConv2DSeesWeightUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	p := Conv2DParams{InChannels: 8, OutChannels: 16, Kernel: 3, Stride: 1, Padding: 1}
	x, weight := randTensor(rng, 2, 8, 2, 2), randTensor(rng, 16, 8, 3, 3)
	before, err := Conv2D(x, weight, nil, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range weight.data {
		weight.data[i] *= 2 // exact: every product, and so every sum, doubles
	}
	after, err := Conv2D(x, weight, nil, p)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range after.data {
		if v != 2*before.data[i] {
			t.Fatalf("element %d: %v after doubling the weight, want %v", i, v, 2*before.data[i])
		}
	}
}

// TestParallelRegionsNeverQueue drives the pool the way a loaded server
// does — more concurrent callers than workers, each forking, some from
// inside a shard — and checks that every shard runs exactly once, nested
// regions complete (they run inline when no worker is idle), and all
// claimed workers are handed back.
func TestParallelRegionsNeverQueue(t *testing.T) {
	defer SetParallelism(SetParallelism(3))
	const callers, n = 8, 64
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 50; rep++ {
				var hits [n]int32
				ParallelShards(n, 1, 0, func(si, lo, hi int) {
					parallelFor(hi-lo, 1, func(l, h int) { // nested: must not wait for a worker
						for i := lo + l; i < lo+h; i++ {
							hits[i]++
						}
					})
				})
				for i, h := range hits {
					if h != 1 {
						t.Errorf("index %d ran %d times", i, h)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if idle := IdleWorkers(); idle != 2 {
		t.Fatalf("IdleWorkers() = %d after all regions returned, want 2", idle)
	}
}

// BenchmarkConv2DStageShapes times the stride-1 convolutions of a
// width-16 ResNet-18 on 16×16 frames — the stem (3→16 at 16×16, where the
// patch gather used to be the largest share of the call), then the
// small-spatial shapes (OH·OW 64…1, Cout 16…128) where a per-image GEMM
// has no vector axis left — at a lone frame, a full batch of 8, and the 3
// and 5 that ForwardBatch's two shards of a typical batch really see,
// where tile remainders show.
func BenchmarkConv2DStageShapes(b *testing.B) {
	defer SetParallelism(SetParallelism(1))
	for _, c := range []struct{ cin, cout, size int }{{3, 16, 16}, {16, 16, 8}, {32, 32, 4}, {64, 64, 2}, {128, 128, 1}} {
		for _, n := range []int{1, 3, 5, 8} {
			p := Conv2DParams{InChannels: c.cin, OutChannels: c.cout, Kernel: 3, Stride: 1, Padding: 1}
			x := mustBenchTensor(b, benchRand64(n*c.cin*c.size*c.size, 3), n, c.cin, c.size, c.size)
			wt := mustBenchTensor(b, benchRand64(c.cout*c.cin*9, 4), c.cout, c.cin, 3, 3)
			w32, _ := PrepareConvWeightsF32(wt, p)
			w8, _ := PrepareConvWeightsI8(wt, p)
			dst := New(n, c.cout, c.size, c.size)
			for _, conv := range []struct {
				prec string
				run  func() error
			}{
				{"f64", func() error { return Conv2DInto(dst, x, wt, nil, p) }},
				{"f32", func() error { return Conv2DIntoF32(dst, x, w32, nil, p) }},
				{"i8", func() error { return Conv2DIntoI8(dst, x, w8, nil, p, 0.5/127) }},
			} {
				b.Run(fmt.Sprintf("c%d_hw%d_b%d/%s", c.cout, c.size, n, conv.prec), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if err := conv.run(); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// poisonScratch leaves NaN (f64, f32), -128 (i8, a value the quantizer
// never writes) and MinInt32 (i32) in two pooled buffers of every size
// class up to 2^14 elements — more than TestConv2DLoweringImplicitGrid's
// calls rent — so a kernel that reads scratch it did not write, a kept
// lane reading outside its padded image say, computes with them.
func poisonScratch() {
	for c := 0; c <= 14; c++ {
		for range 2 {
			n := 1 << c
			f64, f32, i8, i32 := getF64(n), scratchF32.get(n), scratchI8.get(n), scratchI32.get(n)
			fill(f64, math.NaN())
			fill(f32, float32(math.NaN()))
			fill(i8, -128)
			fill(i32, math.MinInt32)
			defer putF64(f64)
			defer scratchF32.put(f32)
			defer scratchI8.put(i8)
			defer scratchI32.put(i32)
		}
	}
}

// fill sets every element of s to v, by doubling copies.
func fill[T any](s []T, v T) {
	s[0] = v
	for i := 1; i < len(s); i *= 2 {
		copy(s[i:], s[:i])
	}
}

// TestConv2DLoweringImplicitGrid sweeps the implicit form — stride-1
// convolutions computed on the padded-width output grid from once-padded
// images — over output maps 1–5, 8 and 16 wide, kernels 1, 3 and 5 with
// padding 0–2, batches 1–13 and every precision, each image against the
// per-image reference bit for bit. It runs each shape as the lane rule
// picks its form and with the form forced, so the grid's edges (maps
// narrower than a tile, lanes past an image's last pixel) are met on
// every precision's tiles. Scratch is poisoned before each call, and the
// destination is followed by sentinels that must survive.
func TestConv2DLoweringImplicitGrid(t *testing.T) {
	if !useSIMD {
		t.Skip("the implicit form runs on the AVX2 tiles only")
	}
	defer func(prev int) { convGridMaxLanePct = prev }(convGridMaxLanePct)
	defer SetParallelism(SetParallelism(1))
	rng := rand.New(rand.NewSource(45))
	const maxBatch, cin, tail = 13, 3, 64
	for _, side := range []int{1, 2, 3, 4, 5, 8, 16} {
		for _, k := range []int{1, 3, 5} {
			for pad := 0; pad <= 2; pad++ {
				size := side + k - 1 - 2*pad // the input side giving a side×side output
				if size < 1 || pad >= k {
					continue
				}
				cout := []int{5, 16}[side%2]
				p := Conv2DParams{InChannels: cin, OutChannels: cout, Kernel: k, Stride: 1, Padding: pad}
				x := randTensor(rng, maxBatch, cin, size, size)
				weight, bias := randTensor(rng, cout, cin, k, k), randTensor(rng, cout)
				staticScale := SymmetricScale(x.data)
				imgLen, outLen := cin*size*size, cout*side*side
				for _, mode := range []convMode{modeF64, modeF32, modeI8, modeI8Dyn} {
					var want []float64
					for b := 0; b < maxBatch; b++ {
						want = append(want, refConvImage(mode, x.data[b*imgLen:(b+1)*imgLen], size, size, weight, bias, p, staticScale)...)
					}
					w32, err := PrepareConvWeightsF32(weight, p)
					if err != nil {
						t.Fatal(err)
					}
					w8, err := PrepareConvWeightsI8(weight, p)
					if err != nil {
						t.Fatal(err)
					}
					for _, batch := range []int{1, 2, 3, 5, 8, 13} {
						xb := MustFromSlice(x.data[:batch*imgLen], batch, cin, size, size)
						for _, forced := range []bool{false, true} {
							convGridMaxLanePct = 150
							if forced {
								convGridMaxLanePct = math.MaxInt32 / 100
							}
							// Below the fork cutoff a second worker cannot
							// change the code path.
							workerSet := []int{1, 2}
							if batch*side*side*cout*cin*k*k < gemmParallelCutoff {
								workerSet = workerSet[:1]
							}
							for _, workers := range workerSet {
								SetParallelism(workers)
								buf := make([]float64, batch*outLen+tail)
								for i := range buf {
									buf[i] = math.NaN()
								}
								for i := batch * outLen; i < len(buf); i++ {
									buf[i] = float64(i)
								}
								dst := MustFromSlice(buf[:batch*outLen], batch, cout, side, side)
								poisonScratch()
								switch mode {
								case modeF64:
									err = Conv2DInto(dst, xb, weight, bias, p)
								case modeF32:
									err = Conv2DIntoF32(dst, xb, w32, bias, p)
								case modeI8:
									err = Conv2DIntoI8(dst, xb, w8, bias, p, staticScale)
								default:
									err = Conv2DIntoI8(dst, xb, w8, bias, p, 0)
								}
								if err != nil {
									t.Fatal(err)
								}
								what := fmt.Sprintf("%v %+v on %dx%d batch=%d forced=%v workers=%d", mode, p, size, size, batch, forced, workers)
								for i, g := range dst.data {
									if g != want[i] {
										t.Fatalf("%s: element %d (image %d) = %v, per-image reference %v", what, i, i/outLen, g, want[i])
									}
								}
								for i := batch * outLen; i < len(buf); i++ {
									if buf[i] != float64(i) {
										t.Fatalf("%s: element %d past dst overwritten with %v", what, i-batch*outLen, buf[i])
									}
								}
							}
						}
					}
				}
			}
		}
	}
}
