package tensor

import "fmt"

// Conv2DParams describes a 2-D convolution: square kernel, symmetric stride
// and padding. Input and output use the NCHW layout.
type Conv2DParams struct {
	InChannels  int
	OutChannels int
	Kernel      int
	Stride      int
	Padding     int
}

// outSize returns the output spatial size for an input of size h×w.
func (p Conv2DParams) outSize(h, w int) (int, int) {
	oh := (h+2*p.Padding-p.Kernel)/p.Stride + 1
	ow := (w+2*p.Padding-p.Kernel)/p.Stride + 1
	return oh, ow
}

// validate checks the parameter block for internal consistency.
func (p Conv2DParams) validate() error {
	switch {
	case p.InChannels <= 0 || p.OutChannels <= 0:
		return fmt.Errorf("%w: conv channels must be positive (%d in, %d out)", errShape, p.InChannels, p.OutChannels)
	case p.Kernel <= 0:
		return fmt.Errorf("%w: conv kernel must be positive, got %d", errShape, p.Kernel)
	case p.Stride <= 0:
		return fmt.Errorf("%w: conv stride must be positive, got %d", errShape, p.Stride)
	case p.Padding < 0:
		return fmt.Errorf("%w: conv padding must be non-negative, got %d", errShape, p.Padding)
	}
	return nil
}

// convShape is the geometry of one convolution call. The output pixels of
// every image of the call, image-major, are rows [0, n·cols) of one patch
// matrix; the lowering below works on row ranges of it, so where an image
// ends is invisible to the arithmetic.
type convShape struct {
	p                  Conv2DParams
	n, c, h, w, oh, ow int
	cols, patch, rows  int // OH·OW, Cin·K·K, n·cols
}

func newConvShape(x *Tensor, p Conv2DParams, oh, ow int) convShape {
	s := convShape{p: p, n: x.shape[0], c: x.shape[1], h: x.shape[2], w: x.shape[3], oh: oh, ow: ow}
	s.cols, s.patch = oh*ow, s.c*p.Kernel*p.Kernel
	s.rows = s.n * s.cols
	return s
}

// convChunkBytes bounds the patch matrix a lowering holds at once, so the
// gathered operand stays cache-resident — and the scratch freelists, which
// keep what they are handed, stay small — whatever the batch and frame size.
const convChunkBytes = 128 << 10

// chunkRows is how many pixel rows are gathered and multiplied at a time
// for patch elements of elemBytes: about convChunkBytes of them, but at
// least 64 rows (a multiple of every kernel's tile) so deep layers keep a
// long pixel axis.
func (s *convShape) chunkRows(elemBytes int) int {
	return max(64, convChunkBytes/elemBytes/s.patch&^7)
}

// forks reports whether the call is worth sharding its pixel rows across
// the pool, and can be: the usual flop cutoff, and a worker idle to take
// a shard (none is under a Model.ForwardBatch shard).
func (s *convShape) forks() bool {
	return s.rows > 1 && s.rows*s.p.OutChannels*s.patch >= gemmParallelCutoff && IdleWorkers() > 0
}

// grain is the fewest pixel rows worth a shard of their own.
func (s *convShape) grain() int {
	return gemmParallelCutoff/(s.p.OutChannels*s.patch) + 1
}

// Implicit GEMM. A stride-1 convolution's output pixel (oy, ox) reads tap
// (c, ky, kx) at (oy+ky, ox+kx) of its image padded once with p zeros on
// every side, Hp×Wp = (H+2p)×(W+2p) per channel. Put the outputs on the
// padded-width grid — pixel (oy, ox) at lane oy·Wp + ox, the 2p lanes
// past each output row computing sums nothing reads — and every lane's
// tap is then the same offset from the lane: c·Hp·Wp + ky·Wp + kx. The
// vector tiles read their B operand through such a per-tap offset table,
// so on this grid they multiply the padded image itself and no patch
// matrix is gathered. A kept lane sums the products its gathered column
// would — a padded zero is the gather's zero — in the same order, so the
// bits do not change. The price is the wasted lanes — 2p/(W+2p) of them,
// more once an image's grid is rounded up to whole tiles — and one pass
// per image that pads it (the f32 and i8 paths fold it into the convert
// and quantize pass they make anyway).
//
// convGridMaxLanePct is the most lanes an image's grid may take, rounded
// up to whole tiles, per 100 of its pixels for the call to take the
// implicit form. Measured with BenchmarkConv2DStageShapes, implicit over
// gathered time, medians of 12 alternating rounds at batch 1–8: 150
// lanes (f64 and f32 at 4×4) ran 0.62–0.82×, and 125 or fewer (8×8,
// 16×16, every precision) 0.33–0.90×; 200 lanes did not pay — i8 at 4×4
// 0.91–1.10×, f64 at 2×2 1.07–1.18× from batch 3. (A variable only so
// that tests can force the form onto every stride-1 shape.)
var convGridMaxLanePct = 150

// implicit reports whether the call reads padded images on the output
// grid instead of a gathered patch matrix: stride 1 on the vector unit,
// where an image's grid in tiles of tile lanes wastes little enough.
func (s *convShape) implicit(tile int) bool {
	lanes := (s.oh*s.padWidth() + tile - 1) / tile * tile
	return useSIMD && s.p.Stride == 1 && 100*lanes <= convGridMaxLanePct*s.cols
}

// padWidth is Wp: the padded image's row length, and the output grid's.
func (s *convShape) padWidth() int { return s.w + 2*s.p.Padding }

// padLen is the length of one padded image.
func (s *convShape) padLen() int { return s.c * (s.h + 2*s.p.Padding) * s.padWidth() }

// gridLane is the lane of an image's output pixel pix on its grid.
func (s *convShape) gridLane(pix int) int { return pix/s.ow*s.padWidth() + pix%s.ow }

// gridRows is how many output rows of the grid are computed at a time for
// accumulators of accBytes: about convChunkBytes of sums, at least a row,
// at most the map.
func (s *convShape) gridRows(accBytes int) int {
	return min(s.oh, max(1, convChunkBytes/(accBytes*s.p.OutChannels*s.padWidth())))
}

// tapOffsets fills offs (s.patch long) with the padded image's tap table,
// in weight order; it ascends.
func (s *convShape) tapOffsets(offs []int32) {
	k, wp := s.p.Kernel, s.padWidth()
	plane := (s.h + 2*s.p.Padding) * wp
	i := 0
	for ch := 0; ch < s.c; ch++ {
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				offs[i] = int32(ch*plane + ky*wp + kx)
				i++
			}
		}
	}
}

// putImage writes one image into dst through put, row by row: as it lies,
// or with grid, padded for the implicit form (s.padLen() elements).
func putImage[T any](dst []T, img []float64, s *convShape, grid bool, put func([]T, []float64)) {
	if !grid {
		put(dst[:len(img)], img)
		return
	}
	p, w := s.p.Padding, s.w
	edge := p*s.padWidth() + p // p padded rows, and the next row's left margin
	at := 0
	for ch := 0; ch < s.c; ch++ {
		for y := 0; y < s.h; y++ {
			gap := 2 * p // this row's left margin and the last one's right
			if y == 0 {
				gap = edge
			}
			clear(dst[at:][:gap])
			put(dst[at+gap:][:w], img[(ch*s.h+y)*w:][:w])
			at += gap + w
		}
		clear(dst[at:][:edge])
		at += edge
	}
}

func copyRow(dst, src []float64) { copy(dst, src) }

// gatherRows writes the patches of pixel rows [lo,hi) as the rows of a
// (hi-lo)×patch matrix: each row is one output pixel's receptive field in
// weight order (channel, ky, kx), zero where it overhangs the padding.
// src holds whole images starting at image b0. Each pixel clamps its tap
// window to the image and clears its row once if anything overhangs, so
// a tap that reads padding for the whole call is never walked here either.
func gatherRows[T any](dst, src []T, s *convShape, b0, lo, hi int) {
	k, hw := s.p.Kernel, s.h*s.w
	b, pix := lo/s.cols, lo%s.cols
	for r := lo; r < hi; r++ {
		iy0 := pix/s.ow*s.p.Stride - s.p.Padding
		ix0 := pix%s.ow*s.p.Stride - s.p.Padding
		// The taps [kyLo,kyHi)×[kxLo,kxHi) fall inside the image.
		kyLo, kyHi := max(0, -iy0), min(k, s.h-iy0)
		kxLo, kxHi := max(0, -ix0), min(k, s.w-ix0)
		row := dst[(r-lo)*s.patch : (r-lo+1)*s.patch]
		if kyLo > 0 || kyHi < k || kxLo > 0 || kxHi < k {
			clear(row)
		}
		if kxLo < kxHi {
			img := src[(b-b0)*s.c*hw : (b-b0+1)*s.c*hw]
			for ch := 0; ch < s.c; ch++ {
				for ky := kyLo; ky < kyHi; ky++ {
					at := ch*hw + (iy0+ky)*s.w + ix0
					d := row[(ch*k+ky)*k+kxLo:]
					for i, v := range img[at+kxLo : at+kxHi] {
						d[i] = v
					}
				}
			}
		}
		if pix++; pix == s.cols {
			b, pix = b+1, 0
		}
	}
}

// gatherCols writes the same patches transposed, as a patch×(hi-lo)
// matrix: row (channel, ky, kx) holds that tap of every pixel, so pixels
// run along the contiguous axis. One image's rows [b·cols, (b+1)·cols)
// give the classic im2col matrix.
func gatherCols[T any](dst, src []T, s *convShape, b0, lo, hi int) {
	gatherColsStride(dst, src, s, b0, lo, hi, hi-lo)
}

// gatherColsStride is gatherCols with its rows ld >= hi-lo elements apart,
// zero beyond the pixels, for a kernel whose vector tile needs whole
// groups of lanes.
func gatherColsStride[T any](dst, src []T, s *convShape, b0, lo, hi, ld int) {
	k, st, pad, hw, nc := s.p.Kernel, s.p.Stride, s.p.Padding, s.h*s.w, hi-lo
	var zero T
	for ch := 0; ch < s.c; ch++ {
		for ky := 0; ky < k; ky++ {
			// A tap that reads padding for every output pixel of the call
			// (every one of a 1×1 map's taps but the centre) is a row of
			// zeros: cleared in one go, not walked run by run.
			deadY := (s.oh-1)*st+ky-pad < 0 || ky-pad >= s.h
			for kx := 0; kx < k; kx++ {
				row := dst[((ch*k+ky)*k+kx)*ld:][:ld]
				if deadY || (s.ow-1)*st+kx-pad < 0 || kx-pad >= s.w {
					clear(row)
					continue
				}
				clear(row[nc:])
				b, oy, ox := lo/s.cols, lo%s.cols/s.ow, lo%s.ow
				for i := 0; i < nc; {
					// One run is the rest of an output row (or of the range):
					// zeros left of the image, a strided piece of one input
					// line, zeros right of it.
					run := row[i:min(i+s.ow-ox, nc)]
					j := 0
					if iy := oy*st + ky - pad; iy >= 0 && iy < s.h {
						line := src[(b-b0)*s.c*hw+ch*hw+iy*s.w:][:s.w]
						ix := ox*st + kx - pad
						for ; j < len(run) && ix < 0; j, ix = j+1, ix+st {
							run[j] = zero
						}
						for ; j < len(run) && ix < s.w; j, ix = j+1, ix+st {
							run[j] = line[ix]
						}
					}
					for ; j < len(run); j++ {
						run[j] = zero
					}
					i += len(run)
					if ox, oy = 0, oy+1; oy == s.oh {
						b, oy = b+1, 0
					}
				}
			}
		}
	}
}

// col2im scatters gradient columns back into an image gradient, accumulating
// where patches overlap. It is the adjoint of im2col.
func col2im(dst []float64, src []float64, c, h, w int, p Conv2DParams, oh, ow int) {
	cols := oh * ow
	for ch := 0; ch < c; ch++ {
		dstCh := dst[ch*h*w : (ch+1)*h*w]
		for ky := 0; ky < p.Kernel; ky++ {
			for kx := 0; kx < p.Kernel; kx++ {
				row := src[((ch*p.Kernel+ky)*p.Kernel+kx)*cols : ((ch*p.Kernel+ky)*p.Kernel+kx+1)*cols]
				idx := 0
				for oy := 0; oy < oh; oy++ {
					iy := oy*p.Stride + ky - p.Padding
					if iy < 0 || iy >= h {
						idx += ow
						continue
					}
					base := iy * w
					for ox := 0; ox < ow; ox++ {
						ix := ox*p.Stride + kx - p.Padding
						if ix >= 0 && ix < w {
							dstCh[base+ix] += row[idx]
						}
						idx++
					}
				}
			}
		}
	}
}

// checkConv2DArgs validates the (x, weight, bias, p) triple shared by
// Conv2D and Conv2DInto and returns the batch and output spatial sizes.
func checkConv2DArgs(x, weight, bias *Tensor, p Conv2DParams) (n, oh, ow int, err error) {
	if err = checkConvWeight(weight, p); err != nil {
		return
	}
	return checkConvPrepared(x, bias, p, p.OutChannels, p.InChannels*p.Kernel*p.Kernel)
}

// checkConvPrepared validates x/bias/params against a weight of wOut rows
// of wPatch taps (a prepared narrow weight, or a checked tensor's shape).
func checkConvPrepared(x, bias *Tensor, p Conv2DParams, wOut, wPatch int) (n, oh, ow int, err error) {
	if err = p.validate(); err != nil {
		return
	}
	if x.Rank() != 4 {
		err = fmt.Errorf("%w: conv input must be rank-4 NCHW, got %v", errShape, x.shape)
		return
	}
	if x.shape[1] != p.InChannels {
		err = fmt.Errorf("%w: conv input has %d channels, params say %d", errShape, x.shape[1], p.InChannels)
		return
	}
	if patch := p.InChannels * p.Kernel * p.Kernel; wOut != p.OutChannels || wPatch != patch {
		err = fmt.Errorf("%w: prepared conv weight is %dx%d, params want %dx%d",
			errShape, wOut, wPatch, p.OutChannels, patch)
		return
	}
	if bias != nil && (bias.Rank() != 1 || bias.shape[0] != p.OutChannels) {
		err = fmt.Errorf("%w: conv bias shape %v, want [%d]", errShape, bias.shape, p.OutChannels)
		return
	}
	n = x.shape[0]
	oh, ow = p.outSize(x.shape[2], x.shape[3])
	if oh <= 0 || ow <= 0 {
		err = fmt.Errorf("%w: conv output size %dx%d for input %dx%d", errShape, oh, ow, x.shape[2], x.shape[3])
	}
	return
}

// Conv2D computes a batched 2-D convolution.
//
// Input x has shape (N, Cin, H, W); weight has shape (Cout, Cin, K, K);
// bias (optional, may be nil) has shape (Cout). The result has shape
// (N, Cout, OH, OW). The returned tensor is pool-backed (see Rent); the
// caller may Release it once consumed.
func Conv2D(x, weight, bias *Tensor, p Conv2DParams) (*Tensor, error) {
	n, oh, ow, err := checkConv2DArgs(x, weight, bias, p)
	if err != nil {
		return nil, err
	}
	out := rentRaw(n, p.OutChannels, oh, ow)
	conv2DInto(out.data, x, weight, bias, p, oh, ow)
	return out, nil
}

// Conv2DInto computes the convolution into dst, which must already have
// shape (N, Cout, OH, OW). Its previous contents are overwritten.
func Conv2DInto(dst, x, weight, bias *Tensor, p Conv2DParams) error {
	n, oh, ow, err := checkConv2DArgs(x, weight, bias, p)
	if err != nil {
		return err
	}
	if err := checkConvDst(dst, n, p.OutChannels, oh, ow); err != nil {
		return err
	}
	conv2DInto(dst.data, x, weight, bias, p, oh, ow)
	return nil
}

func checkConvDst(dst *Tensor, n, cout, oh, ow int) error {
	if dst.Rank() != 4 || dst.shape[0] != n || dst.shape[1] != cout ||
		dst.shape[2] != oh || dst.shape[3] != ow {
		return fmt.Errorf("%w: conv dst shape %v, want [%d %d %d %d]",
			errShape, dst.shape, n, cout, oh, ow)
	}
	return nil
}

// conv2DInto is the validated float64 kernel body: one lowering for every
// batch size. The call's pixel rows — all images together — are gathered
// chunk by chunk into a patch matrix and multiplied against the Cout×patch
// weight as it lies (training mutates it between calls, so nothing derived
// from it is kept). Above the flop cutoff the rows are sharded across idle
// pool workers, in whole vector tiles so that only the call's last shard
// has a ragged end; each output element is one k-ascending dot product
// either way, so batch size, sharding, chunking and the kernel a row range
// gets never change a bit.
func conv2DInto(out []float64, x, weight, bias *Tensor, p Conv2DParams, oh, ow int) {
	s := newConvShape(x, p, oh, ow)
	var biasData []float64
	if bias != nil {
		biasData = bias.data
	}
	if s.forks() {
		sh := s // the closure's copy: s itself stays on the stack
		unit := convTileRows
		if sh.implicit(gridLanesF64) {
			unit = sh.ow // whole rows of the output grid
		}
		parallelFor((sh.rows+unit-1)/unit, (sh.grain()+unit-1)/unit, func(lo, hi int) {
			convRows(out, x.data, weight.data, biasData, &sh, lo*unit, min(hi*unit, sh.rows))
		})
		return
	}
	convRows(out, x.data, weight.data, biasData, &s, 0, s.rows)
}

// The AVX2 kernel's register tile is convTileRows pixel lanes (two YMM; a
// 4-lane tile takes what is left, so lanes come in groups of
// gridLanesF64) by convTileChans output channels. A range of fewer than
// convMinRowsAVX2 rows would fill its one 4-lane tile mostly with padding
// and is left to the scalar kernel: on c128 1×1 maps the tile measured
// 0.62× of scalar at one row, 1.0–1.2× at two, 1.27× at three and 1.6–1.9×
// at four.
const (
	convTileRows    = 8
	convTileChans   = 4
	convMinRowsAVX2 = 3
	gridLanesF64    = 4
)

// convRows computes pixel rows [lo,hi) of the call's output: on the
// vector unit where there is one and the range is long enough — in the
// implicit form where the call takes it — by the scalar kernel otherwise.
func convRows(out, x, w, bias []float64, s *convShape, lo, hi int) {
	if useSIMD && hi-lo >= convMinRowsAVX2 {
		if s.implicit(gridLanesF64) {
			convGridAVX2(out, x, w, bias, s, lo, hi)
		} else {
			convRowsAVX2(out, x, w, bias, s, lo, hi)
		}
		return
	}
	chunk := s.chunkRows(8)
	buf := getF64(min(chunk, hi-lo) * s.patch)
	for c0 := lo; c0 < hi; c0 += chunk {
		c1 := min(c0+chunk, hi)
		gatherRows(buf, x, s, 0, c0, c1)
		dotRows(out, buf, w, bias, s, c0, c1)
	}
	putF64(buf)
}

// convRowsAVX2 is convRows on the vector unit. Lanes are pixels: a chunk's
// patches are gathered as columns (pixels contiguous, padded with zeros
// to whole 4-lane groups), so one load feeds eight pixels' next tap while
// each of four weight rows is read in place, one broadcast scalar per tap.
// The transposed arrangement — lanes are channels — would need the weight
// transposed, a second copy that training would have to keep fresh. The
// kernel holds a tile's 4×8 sums in registers across the whole patch and
// writes them once, channel-major, into sums; each sum is dotRows's: one
// accumulator, taps ascending from +0, multiply then add, bias last.
func convRowsAVX2(out, x, w, bias []float64, s *convShape, lo, hi int) {
	k, cout, cols := s.patch, s.p.OutChannels, s.cols
	// chunkRows is a multiple of 4, and so is every chunk's padded width.
	chunk := min(s.chunkRows(8), (hi-lo+3)&^3)
	patches := getF64(chunk * k)
	sums := getF64(chunk * convChanGroups(cout))
	offs := scratchI32.get(k)
	for c0 := lo; c0 < hi; c0 += chunk {
		c1 := min(c0+chunk, hi)
		nc := c1 - c0
		ld := (nc + 3) &^ 3
		gatherColsStride(patches, x, s, 0, c0, c1, ld)
		matrixOffsets(offs, ld)
		convTiles(sums, patches, offs, w, cout, ld)
		for oc := 0; oc < cout; oc++ {
			b, pix := c0/cols, c0%cols
			for r := 0; r < nc; {
				// One run is the rest of an image (or of the chunk).
				run := min(cols-pix, nc-r)
				dst, src := out[(b*cout+oc)*cols+pix:][:run], sums[oc*ld+r:][:run]
				if bias == nil {
					copy(dst, src)
				} else {
					for i, v := range src {
						dst[i] = v + bias[oc]
					}
				}
				r, b, pix = r+run, b+1, 0
			}
		}
	}
	scratchI32.put(offs)
	putF64(sums)
	putF64(patches)
}

// convGridAVX2 is convRowsAVX2 in the implicit form: each image the range
// touches is padded once, and its pixels are computed a few grid rows at
// a time straight from the padded image.
func convGridAVX2(out, x, w, bias []float64, s *convShape, lo, hi int) {
	cout, cols, ow, imgLen := s.p.OutChannels, s.cols, s.ow, s.c*s.h*s.w
	rows := s.gridRows(8)
	// Lanes past an image's last pixel read up to 3 elements past it.
	img := getF64(s.padLen() + gridLanesF64)
	clear(img[s.padLen():])
	offs := scratchI32.get(s.patch)
	s.tapOffsets(offs)
	sums := getF64(((rows*s.padWidth() + 3) &^ 3) * convChanGroups(cout))
	for c0 := lo; c0 < hi; {
		// A chunk is at most rows output rows of one image.
		b, pix := c0/cols, c0%cols
		if c0 == lo || pix == 0 {
			putImage(img, x[b*imgLen:][:imgLen], s, true, copyRow)
		}
		end := min(hi-b*cols, cols, (pix/ow+rows)*ow)
		g0 := s.gridLane(pix)
		ld := (s.gridLane(end-1) + 1 - g0 + 3) &^ 3
		convTiles(sums, img[g0:], offs, w, cout, ld)
		for oc := 0; oc < cout; oc++ {
			for p := pix; p < end; {
				// One run is the rest of an output row (or of the chunk).
				run := min(ow-p%ow, end-p)
				dst, src := out[(b*cout+oc)*cols+p:][:run], sums[oc*ld+s.gridLane(p)-g0:][:run]
				if bias == nil {
					copy(dst, src)
				} else {
					for i, v := range src {
						dst[i] = v + bias[oc]
					}
				}
				p += run
			}
		}
		c0 = b*cols + end
	}
	putF64(sums)
	scratchI32.put(offs)
	putF64(img)
}

// convChanGroups is cout rounded up to whole channel groups, so that a
// last group's repeated weight rows have rows of sums to land in.
func convChanGroups(cout int) int {
	return (cout + convTileChans - 1) / convTileChans * convTileChans
}

// convTiles computes sums[oc*n+j] = Σ_kk b[offs[kk]+j]·w[oc][kk] for every
// output channel and the lanes j in [0,n), n a positive multiple of 4, on
// the AVX2 tile; offs must ascend.
func convTiles(sums, b []float64, offs []int32, w []float64, cout, n int) {
	k := len(offs)
	_ = b[int(offs[k-1])+n-1] // the offsets ascend: every tap's lanes are in b
	_ = sums[convChanGroups(cout)*n-1]
	for oc := 0; oc < cout; oc += convTileChans {
		// A last group short of four channels repeats its last weight
		// row; the repeats land in rows of sums nothing reads.
		w1, w2, w3 := min(oc+1, cout-1), min(oc+2, cout-1), min(oc+3, cout-1)
		convTileF64AVX2(&sums[oc*n], n, &b[0], &offs[0], &w[oc*k], &w[w1*k], &w[w2*k], &w[w3*k], k, n)
	}
}

// dotRows writes out[pixel, oc] = patches[pixel]·w[oc] + bias[oc] for the
// pixel rows [lo,hi) whose patches are the rows of patches: the portable
// float64 kernel, and the one for ranges too short for convRowsAVX2. A
// register tile of one pixel by four output channels keeps four
// k-ascending sums in flight over the weight rows as they lie — the same
// per-element order as the seed's axpy loop without its store per multiply.
// (Eight sums spill: measured slower.) Channel quads are the outer loop,
// so the weight streams once per chunk.
func dotRows(out, patches, w, bias []float64, s *convShape, lo, hi int) {
	k, cout, cols := s.patch, s.p.OutChannels, s.cols
	oc := 0
	for ; oc+4 <= cout; oc += 4 {
		w0, w1, w2, w3 := w[oc*k:][:k], w[(oc+1)*k:][:k], w[(oc+2)*k:][:k], w[(oc+3)*k:][:k]
		b, pix := lo/cols, lo%cols
		for r := lo; r < hi; r++ {
			var s0, s1, s2, s3 float64
			for i, a := range patches[(r-lo)*k:][:k] {
				s0 += a * w0[i]
				s1 += a * w1[i]
				s2 += a * w2[i]
				s3 += a * w3[i]
			}
			if bias != nil {
				s0, s1, s2, s3 = s0+bias[oc], s1+bias[oc+1], s2+bias[oc+2], s3+bias[oc+3]
			}
			// Pixel r's element of channel oc; channels are cols apart.
			o := out[(b*cout+oc)*cols+pix:]
			o[0], o[cols], o[2*cols], o[3*cols] = s0, s1, s2, s3
			if pix++; pix == cols {
				b, pix = b+1, 0
			}
		}
	}
	// The last Cout%4 channels, one dot product at a time.
	for ; oc < cout; oc++ {
		wr := w[oc*k:][:k]
		b, pix := lo/cols, lo%cols
		for r := lo; r < hi; r++ {
			sum := 0.0
			for i, a := range patches[(r-lo)*k:][:k] {
				sum += a * wr[i]
			}
			if bias != nil {
				sum += bias[oc]
			}
			out[(b*cout+oc)*cols+pix] = sum
			if pix++; pix == cols {
				b, pix = b+1, 0
			}
		}
	}
}

// Conv2DGrads holds the gradients produced by Conv2DBackward.
type Conv2DGrads struct {
	DX *Tensor // gradient w.r.t. the input, same shape as x
	DW *Tensor // gradient w.r.t. the weight
	DB *Tensor // gradient w.r.t. the bias; nil when bias was nil
}

// Conv2DBackward computes gradients of a Conv2D call given the upstream
// gradient dy (shape N×Cout×OH×OW), the original input x and weight.
// Set hasBias to indicate whether a bias gradient is needed.
//
// Above a flop cutoff the batch dimension is sharded across the worker
// pool: dx planes are disjoint per image, while dW/dB accumulate into
// per-shard pooled scratch reduced in shard order, so the result is
// deterministic for a fixed parallelism (and equal to the serial result
// up to floating-point reassociation of the batch sum).
func Conv2DBackward(dy, x, weight *Tensor, p Conv2DParams, hasBias bool) (*Conv2DGrads, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	oh, ow := p.outSize(h, w)
	wantDY := []int{n, p.OutChannels, oh, ow}
	if dy.Rank() != 4 || dy.shape[0] != wantDY[0] || dy.shape[1] != wantDY[1] ||
		dy.shape[2] != wantDY[2] || dy.shape[3] != wantDY[3] {
		return nil, fmt.Errorf("%w: conv backward dy shape %v, want %v", errShape, dy.shape, wantDY)
	}

	shape := newConvShape(x, p, oh, ow)
	patch, cols := shape.patch, shape.cols
	imgLen := c * h * w
	outLen := p.OutChannels * cols
	wLen := p.OutChannels * patch

	grads := &Conv2DGrads{
		DX: Rent(x.shape...),
		DW: Rent(weight.shape...),
	}
	if hasBias {
		grads.DB = Rent(p.OutChannels)
	}

	// backwardOne accumulates image b's contribution into dwAcc/dbAcc and
	// writes its (disjoint) dx plane.
	backwardOne := func(colBuf, dColBuf, dwAcc, dbAcc []float64, b int) {
		dyb := dy.data[b*outLen : (b+1)*outLen]
		// dW += dy[b] (Cout×cols) · colBufᵀ (cols×patch)
		gatherCols(colBuf, x.data, &shape, 0, b*cols, (b+1)*cols)
		for oc := 0; oc < p.OutChannels; oc++ {
			dyRow := dyb[oc*cols : (oc+1)*cols]
			dwRow := dwAcc[oc*patch : (oc+1)*patch]
			for pi := 0; pi < patch; pi++ {
				colRow := colBuf[pi*cols : (pi+1)*cols]
				s := 0.0
				for i, g := range dyRow {
					s += g * colRow[i]
				}
				dwRow[pi] += s
			}
			if hasBias {
				s := 0.0
				for _, g := range dyRow {
					s += g
				}
				dbAcc[oc] += s
			}
		}
		// dCol = weightᵀ (patch×Cout) · dy[b] (Cout×cols)
		clear(dColBuf)
		for oc := 0; oc < p.OutChannels; oc++ {
			wRow := weight.data[oc*patch : (oc+1)*patch]
			dyRow := dyb[oc*cols : (oc+1)*cols]
			for pi, wv := range wRow {
				if wv == 0 {
					continue
				}
				axpy64(dColBuf[pi*cols:(pi+1)*cols], dyRow, wv)
			}
		}
		col2im(grads.DX.data[b*imgLen:(b+1)*imgLen], dColBuf, c, h, w, p, oh, ow)
	}

	flops := n * p.OutChannels * patch * cols
	spans := planShards(n, 1, 0)
	if spans.count > 1 && flops >= gemmParallelCutoff {
		// Shard 0 accumulates directly into grads; shards 1.. use pooled
		// accumulators merged afterwards in shard order.
		nAux := spans.count - 1
		auxDW := getF64(nAux * wLen)
		clear(auxDW)
		var auxDB []float64
		if hasBias {
			auxDB = getF64(nAux * p.OutChannels)
			clear(auxDB)
		}
		runShards(spans, func(si, lo, hi int) {
			colBuf := getF64(patch * cols)
			dColBuf := getF64(patch * cols)
			dwAcc, dbAcc := grads.DW.data, []float64(nil)
			if hasBias {
				dbAcc = grads.DB.data
			}
			if si != 0 {
				dwAcc = auxDW[(si-1)*wLen : si*wLen]
				if hasBias {
					dbAcc = auxDB[(si-1)*p.OutChannels : si*p.OutChannels]
				}
			}
			for b := lo; b < hi; b++ {
				backwardOne(colBuf, dColBuf, dwAcc, dbAcc, b)
			}
			putF64(colBuf)
			putF64(dColBuf)
		})
		for si := 0; si < nAux; si++ {
			part := auxDW[si*wLen : (si+1)*wLen]
			dw := grads.DW.data
			for i, v := range part {
				dw[i] += v
			}
			if hasBias {
				pb := auxDB[si*p.OutChannels : (si+1)*p.OutChannels]
				db := grads.DB.data
				for i, v := range pb {
					db[i] += v
				}
			}
		}
		putF64(auxDW)
		if hasBias {
			putF64(auxDB)
		}
		return grads, nil
	}

	colBuf := getF64(patch * cols)
	dColBuf := getF64(patch * cols)
	var dbAcc []float64
	if hasBias {
		dbAcc = grads.DB.data
	}
	for b := 0; b < n; b++ {
		backwardOne(colBuf, dColBuf, grads.DW.data, dbAcc, b)
	}
	putF64(colBuf)
	putF64(dColBuf)
	return grads, nil
}
