package tensor

// Reduced-precision convolution: the lowering of conv.go — every image's
// pixel rows in one patch matrix — run through the narrow GEMM panels.
// Each image is converted (f32) or quantized (i8) ONCE into typed scratch,
// so the K²-overlapping gather below it moves 4-byte (or 1-byte) elements
// instead of doing K² redundant conversions, the GEMM runs entirely in the
// narrow type, and bias add, dequantization and the widening back to the
// float64 interchange tensor are one writeback pass. The panels vectorize
// their contiguous output axis, so the lowering puts the longer of the two
// output axes there; both orientations sum every element in the panels'
// one fixed order (f32: gemmKC-aligned quartets; i8: exact), so the choice
// — like batch size, row sharding and chunking — never changes a bit.

// Conv2DF32 computes a batched 2-D convolution in float32 arithmetic
// from a pre-converted weight. Input and result stay float64 tensors
// (the engine interchange type); the result is pool-backed like Conv2D.
func Conv2DF32(x *Tensor, weight *ConvWeightsF32, bias *Tensor, p Conv2DParams) (*Tensor, error) {
	n, oh, ow, err := checkConvPrepared(x, bias, p, weight.out, weight.patch)
	if err != nil {
		return nil, err
	}
	out := rentRaw(n, p.OutChannels, oh, ow)
	conv2DIntoF32(out.data, x, weight, bias, p, oh, ow)
	return out, nil
}

// Conv2DIntoF32 is the destination-reuse variant of Conv2DF32.
func Conv2DIntoF32(dst, x *Tensor, weight *ConvWeightsF32, bias *Tensor, p Conv2DParams) error {
	n, oh, ow, err := checkConvPrepared(x, bias, p, weight.out, weight.patch)
	if err != nil {
		return err
	}
	if err := checkConvDst(dst, n, p.OutChannels, oh, ow); err != nil {
		return err
	}
	conv2DIntoF32(dst.data, x, weight, bias, p, oh, ow)
	return nil
}

// Conv2DI8 computes a batched 2-D convolution in symmetric int8
// arithmetic with int32 accumulation. xScale is the activation
// quantization scale; pass a calibrated scale for the static path, or
// xScale <= 0 to derive a per-image scale from each image's max |x|
// (exact same quantizer, one extra pass per image). The per-image
// fallback depends only on that image's data, so dynamic-scale results
// are independent of which images share a call.
func Conv2DI8(x *Tensor, weight *ConvWeightsI8, bias *Tensor, p Conv2DParams, xScale float64) (*Tensor, error) {
	n, oh, ow, err := checkConvPrepared(x, bias, p, weight.out, weight.patch)
	if err != nil {
		return nil, err
	}
	out := rentRaw(n, p.OutChannels, oh, ow)
	conv2DIntoI8(out.data, x, weight, bias, p, oh, ow, xScale)
	return out, nil
}

// Conv2DIntoI8 is the destination-reuse variant of Conv2DI8.
func Conv2DIntoI8(dst, x *Tensor, weight *ConvWeightsI8, bias *Tensor, p Conv2DParams, xScale float64) error {
	n, oh, ow, err := checkConvPrepared(x, bias, p, weight.out, weight.patch)
	if err != nil {
		return err
	}
	if err := checkConvDst(dst, n, p.OutChannels, oh, ow); err != nil {
		return err
	}
	conv2DIntoI8(dst.data, x, weight, bias, p, oh, ow, xScale)
	return nil
}

// conv2DIntoF32 is the validated f32 kernel body; rows shard like
// conv2DInto's, in whole output rows when the call takes the implicit
// form.
func conv2DIntoF32(out []float64, x *Tensor, weight *ConvWeightsF32, bias *Tensor, p Conv2DParams, oh, ow int) {
	s := newConvShape(x, p, oh, ow)
	weight.fixLayout(s.cols)
	if s.forks() {
		sh := s // the closure's copy: s itself stays on the stack
		unit := weight.gridUnit(&sh, gridLanesF32)
		parallelFor(sh.rows/unit, (sh.grain()+unit-1)/unit, func(lo, hi int) {
			convRowsF32(out, x.data, weight, bias, &sh, lo*unit, hi*unit)
		})
		return
	}
	convRowsF32(out, x.data, weight, bias, &s, 0, s.rows)
}

// convRowsF32 narrows the images that pixel rows [lo,hi) touch and runs
// the rows through the f32 panel, or on the output grid through its tiles.
func convRowsF32(out, x []float64, weight *ConvWeightsF32, bias *Tensor, s *convShape, lo, hi int) {
	b0, b1, imgLen := lo/s.cols, (hi-1)/s.cols+1, s.c*s.h*s.w
	grid, span := weight.onGrid(s, gridLanesF32), imgLen
	if grid {
		span = s.padLen()
	}
	// On the grid, lanes past the last image's last pixel read up to 7
	// elements past it.
	imgs := scratchF32.get((b1-b0)*span + gridLanesF32)
	clear(imgs[(b1-b0)*span:])
	for b := b0; b < b1; b++ {
		putImage(imgs[(b-b0)*span:], x[b*imgLen:][:imgLen], s, grid, toF32)
	}
	if grid {
		convGridNarrow(out, imgs, &weight.packedConv, nil, nil, bias, s, b0, lo, hi, gridLanesF32, &scratchF32, gemmTiles32)
	} else {
		convRowsNarrow(out, imgs, &weight.packedConv, nil, nil, bias, s, b0, lo, hi,
			s.chunkRows(4), &scratchF32, &scratchF32, gemmPanel32)
	}
	scratchF32.put(imgs)
}

// conv2DIntoI8 is the validated i8 kernel body.
func conv2DIntoI8(out []float64, x *Tensor, weight *ConvWeightsI8, bias *Tensor, p Conv2DParams, oh, ow int, xScale float64) {
	s := newConvShape(x, p, oh, ow)
	weight.fixLayout(s.cols)
	if s.forks() {
		sh := s // the closure's copy: s itself stays on the stack
		unit := weight.gridUnit(&sh, gridLanesI8)
		parallelFor(sh.rows/unit, (sh.grain()+unit-1)/unit, func(lo, hi int) {
			convRowsI8(out, x.data, weight, bias, &sh, lo*unit, hi*unit, xScale)
		})
		return
	}
	convRowsI8(out, x.data, weight, bias, &s, 0, s.rows, xScale)
}

// convRowsI8 quantizes the images that pixel rows [lo,hi) touch and runs
// the rows through the i8 panel, or on the output grid through its tiles.
// A non-positive xScale falls back to one dynamic scale per image, never
// per call: the scale then depends only on that image's data, so the
// result cannot change with the batch or its sharding (an image two
// shards share is quantized identically by both).
func convRowsI8(out, x []float64, weight *ConvWeightsI8, bias *Tensor, s *convShape, lo, hi int, xScale float64) {
	b0, b1, imgLen := lo/s.cols, (hi-1)/s.cols+1, s.c*s.h*s.w
	grid, span := weight.onGrid(s, gridLanesI8), imgLen
	if grid {
		span = s.padLen()
	}
	// On the grid, lanes past the last image's last pixel read up to 15
	// elements past it.
	imgs := scratchI8.get((b1-b0)*span + gridLanesI8)
	clear(imgs[(b1-b0)*span:])
	scales := getF64(b1 - b0)
	for b := b0; b < b1; b++ {
		img := x[b*imgLen : (b+1)*imgLen]
		sc := xScale
		if sc <= 0 {
			sc = SymmetricScale(img)
		}
		scales[b-b0] = sc
		putImage(imgs[(b-b0)*span:], img, s, grid, func(dst []int8, src []float64) {
			quantizeSymmetric(dst, src, sc)
		})
	}
	if grid {
		convGridNarrow(out, imgs, &weight.packedConv, weight.scale, scales, bias, s, b0, lo, hi, gridLanesI8, &scratchI32, gemmTiles8)
	} else {
		convRowsNarrow(out, imgs, &weight.packedConv, weight.scale, scales, bias, s, b0, lo, hi,
			s.chunkRows(1), &scratchI8, &scratchI32, gemmPanel8)
	}
	putF64(scales)
	scratchI8.put(imgs)
}

// onChannels reports whether the call puts its output channels on the
// panel's vector axis (see convRowsNarrow).
func (c *packedConv[T]) onChannels(s *convShape) bool {
	return c.wT != nil && c.out >= s.rows
}

// The narrow tiles take their lanes in groups of gridLanesF32 and
// gridLanesI8: in the implicit form, each image's grid is rounded up to
// whole groups.
const (
	gridLanesF32 = 8
	gridLanesI8  = 16
)

// onGrid reports whether the call takes the implicit form: the pixels on
// the vector axis, read from padded images on the output grid by tiles of
// tile lanes.
func (c *packedConv[T]) onGrid(s *convShape, tile int) bool {
	return !c.onChannels(s) && s.implicit(tile)
}

// gridUnit is the fewest pixel rows a shard of the call may hold: whole
// output rows on the grid, any row otherwise.
func (c *packedConv[T]) gridUnit(s *convShape, tile int) int {
	if c.onGrid(s, tile) {
		return s.ow
	}
	return 1
}

// convRowsNarrow computes pixel rows [lo,hi) from narrowed images (imgs
// starts at image b0) with the element type's GEMM panel, chunk rows at a
// time.
// The orientation rule reads only the call's shape: when the output
// channels are at least as many as the call's pixel rows (deep stages,
// small frames, batch 1), the chunk's patches are gathered as rows and
// multiplied into the transposed weight, so Cout is the panel's vector
// axis; otherwise they are gathered as columns under the weight, and the
// pixels are. A layer whose first frame was too large to ever want the
// first form kept no transposed weight and always takes the second.
//
// wScale (per output channel) and xScale (per image from b0) dequantize
// int32 sums; both are nil for f32.
func convRowsNarrow[T any, A float32 | int32](out []float64, imgs []T, weight *packedConv[T],
	wScale, xScale []float64, bias *Tensor, s *convShape, b0, lo, hi, chunk int,
	elems *typedPool[T], accs *typedPool[A],
	panel func(dst []A, a, b []T, ars, aks, i0, i1, k, n int)) {
	cout, chunk := s.p.OutChannels, min(chunk, hi-lo)
	onChannels := weight.onChannels(s)
	patches := elems.get(chunk * s.patch)
	acc := accs.get(chunk * cout)
	var biasData []float64
	if bias != nil {
		biasData = bias.data
	}
	for c0 := lo; c0 < hi; c0 += chunk {
		c1 := min(c0+chunk, hi)
		nc := c1 - c0
		// acc holds element (row r, channel oc) at r*rowStep + oc*chanStep.
		rowStep, chanStep := cout, 1
		switch {
		case onChannels:
			gatherRows(patches, imgs, s, b0, c0, c1)
			panel(acc, patches, weight.wT, s.patch, 1, 0, nc, s.patch, cout)
		case weight.wT != nil:
			rowStep, chanStep = 1, nc
			gatherCols(patches, imgs, s, b0, c0, c1)
			panel(acc, weight.wT, patches, 1, cout, 0, cout, s.patch, nc)
		default:
			rowStep, chanStep = 1, nc
			gatherCols(patches, imgs, s, b0, c0, c1)
			panel(acc, weight.w, patches, s.patch, 1, 0, cout, s.patch, nc)
		}
		for oc := 0; oc < cout; oc++ {
			bo := 0.0
			if biasData != nil {
				bo = biasData[oc]
			}
			b, pix := c0/s.cols, c0%s.cols
			for r := 0; r < nc; {
				// One run is the rest of an image (or of the chunk).
				run := min(s.cols-pix, nc-r)
				sc := 1.0
				if wScale != nil {
					sc = wScale[oc] * xScale[b-b0]
				}
				dst := out[(b*cout+oc)*s.cols+pix:][:run]
				for i := range dst {
					dst[i] = float64(acc[(r+i)*rowStep+oc*chanStep])*sc + bo
				}
				r, b, pix = r+run, b+1, 0
			}
		}
	}
	accs.put(acc)
	elems.put(patches)
}

// convGridNarrow is convRowsNarrow in the implicit form: imgs holds padded
// images (see putImage), and the pixels of each chunk of at most a few
// output rows of one image are computed on its grid by the element
// type's tiles, which run lanes lanes at a time, straight from its padded
// image. The weight is read as it lies, either layout.
func convGridNarrow[T any, A float32 | int32](out []float64, imgs []T, weight *packedConv[T],
	wScale, xScale []float64, bias *Tensor, s *convShape, b0, lo, hi, lanes int,
	accs *typedPool[A],
	tiles func(dst []A, ldd int, a []T, ars, aks, i0, i1 int, b []T, offs []int32, n int)) {
	cout, cols, ow, span := s.p.OutChannels, s.cols, s.ow, s.padLen()
	w, ars, aks := weight.w, s.patch, 1
	if weight.wT != nil {
		w, ars, aks = weight.wT, 1, cout
	}
	rows := s.gridRows(4)
	offs := scratchI32.get(s.patch)
	s.tapOffsets(offs)
	acc := accs.get(cout * ((rows*s.padWidth() + lanes - 1) / lanes * lanes))
	var biasData []float64
	if bias != nil {
		biasData = bias.data
	}
	for c0 := lo; c0 < hi; {
		// A chunk is at most rows output rows of one image.
		b, pix := c0/cols, c0%cols
		end := min(hi-b*cols, cols, (pix/ow+rows)*ow)
		g0 := s.gridLane(pix)
		n := (s.gridLane(end-1) + 1 - g0 + lanes - 1) / lanes * lanes
		tiles(acc, n, w, ars, aks, 0, cout, imgs[(b-b0)*span+g0:], offs, n)
		for oc := 0; oc < cout; oc++ {
			bo, sc := 0.0, 1.0
			if biasData != nil {
				bo = biasData[oc]
			}
			if wScale != nil {
				sc = wScale[oc] * xScale[b-b0]
			}
			for p := pix; p < end; {
				// One run is the rest of an output row (or of the chunk).
				run := min(ow-p%ow, end-p)
				dst, src := out[(b*cout+oc)*cols+p:][:run], acc[oc*n+s.gridLane(p)-g0:][:run]
				for i, v := range src {
					dst[i] = float64(v)*sc + bo
				}
				p += run
			}
		}
		c0 = b*cols + end
	}
	accs.put(acc)
	scratchI32.put(offs)
}
