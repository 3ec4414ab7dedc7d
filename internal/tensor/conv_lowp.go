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
// conv2DInto's.
func conv2DIntoF32(out []float64, x *Tensor, weight *ConvWeightsF32, bias *Tensor, p Conv2DParams, oh, ow int) {
	s := newConvShape(x, p, oh, ow)
	weight.fixLayout(s.cols)
	if s.forks() {
		sh := s // the closure's copy: s itself stays on the stack
		parallelFor(sh.rows, sh.grain(), func(lo, hi int) {
			convRowsF32(out, x.data, weight, bias, &sh, lo, hi)
		})
		return
	}
	convRowsF32(out, x.data, weight, bias, &s, 0, s.rows)
}

// convRowsF32 narrows the images that pixel rows [lo,hi) touch and runs
// the rows through the f32 panel.
func convRowsF32(out, x []float64, weight *ConvWeightsF32, bias *Tensor, s *convShape, lo, hi int) {
	b0, b1, imgLen := lo/s.cols, (hi-1)/s.cols+1, s.c*s.h*s.w
	imgs := scratchF32.get((b1 - b0) * imgLen)
	toF32(imgs, x[b0*imgLen:b1*imgLen])
	convRowsNarrow(out, imgs, &weight.packedConv, nil, nil, bias, s, b0, lo, hi,
		s.chunkRows(4), &scratchF32, &scratchF32, gemmPanel32)
	scratchF32.put(imgs)
}

// conv2DIntoI8 is the validated i8 kernel body.
func conv2DIntoI8(out []float64, x *Tensor, weight *ConvWeightsI8, bias *Tensor, p Conv2DParams, oh, ow int, xScale float64) {
	s := newConvShape(x, p, oh, ow)
	weight.fixLayout(s.cols)
	if s.forks() {
		sh := s // the closure's copy: s itself stays on the stack
		parallelFor(sh.rows, sh.grain(), func(lo, hi int) {
			convRowsI8(out, x.data, weight, bias, &sh, lo, hi, xScale)
		})
		return
	}
	convRowsI8(out, x.data, weight, bias, &s, 0, s.rows, xScale)
}

// convRowsI8 quantizes the images that pixel rows [lo,hi) touch and runs
// the rows through the i8 panel. A non-positive xScale falls back to one
// dynamic scale per image, never per call: the scale then depends only on
// that image's data, so the result cannot change with the batch or its
// sharding (an image two shards share is quantized identically by both).
func convRowsI8(out, x []float64, weight *ConvWeightsI8, bias *Tensor, s *convShape, lo, hi int, xScale float64) {
	b0, b1, imgLen := lo/s.cols, (hi-1)/s.cols+1, s.c*s.h*s.w
	imgs := scratchI8.get((b1 - b0) * imgLen)
	scales := getF64(b1 - b0)
	for b := b0; b < b1; b++ {
		img := x[b*imgLen : (b+1)*imgLen]
		sc := xScale
		if sc <= 0 {
			sc = SymmetricScale(img)
		}
		scales[b-b0] = sc
		quantizeSymmetric(imgs[(b-b0)*imgLen:(b-b0+1)*imgLen], img, sc)
	}
	convRowsNarrow(out, imgs, &weight.packedConv, weight.scale, scales, bias, s, b0, lo, hi,
		s.chunkRows(1), &scratchI8, &scratchI32, gemmPanel8)
	putF64(scales)
	scratchI8.put(imgs)
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
	onChannels := weight.wT != nil && cout >= s.rows
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
