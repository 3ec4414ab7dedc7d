package tensor

import "fmt"

// Reduced-precision linear layers: x·Wᵀ + b from prepared narrow
// weights, the classifier-side counterpart of conv_lowp.go. Activations
// convert into typed scratch per call; each output element is one
// unrolled narrow dot product with bias-add fused into the float64
// writeback. The batch dimension of a classifier is small relative to
// the convolutions feeding it, so these kernels stay on the caller's
// goroutine — serial, and therefore trivially deterministic.

// checkLinearPrepared validates a prepared-weight linear call.
func checkLinearPrepared(x, bias *Tensor, out, in int) (n int, err error) {
	if x.Rank() != 2 {
		return 0, fmt.Errorf("%w: linear needs rank-2 x, got %v", errShape, x.shape)
	}
	n = x.shape[0]
	if x.shape[1] != in {
		return 0, fmt.Errorf("%w: linear input dim %d vs weight dim %d", errShape, x.shape[1], in)
	}
	if bias != nil && (bias.Rank() != 1 || bias.shape[0] != out) {
		return 0, fmt.Errorf("%w: linear bias shape %v, want [%d]", errShape, bias.shape, out)
	}
	return n, nil
}

// LinearF32 computes y = x·Wᵀ + b in float32 from a prepared weight; the
// result is pool-backed like Linear.
func LinearF32(x *Tensor, weight *LinearWeightsF32, bias *Tensor) (*Tensor, error) {
	n, err := checkLinearPrepared(x, bias, weight.out, weight.in)
	if err != nil {
		return nil, err
	}
	y := rentRaw(n, weight.out)
	linearIntoF32(y.data, x, weight, bias, n)
	return y, nil
}

func linearIntoF32(dst []float64, x *Tensor, weight *LinearWeightsF32, bias *Tensor, n int) {
	in, out := weight.in, weight.out
	x32 := scratchF32.get(n * in)
	toF32(x32, x.data)
	var biasData []float64
	if bias != nil {
		biasData = bias.data
	}
	for i := 0; i < n; i++ {
		ai := x32[i*in : (i+1)*in]
		di := dst[i*out : (i+1)*out]
		for j := 0; j < out; j++ {
			s := float64(dotF32(ai, weight.w[j*in:(j+1)*in]))
			if biasData != nil {
				s += biasData[j]
			}
			di[j] = s
		}
	}
	scratchF32.put(x32)
}

// LinearI8 computes y = x·Wᵀ + b in symmetric int8 with int32
// accumulation. xScale semantics match Conv2DI8 (<= 0 derives a dynamic
// per-row scale, keeping results independent of batch sharding).
func LinearI8(x *Tensor, weight *LinearWeightsI8, bias *Tensor, xScale float64) (*Tensor, error) {
	n, err := checkLinearPrepared(x, bias, weight.out, weight.in)
	if err != nil {
		return nil, err
	}
	y := rentRaw(n, weight.out)
	linearIntoI8(y.data, x, weight, bias, n, xScale)
	return y, nil
}

func linearIntoI8(dst []float64, x *Tensor, weight *LinearWeightsI8, bias *Tensor, n int, xScale float64) {
	in, out := weight.in, weight.out
	x8 := scratchI8.get(in)
	var biasData []float64
	if bias != nil {
		biasData = bias.data
	}
	for i := 0; i < n; i++ {
		xi := x.data[i*in : (i+1)*in]
		// Dynamic fallback quantizes per row so the result never depends
		// on which rows share a call (mirrors the conv per-image scale).
		sc := xScale
		if sc <= 0 {
			sc = SymmetricScale(xi)
		}
		quantizeSymmetric(x8, xi, sc)
		ai := x8[:in]
		di := dst[i*out : (i+1)*out]
		for j := 0; j < out; j++ {
			s := float64(dotI8(ai, weight.w[j*in:(j+1)*in])) * (weight.scale[j] * sc)
			if biasData != nil {
				s += biasData[j]
			}
			di[j] = s
		}
	}
	scratchI8.put(x8)
}
