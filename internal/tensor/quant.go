package tensor

import (
	"fmt"
	"math"
	"sync"
)

// Symmetric int8 quantization: q = clamp(round(v/scale), -127..127) with
// scale = maxAbs/127 and no zero point, so dequantization is a single
// multiply and q(0) == 0 exactly (zero padding stays zero through
// im2col). Weights are quantized per output channel — each output row of
// the GEMM gets its own scale, which is what keeps per-channel dynamic
// range loss out of the accumulation — while activations use one
// per-tensor scale (dynamic per call until a calibration pass pins it).
// Rounding is ties-to-even (math.RoundToEven is a single instruction on
// amd64/arm64); every quantizer in the package uses the same helper so
// reference implementations in tests reproduce kernels exactly.

// quantizeSymmetric writes the symmetric int8 quantization of src under
// the given scale into dst (len(dst) >= len(src)). A scale <= 0 maps
// everything to zero.
func quantizeSymmetric(dst []int8, src []float64, scale float64) {
	if scale <= 0 {
		clear(dst[:len(src)])
		return
	}
	inv := 1 / scale
	dst = dst[:len(src)]
	for i, v := range src {
		q := math.RoundToEven(v * inv)
		if q > 127 {
			q = 127
		} else if q < -127 {
			q = -127
		}
		dst[i] = int8(q)
	}
}

// SymmetricScale returns the symmetric quantization scale maxAbs/127 for
// the given data (0 for all-zero data).
func SymmetricScale(data []float64) float64 {
	return sliceMaxAbs(data) / 127
}

// sliceMaxAbs returns max_i |s[i]| (0 for empty slices).
func sliceMaxAbs(s []float64) float64 {
	m := 0.0
	for _, v := range s {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
}

// packedConv is a prepared narrow conv weight. It is held in exactly one
// layout — a second copy of every deployed weight is what resident memory
// cannot afford: w (Cout×patch, as prepared) until the first convolution
// shows the layer its frame size, then either still w, or wT (patch×Cout)
// when that layer can ever put its output channels on the vector axis
// (Cout >= OH·OW; see convRowsNarrow).
type packedConv[T any] struct {
	layout     sync.Once
	w, wT      []T
	out, patch int
}

// fixLayout settles the layout on the first call; cols is that call's OH·OW.
func (c *packedConv[T]) fixLayout(cols int) {
	c.layout.Do(func() {
		if c.out < cols {
			return
		}
		wT := make([]T, len(c.w))
		for oc := 0; oc < c.out; oc++ {
			for k, v := range c.w[oc*c.patch : (oc+1)*c.patch] {
				wT[k*c.out+oc] = v
			}
		}
		c.w, c.wT = nil, wT
	})
}

// ConvWeightsF32 is a convolution weight pre-converted to packed float32.
// Layers build it once per weight update and reuse it across Forward
// calls.
type ConvWeightsF32 struct{ packedConv[float32] }

// PrepareConvWeightsF32 converts a (Cout, Cin, K, K) weight tensor for
// the float32 convolution kernel.
func PrepareConvWeightsF32(weight *Tensor, p Conv2DParams) (*ConvWeightsF32, error) {
	if err := checkConvWeight(weight, p); err != nil {
		return nil, err
	}
	patch := p.InChannels * p.Kernel * p.Kernel
	cw := &ConvWeightsF32{}
	cw.w, cw.out, cw.patch = make([]float32, p.OutChannels*patch), p.OutChannels, patch
	toF32(cw.w, weight.data)
	return cw, nil
}

// ConvWeightsI8 is a convolution weight symmetric-quantized to int8 with
// one scale per output channel.
type ConvWeightsI8 struct {
	packedConv[int8]
	scale []float64 // len Cout: dequant multiplier per output row
}

// PrepareConvWeightsI8 quantizes a (Cout, Cin, K, K) weight tensor per
// output channel for the int8 convolution kernel.
func PrepareConvWeightsI8(weight *Tensor, p Conv2DParams) (*ConvWeightsI8, error) {
	if err := checkConvWeight(weight, p); err != nil {
		return nil, err
	}
	patch := p.InChannels * p.Kernel * p.Kernel
	cw := &ConvWeightsI8{scale: make([]float64, p.OutChannels)}
	cw.w, cw.out, cw.patch = make([]int8, p.OutChannels*patch), p.OutChannels, patch
	for oc := 0; oc < p.OutChannels; oc++ {
		row := weight.data[oc*patch : (oc+1)*patch]
		sc := SymmetricScale(row)
		cw.scale[oc] = sc
		quantizeSymmetric(cw.w[oc*patch:(oc+1)*patch], row, sc)
	}
	return cw, nil
}

// checkConvWeight validates a weight tensor against the conv params.
func checkConvWeight(weight *Tensor, p Conv2DParams) error {
	if err := p.validate(); err != nil {
		return err
	}
	if weight.Rank() != 4 || weight.shape[0] != p.OutChannels || weight.shape[1] != p.InChannels ||
		weight.shape[2] != p.Kernel || weight.shape[3] != p.Kernel {
		return fmt.Errorf("%w: conv weight shape %v, want %v", errShape, weight.shape,
			[]int{p.OutChannels, p.InChannels, p.Kernel, p.Kernel})
	}
	return nil
}

// LinearWeightsF32 is a linear weight (Out×In) pre-converted to float32.
type LinearWeightsF32 struct {
	w       []float32
	out, in int
}

// PrepareLinearWeightsF32 converts a rank-2 (Out, In) weight tensor for
// the float32 linear kernel.
func PrepareLinearWeightsF32(weight *Tensor) (*LinearWeightsF32, error) {
	if weight.Rank() != 2 {
		return nil, fmt.Errorf("%w: linear weight must be rank-2, got %v", errShape, weight.shape)
	}
	lw := &LinearWeightsF32{
		w:   make([]float32, len(weight.data)),
		out: weight.shape[0],
		in:  weight.shape[1],
	}
	toF32(lw.w, weight.data)
	return lw, nil
}

// LinearWeightsI8 is a linear weight symmetric-quantized to int8 with one
// scale per output row.
type LinearWeightsI8 struct {
	w       []int8
	scale   []float64
	out, in int
}

// PrepareLinearWeightsI8 quantizes a rank-2 (Out, In) weight tensor per
// output row for the int8 linear kernel.
func PrepareLinearWeightsI8(weight *Tensor) (*LinearWeightsI8, error) {
	if weight.Rank() != 2 {
		return nil, fmt.Errorf("%w: linear weight must be rank-2, got %v", errShape, weight.shape)
	}
	out, in := weight.shape[0], weight.shape[1]
	lw := &LinearWeightsI8{
		w:     make([]int8, out*in),
		scale: make([]float64, out),
		out:   out,
		in:    in,
	}
	for oc := 0; oc < out; oc++ {
		row := weight.data[oc*in : (oc+1)*in]
		sc := SymmetricScale(row)
		lw.scale[oc] = sc
		quantizeSymmetric(lw.w[oc*in:(oc+1)*in], row, sc)
	}
	return lw, nil
}
