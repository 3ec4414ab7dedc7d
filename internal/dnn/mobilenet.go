package dnn

import (
	"fmt"
	"math/rand"

	"offloadnn/internal/tensor"
)

// MobileNetConfig parameterizes the MobileNetV2-style builder. As with
// ResNet, the reproduction uses scaled-down widths; the block/stage
// decomposition (stem + 4 stages + classifier) matches the sharing
// granularity used throughout.
type MobileNetConfig struct {
	InChannels  int
	NumClasses  int
	BaseWidth   int // first-stage width (e.g., 8 at test scale)
	Expansion   int // inverted-residual expansion factor (6 in the paper's MobileNetV2)
	StageBlocks [4]int
	Seed        int64
}

// invertedResidual approximates the MobileNetV2 unit with the layers the
// engine supports: a 1×1 expansion conv, a 3×3 conv at the expanded width
// (standing in for the depthwise conv), and a 1×1 projection, with a
// residual connection when the shapes allow it. Structurally it exposes
// the same pruning axis (the expanded width) as the real block.
type invertedResidual struct {
	name   string
	Expand *convLayer
	BNe    *batchNormLayer
	ReluE  *reluLayer
	Mid    *convLayer
	BNm    *batchNormLayer
	ReluM  *reluLayer
	Proj   *convLayer
	BNp    *batchNormLayer

	residual bool
	lastX    *tensor.Tensor
}

func newInvertedResidual(name string, in, expanded, out, stride int, rng *rand.Rand) *invertedResidual {
	return &invertedResidual{
		name: name,
		Expand: newConvLayer(name+".expand", tensor.Conv2DParams{
			InChannels: in, OutChannels: expanded, Kernel: 1, Stride: 1,
		}, false, rng),
		BNe:   newBatchNormLayer(name+".bne", expanded),
		ReluE: newReLULayer(name + ".relue"),
		Mid: newConvLayer(name+".mid", tensor.Conv2DParams{
			InChannels: expanded, OutChannels: expanded, Kernel: 3, Stride: stride, Padding: 1,
		}, false, rng),
		BNm:   newBatchNormLayer(name+".bnm", expanded),
		ReluM: newReLULayer(name + ".relum"),
		Proj: newConvLayer(name+".proj", tensor.Conv2DParams{
			InChannels: expanded, OutChannels: out, Kernel: 1, Stride: 1,
		}, false, rng),
		BNp:      newBatchNormLayer(name+".bnp", out),
		residual: stride == 1 && in == out,
	}
}

// Name implements layer.
func (b *invertedResidual) Name() string { return b.name }

// Forward implements layer.
func (b *invertedResidual) Forward(x *tensor.Tensor, training bool) (*tensor.Tensor, error) {
	// At inference each consumed pooled intermediate is released right
	// after the next layer produces its output.
	step := func(l layer, in *tensor.Tensor) (*tensor.Tensor, error) {
		out, err := l.Forward(in, training)
		if err != nil {
			return nil, err
		}
		if !training {
			releaseChain(in, x, out)
		}
		return out, nil
	}
	h, err := b.Expand.Forward(x, training)
	if err != nil {
		return nil, err
	}
	if h, err = step(b.BNe, h); err != nil {
		return nil, err
	}
	if h, err = step(b.ReluE, h); err != nil {
		return nil, err
	}
	if h, err = step(b.Mid, h); err != nil {
		return nil, err
	}
	if h, err = step(b.BNm, h); err != nil {
		return nil, err
	}
	if h, err = step(b.ReluM, h); err != nil {
		return nil, err
	}
	if h, err = step(b.Proj, h); err != nil {
		return nil, err
	}
	if h, err = step(b.BNp, h); err != nil {
		return nil, err
	}
	if b.residual {
		if err = h.AddInPlace(x); err != nil {
			return nil, fmt.Errorf("block %s residual add: %w", b.name, err)
		}
		if training {
			b.lastX = x
		}
	}
	return h, nil
}

// Backward implements layer.
func (b *invertedResidual) Backward(dy *tensor.Tensor) (*tensor.Tensor, error) {
	d, err := b.BNp.Backward(dy)
	if err != nil {
		return nil, err
	}
	if d, err = b.Proj.Backward(d); err != nil {
		return nil, err
	}
	if d, err = b.ReluM.Backward(d); err != nil {
		return nil, err
	}
	if d, err = b.BNm.Backward(d); err != nil {
		return nil, err
	}
	if d, err = b.Mid.Backward(d); err != nil {
		return nil, err
	}
	if d, err = b.ReluE.Backward(d); err != nil {
		return nil, err
	}
	if d, err = b.BNe.Backward(d); err != nil {
		return nil, err
	}
	dx, err := b.Expand.Backward(d)
	if err != nil {
		return nil, err
	}
	if b.residual {
		if err = dx.AddInPlace(dy); err != nil {
			return nil, fmt.Errorf("block %s skip-grad add: %w", b.name, err)
		}
	}
	return dx, nil
}

// Params implements layer.
func (b *invertedResidual) Params() []*tensor.Tensor {
	out := append([]*tensor.Tensor{}, b.Expand.Params()...)
	out = append(out, b.BNe.Params()...)
	out = append(out, b.Mid.Params()...)
	out = append(out, b.BNm.Params()...)
	out = append(out, b.Proj.Params()...)
	out = append(out, b.BNp.Params()...)
	return out
}

// Grads implements layer.
func (b *invertedResidual) Grads() []*tensor.Tensor {
	out := append([]*tensor.Tensor{}, b.Expand.Grads()...)
	out = append(out, b.BNe.Grads()...)
	out = append(out, b.Mid.Grads()...)
	out = append(out, b.BNm.Grads()...)
	out = append(out, b.Proj.Grads()...)
	out = append(out, b.BNp.Grads()...)
	return out
}

// ZeroGrads implements layer.
func (b *invertedResidual) ZeroGrads() {
	b.Expand.ZeroGrads()
	b.BNe.ZeroGrads()
	b.Mid.ZeroGrads()
	b.BNm.ZeroGrads()
	b.Proj.ZeroGrads()
	b.BNp.ZeroGrads()
}

// BuildMobileNetV2 constructs a stem + 4 stages + classifier model with
// inverted-residual units, giving the block catalog a second architecture
// family with a markedly lower parameter count than ResNet-18 (the
// MobileNetV2-vs-ResNet trade-off the paper's introduction cites).
func BuildMobileNetV2(cfg MobileNetConfig) *Model {
	rng := rand.New(rand.NewSource(cfg.Seed))
	w := cfg.BaseWidth
	widths := [4]int{w, 2 * w, 4 * w, 8 * w}

	stem := newBlock("mobilenetv2/stem", 0, variantBase,
		newConvLayer("stem.conv", tensor.Conv2DParams{
			InChannels: cfg.InChannels, OutChannels: w, Kernel: 3, Stride: 1, Padding: 1,
		}, false, rng),
		newBatchNormLayer("stem.bn", w),
		newReLULayer("stem.relu"),
		newMaxPoolLayer("stem.pool", tensor.PoolParams{Kernel: 2, Stride: 2}),
	)

	blocks := []*Block{stem}
	in := w
	for stage := 0; stage < 4; stage++ {
		out := widths[stage]
		stride := 1
		if stage > 0 {
			stride = 2
		}
		var layers []layer
		for unit := 0; unit < cfg.StageBlocks[stage]; unit++ {
			s := 1
			if unit == 0 {
				s = stride
			}
			name := fmt.Sprintf("mbstage%d.unit%d", stage+1, unit+1)
			layers = append(layers, newInvertedResidual(name, in, in*cfg.Expansion, out, s, rng))
			in = out
		}
		blocks = append(blocks, newBlock(fmt.Sprintf("mobilenetv2/stage%d", stage+1), stage+1, variantBase, layers...))
	}

	classifier := newBlock("mobilenetv2/classifier", 5, variantBase,
		newGlobalAvgPoolLayer("head.gap"),
		newLinearLayer("head.fc", widths[3], cfg.NumClasses, rng),
	)
	blocks = append(blocks, classifier)
	return &Model{arch: "mobilenetv2", Blocks: blocks}
}
