package dnn

import (
	"fmt"
	"math/rand"

	"offloadnn/internal/tensor"
)

// basicBlock is the ResNet-18 residual unit:
//
//	y = relu( bn2(conv2( relu(bn1(conv1 x)) )) + skip(x) )
//
// where skip is the identity, or a 1×1 strided conv + bn when the spatial
// size or channel count changes. The internal width (conv1 output
// channels) is independently configurable, which is where structured
// pruning removes channels without changing the block interface.
type basicBlock struct {
	name string

	Conv1 *convLayer
	BN1   *batchNormLayer
	Relu1 *reluLayer
	Conv2 *convLayer
	BN2   *batchNormLayer

	// DownConv/DownBN implement the projection shortcut; nil for identity.
	DownConv *convLayer
	DownBN   *batchNormLayer

	relu2Mask []bool
	lastX     *tensor.Tensor
}

// newBasicBlock constructs a residual unit mapping in→out channels with the
// given stride and internal width mid (the pruning axis).
func newBasicBlock(name string, in, mid, out, stride int, rng *rand.Rand) *basicBlock {
	b := &basicBlock{
		name: name,
		Conv1: newConvLayer(name+".conv1", tensor.Conv2DParams{
			InChannels: in, OutChannels: mid, Kernel: 3, Stride: stride, Padding: 1,
		}, false, rng),
		BN1:   newBatchNormLayer(name+".bn1", mid),
		Relu1: newReLULayer(name + ".relu1"),
		Conv2: newConvLayer(name+".conv2", tensor.Conv2DParams{
			InChannels: mid, OutChannels: out, Kernel: 3, Stride: 1, Padding: 1,
		}, false, rng),
		BN2: newBatchNormLayer(name+".bn2", out),
	}
	if stride != 1 || in != out {
		b.DownConv = newConvLayer(name+".down", tensor.Conv2DParams{
			InChannels: in, OutChannels: out, Kernel: 1, Stride: stride,
		}, false, rng)
		b.DownBN = newBatchNormLayer(name+".downbn", out)
	}
	return b
}

// MidChannels returns the internal width of the block.
func (b *basicBlock) MidChannels() int { return b.Conv1.P.OutChannels }

// Name implements layer.
func (b *basicBlock) Name() string { return b.name }

// Forward implements layer.
func (b *basicBlock) Forward(x *tensor.Tensor, training bool) (*tensor.Tensor, error) {
	h, err := b.Conv1.Forward(x, training)
	if err != nil {
		return nil, err
	}
	prev := h
	if h, err = b.BN1.Forward(h, training); err != nil {
		return nil, err
	}
	if !training {
		releaseChain(prev, x, h)
	}
	prev = h
	if h, err = b.Relu1.Forward(h, training); err != nil {
		return nil, err
	}
	if !training {
		releaseChain(prev, x, h)
	}
	prev = h
	if h, err = b.Conv2.Forward(h, training); err != nil {
		return nil, err
	}
	if !training {
		releaseChain(prev, x, h)
	}
	prev = h
	if h, err = b.BN2.Forward(h, training); err != nil {
		return nil, err
	}
	if !training {
		releaseChain(prev, x, h)
	}
	skip := x
	if b.DownConv != nil {
		if skip, err = b.DownConv.Forward(x, training); err != nil {
			return nil, err
		}
		prev = skip
		if skip, err = b.DownBN.Forward(skip, training); err != nil {
			return nil, err
		}
		if !training {
			releaseChain(prev, x, skip)
		}
	}
	if err = h.AddInPlace(skip); err != nil {
		return nil, fmt.Errorf("block %s residual add: %w", b.name, err)
	}
	if !training {
		releaseChain(skip, x, h)
		tensor.ReLUInPlaceInfer(h)
		return h, nil
	}
	b.relu2Mask = tensor.ReLUInPlace(h)
	b.lastX = x
	return h, nil
}

// Backward implements layer.
func (b *basicBlock) Backward(dy *tensor.Tensor) (*tensor.Tensor, error) {
	if b.relu2Mask == nil {
		return nil, fmt.Errorf("%w: block %s backward before forward", errState, b.name)
	}
	dSum, err := tensor.ReLUBackward(dy, b.relu2Mask)
	if err != nil {
		return nil, fmt.Errorf("block %s: %w", b.name, err)
	}
	// Main path.
	d, err := b.BN2.Backward(dSum)
	if err != nil {
		return nil, err
	}
	if d, err = b.Conv2.Backward(d); err != nil {
		return nil, err
	}
	if d, err = b.Relu1.Backward(d); err != nil {
		return nil, err
	}
	if d, err = b.BN1.Backward(d); err != nil {
		return nil, err
	}
	dxMain, err := b.Conv1.Backward(d)
	if err != nil {
		return nil, err
	}
	// Skip path.
	dxSkip := dSum
	if b.DownConv != nil {
		if dxSkip, err = b.DownBN.Backward(dSum); err != nil {
			return nil, err
		}
		if dxSkip, err = b.DownConv.Backward(dxSkip); err != nil {
			return nil, err
		}
	}
	if err = dxMain.AddInPlace(dxSkip); err != nil {
		return nil, fmt.Errorf("block %s skip-grad add: %w", b.name, err)
	}
	return dxMain, nil
}

// Params implements layer.
func (b *basicBlock) Params() []*tensor.Tensor {
	out := append([]*tensor.Tensor{}, b.Conv1.Params()...)
	out = append(out, b.BN1.Params()...)
	out = append(out, b.Conv2.Params()...)
	out = append(out, b.BN2.Params()...)
	if b.DownConv != nil {
		out = append(out, b.DownConv.Params()...)
		out = append(out, b.DownBN.Params()...)
	}
	return out
}

// Grads implements layer.
func (b *basicBlock) Grads() []*tensor.Tensor {
	out := append([]*tensor.Tensor{}, b.Conv1.Grads()...)
	out = append(out, b.BN1.Grads()...)
	out = append(out, b.Conv2.Grads()...)
	out = append(out, b.BN2.Grads()...)
	if b.DownConv != nil {
		out = append(out, b.DownConv.Grads()...)
		out = append(out, b.DownBN.Grads()...)
	}
	return out
}

// ZeroGrads implements layer.
func (b *basicBlock) ZeroGrads() {
	b.Conv1.ZeroGrads()
	b.BN1.ZeroGrads()
	b.Conv2.ZeroGrads()
	b.BN2.ZeroGrads()
	if b.DownConv != nil {
		b.DownConv.ZeroGrads()
		b.DownBN.ZeroGrads()
	}
}

// ResNetConfig parameterizes the scaled ResNet-18 builder. The paper uses
// the full ResNet-18 (BaseWidth 64, 224×224 inputs); tests and the
// profiler use reduced widths and image sizes, which preserve the relative
// per-stage cost shape.
type ResNetConfig struct {
	// InChannels of the input images (3 for RGB).
	InChannels int
	// NumClasses of the classifier head.
	NumClasses int
	// BaseWidth is the channel count of the first stage (64 in ResNet-18).
	BaseWidth int
	// StageBlocks is the number of residual units per stage ({2,2,2,2}
	// for ResNet-18).
	StageBlocks [4]int
	// PruneRatios optionally shrinks the internal width of each stage's
	// blocks by the given fraction (0 = unpruned).
	PruneRatios [4]float64
	// Seed drives weight initialization.
	Seed int64
}

// DefaultResNetConfig returns a test-scale ResNet-18: width 8, 2 units per
// stage, 8 classes.
func DefaultResNetConfig() ResNetConfig {
	return ResNetConfig{
		InChannels:  3,
		NumClasses:  8,
		BaseWidth:   8,
		StageBlocks: [4]int{2, 2, 2, 2},
		Seed:        1,
	}
}

// prunedWidth applies a prune ratio to a width, keeping at least one
// channel.
func prunedWidth(w int, ratio float64) int {
	if ratio <= 0 {
		return w
	}
	if ratio >= 1 {
		return 1
	}
	p := int(float64(w) * (1 - ratio))
	if p < 1 {
		p = 1
	}
	return p
}

// BuildResNet18 constructs the six-block model used throughout the
// reproduction: a stem block, four residual stages (the paper's four
// "layer-blocks") and a classifier block.
func BuildResNet18(cfg ResNetConfig) *Model {
	rng := rand.New(rand.NewSource(cfg.Seed))
	w := cfg.BaseWidth
	widths := [4]int{w, 2 * w, 4 * w, 8 * w}

	stem := newBlock("resnet18/stem", 0, variantBase,
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
		mid := prunedWidth(out, cfg.PruneRatios[stage])
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
			name := fmt.Sprintf("stage%d.unit%d", stage+1, unit+1)
			layers = append(layers, newBasicBlock(name, in, mid, out, s, rng))
			in = out
		}
		variant := variantBase
		if cfg.PruneRatios[stage] > 0 {
			variant = variantPruned
		}
		blk := newBlock(fmt.Sprintf("resnet18/stage%d", stage+1), stage+1, variant, layers...)
		blk.pruneRatio = cfg.PruneRatios[stage]
		blocks = append(blocks, blk)
	}

	classifier := newBlock("resnet18/classifier", 5, variantBase,
		newGlobalAvgPoolLayer("head.gap"),
		newLinearLayer("head.fc", widths[3], cfg.NumClasses, rng),
	)
	blocks = append(blocks, classifier)

	return &Model{arch: "resnet18", Blocks: blocks}
}
