// Package dnn builds dynamic DNN structures out of layer-blocks, the unit
// of sharing, fine-tuning and pruning in OffloaDNN. It provides trainable
// layers on top of the tensor engine, ResNet-18 and MobileNetV2-style
// builders, structured channel pruning, and the Table-I configuration
// catalog (CONFIG A–E and their pruned variants).
//
// The package follows the paper's terminology: a *block* s^d groups one or
// more layers (e.g., a ResNet residual stage); a *path* π is the sequence
// of blocks selected to serve a task; blocks may be shared across paths.
package dnn

import (
	"errors"
	"fmt"
	"math/rand"

	"offloadnn/internal/tensor"
)

// errState reports a layer used out of order (e.g., Backward before
// Forward).
var errState = errors.New("dnn: invalid layer state")

// layer is a differentiable network stage. Layers cache whatever forward
// intermediates they need, so Backward must follow the matching Forward.
// Layers are not safe for concurrent use.
type layer interface {
	// Name returns a short human-readable identifier.
	Name() string
	// Forward computes the layer output. When training is false the layer
	// may skip caching and use inference statistics (e.g., batch norm).
	Forward(x *tensor.Tensor, training bool) (*tensor.Tensor, error)
	// Backward consumes the upstream gradient and returns the gradient
	// with respect to the layer input, accumulating parameter gradients.
	Backward(dy *tensor.Tensor) (*tensor.Tensor, error)
	// Params returns the trainable parameter tensors (possibly empty).
	Params() []*tensor.Tensor
	// Grads returns gradient tensors parallel to Params.
	Grads() []*tensor.Tensor
	// ZeroGrads clears accumulated parameter gradients.
	ZeroGrads()
}

// paramCount sums the number of scalar parameters of a layer.
func paramCount(l layer) int {
	n := 0
	for _, p := range l.Params() {
		n += p.Len()
	}
	return n
}

// convLayer is a 2-D convolution with optional bias.
type convLayer struct {
	name   string
	P      tensor.Conv2DParams
	W      *tensor.Tensor
	B      *tensor.Tensor // nil means no bias (ResNet convs are biasless)
	dW     *tensor.Tensor
	dB     *tensor.Tensor
	lastX  *tensor.Tensor
	hasFwd bool

	// prec selects the inference kernel; training always runs on the f64
	// master weights. w32/w8 cache the prepared narrow weights and are
	// rebuilt by SetPrecision whenever the precision or weights change.
	prec     tensor.Precision
	w32      *tensor.ConvWeightsF32
	w8       *tensor.ConvWeightsI8
	actScale float64 // calibrated activation scale; 0 = dynamic per image
	calib    bool    // calibration pass: record ranges, run f64
}

// newConvLayer constructs a Kaiming-initialized convolution.
func newConvLayer(name string, p tensor.Conv2DParams, bias bool, rng *rand.Rand) *convLayer {
	l := &convLayer{
		name: name,
		P:    p,
		W:    tensor.New(p.OutChannels, p.InChannels, p.Kernel, p.Kernel),
		dW:   tensor.New(p.OutChannels, p.InChannels, p.Kernel, p.Kernel),
	}
	tensor.KaimingInit(l.W, p.InChannels*p.Kernel*p.Kernel, rng)
	if bias {
		l.B = tensor.New(p.OutChannels)
		l.dB = tensor.New(p.OutChannels)
	}
	return l
}

// Name implements layer.
func (l *convLayer) Name() string { return l.name }

// Forward implements layer. At inference the layer dispatches to the
// kernel of its configured precision; training (and calibration) always
// runs the float64 master path.
func (l *convLayer) Forward(x *tensor.Tensor, training bool) (*tensor.Tensor, error) {
	if !training && !l.calib {
		switch l.prec {
		case tensor.F32:
			y, err := tensor.Conv2DF32(x, l.w32, l.B, l.P)
			if err != nil {
				return nil, fmt.Errorf("conv %s: %w", l.name, err)
			}
			return y, nil
		case tensor.I8:
			y, err := tensor.Conv2DI8(x, l.w8, l.B, l.P, l.actScale)
			if err != nil {
				return nil, fmt.Errorf("conv %s: %w", l.name, err)
			}
			return y, nil
		}
	}
	if l.calib {
		l.observe(x)
	}
	y, err := tensor.Conv2D(x, l.W, l.B, l.P)
	if err != nil {
		return nil, fmt.Errorf("conv %s: %w", l.name, err)
	}
	if training {
		l.lastX = x
		l.hasFwd = true
	}
	return y, nil
}

// releaseChain frees a pooled intermediate activation of an inference
// forward chain. It refuses to release the chain input (caller-owned)
// and the value being carried forward.
func releaseChain(t, in, out *tensor.Tensor) {
	if t != in && t != out {
		tensor.Release(t)
	}
}

// Backward implements layer.
func (l *convLayer) Backward(dy *tensor.Tensor) (*tensor.Tensor, error) {
	if !l.hasFwd {
		return nil, fmt.Errorf("%w: conv %s backward before forward", errState, l.name)
	}
	grads, err := tensor.Conv2DBackward(dy, l.lastX, l.W, l.P, l.B != nil)
	if err != nil {
		return nil, fmt.Errorf("conv %s backward: %w", l.name, err)
	}
	if err := l.dW.AddInPlace(grads.DW); err != nil {
		return nil, err
	}
	if l.dB != nil {
		if err := l.dB.AddInPlace(grads.DB); err != nil {
			return nil, err
		}
	}
	// The weight gradients were folded into the layer accumulators;
	// recycle their pooled storage. DX travels up the chain.
	tensor.Release(grads.DW)
	tensor.Release(grads.DB)
	return grads.DX, nil
}

// Params implements layer.
func (l *convLayer) Params() []*tensor.Tensor {
	if l.B != nil {
		return []*tensor.Tensor{l.W, l.B}
	}
	return []*tensor.Tensor{l.W}
}

// Grads implements layer.
func (l *convLayer) Grads() []*tensor.Tensor {
	if l.dB != nil {
		return []*tensor.Tensor{l.dW, l.dB}
	}
	return []*tensor.Tensor{l.dW}
}

// ZeroGrads implements layer.
func (l *convLayer) ZeroGrads() {
	l.dW.Zero()
	if l.dB != nil {
		l.dB.Zero()
	}
}

// batchNormLayer wraps tensor.BatchNorm2D as a trainable layer.
type batchNormLayer struct {
	name    string
	State   *tensor.BatchNormState
	dGamma  *tensor.Tensor
	dBeta   *tensor.Tensor
	lastRes *tensor.BatchNormResult
}

// newBatchNormLayer constructs a batch-norm layer over the given channels.
func newBatchNormLayer(name string, channels int) *batchNormLayer {
	return &batchNormLayer{
		name:   name,
		State:  tensor.NewBatchNormState(channels),
		dGamma: tensor.New(channels),
		dBeta:  tensor.New(channels),
	}
}

// Name implements layer.
func (l *batchNormLayer) Name() string { return l.name }

// Forward implements layer.
func (l *batchNormLayer) Forward(x *tensor.Tensor, training bool) (*tensor.Tensor, error) {
	if !training && x.Rank() == 4 {
		// Inference fast path: running statistics into a pooled output,
		// no xhat cache, no result struct.
		y := tensor.RentLike(x)
		if err := tensor.BatchNorm2DInto(y, x, l.State); err != nil {
			tensor.Release(y)
			return nil, fmt.Errorf("bn %s: %w", l.name, err)
		}
		return y, nil
	}
	res, err := tensor.BatchNorm2D(x, l.State, training)
	if err != nil {
		return nil, fmt.Errorf("bn %s: %w", l.name, err)
	}
	if training {
		l.lastRes = res
	}
	return res.Out, nil
}

// Backward implements layer.
func (l *batchNormLayer) Backward(dy *tensor.Tensor) (*tensor.Tensor, error) {
	if l.lastRes == nil {
		return nil, fmt.Errorf("%w: bn %s backward before forward", errState, l.name)
	}
	grads, err := l.lastRes.Backward(dy)
	if err != nil {
		return nil, fmt.Errorf("bn %s backward: %w", l.name, err)
	}
	if err := l.dGamma.AddInPlace(grads.DGamma); err != nil {
		return nil, err
	}
	if err := l.dBeta.AddInPlace(grads.DBeta); err != nil {
		return nil, err
	}
	return grads.DX, nil
}

// Params implements layer.
func (l *batchNormLayer) Params() []*tensor.Tensor {
	return []*tensor.Tensor{l.State.Gamma, l.State.Beta}
}

// Grads implements layer.
func (l *batchNormLayer) Grads() []*tensor.Tensor {
	return []*tensor.Tensor{l.dGamma, l.dBeta}
}

// ZeroGrads implements layer.
func (l *batchNormLayer) ZeroGrads() {
	l.dGamma.Zero()
	l.dBeta.Zero()
}

// reluLayer is a parameter-free rectifier.
type reluLayer struct {
	name string
	mask []bool
}

// newReLULayer constructs a named ReLU.
func newReLULayer(name string) *reluLayer { return &reluLayer{name: name} }

// Name implements layer.
func (l *reluLayer) Name() string { return l.name }

// Forward implements layer.
func (l *reluLayer) Forward(x *tensor.Tensor, training bool) (*tensor.Tensor, error) {
	if !training {
		y := tensor.RentLike(x)
		if err := tensor.ReLUInto(y, x); err != nil {
			tensor.Release(y)
			return nil, fmt.Errorf("relu %s: %w", l.name, err)
		}
		return y, nil
	}
	y, mask := tensor.ReLU(x)
	l.mask = mask
	return y, nil
}

// Backward implements layer.
func (l *reluLayer) Backward(dy *tensor.Tensor) (*tensor.Tensor, error) {
	if l.mask == nil {
		return nil, fmt.Errorf("%w: relu %s backward before forward", errState, l.name)
	}
	dx, err := tensor.ReLUBackward(dy, l.mask)
	if err != nil {
		return nil, fmt.Errorf("relu %s backward: %w", l.name, err)
	}
	return dx, nil
}

// Params implements layer.
func (l *reluLayer) Params() []*tensor.Tensor { return nil }

// Grads implements layer.
func (l *reluLayer) Grads() []*tensor.Tensor { return nil }

// ZeroGrads implements layer.
func (l *reluLayer) ZeroGrads() {}

// maxPoolLayer wraps tensor.MaxPool2D.
type maxPoolLayer struct {
	name string
	P    tensor.PoolParams
	last *tensor.MaxPool2DResult
}

// newMaxPoolLayer constructs a max-pooling layer.
func newMaxPoolLayer(name string, p tensor.PoolParams) *maxPoolLayer {
	return &maxPoolLayer{name: name, P: p}
}

// Name implements layer.
func (l *maxPoolLayer) Name() string { return l.name }

// Forward implements layer.
func (l *maxPoolLayer) Forward(x *tensor.Tensor, training bool) (*tensor.Tensor, error) {
	if !training && x.Rank() == 4 {
		oh, ow := l.P.OutSize(x.Dim(2), x.Dim(3))
		if oh > 0 && ow > 0 {
			y := tensor.Rent(x.Dim(0), x.Dim(1), oh, ow)
			if err := tensor.MaxPool2DInto(y, x, l.P); err != nil {
				tensor.Release(y)
				return nil, fmt.Errorf("maxpool %s: %w", l.name, err)
			}
			return y, nil
		}
	}
	res, err := tensor.MaxPool2D(x, l.P)
	if err != nil {
		return nil, fmt.Errorf("maxpool %s: %w", l.name, err)
	}
	if training {
		l.last = res
	}
	return res.Out, nil
}

// Backward implements layer.
func (l *maxPoolLayer) Backward(dy *tensor.Tensor) (*tensor.Tensor, error) {
	if l.last == nil {
		return nil, fmt.Errorf("%w: maxpool %s backward before forward", errState, l.name)
	}
	dx, err := l.last.Backward(dy)
	if err != nil {
		return nil, fmt.Errorf("maxpool %s backward: %w", l.name, err)
	}
	return dx, nil
}

// Params implements layer.
func (l *maxPoolLayer) Params() []*tensor.Tensor { return nil }

// Grads implements layer.
func (l *maxPoolLayer) Grads() []*tensor.Tensor { return nil }

// ZeroGrads implements layer.
func (l *maxPoolLayer) ZeroGrads() {}

// globalAvgPoolLayer reduces (N,C,H,W) to (N,C).
type globalAvgPoolLayer struct {
	name    string
	inShape []int
}

// newGlobalAvgPoolLayer constructs a global average pooling layer.
func newGlobalAvgPoolLayer(name string) *globalAvgPoolLayer {
	return &globalAvgPoolLayer{name: name}
}

// Name implements layer.
func (l *globalAvgPoolLayer) Name() string { return l.name }

// Forward implements layer.
func (l *globalAvgPoolLayer) Forward(x *tensor.Tensor, training bool) (*tensor.Tensor, error) {
	if !training && x.Rank() == 4 {
		y := tensor.Rent(x.Dim(0), x.Dim(1))
		if err := tensor.GlobalAvgPool2DInto(y, x); err != nil {
			tensor.Release(y)
			return nil, fmt.Errorf("gap %s: %w", l.name, err)
		}
		return y, nil
	}
	y, err := tensor.GlobalAvgPool2D(x)
	if err != nil {
		return nil, fmt.Errorf("gap %s: %w", l.name, err)
	}
	if training {
		l.inShape = x.Shape()
	}
	return y, nil
}

// Backward implements layer.
func (l *globalAvgPoolLayer) Backward(dy *tensor.Tensor) (*tensor.Tensor, error) {
	if l.inShape == nil {
		return nil, fmt.Errorf("%w: gap %s backward before forward", errState, l.name)
	}
	dx, err := tensor.GlobalAvgPool2DBackward(dy, l.inShape)
	if err != nil {
		return nil, fmt.Errorf("gap %s backward: %w", l.name, err)
	}
	return dx, nil
}

// Params implements layer.
func (l *globalAvgPoolLayer) Params() []*tensor.Tensor { return nil }

// Grads implements layer.
func (l *globalAvgPoolLayer) Grads() []*tensor.Tensor { return nil }

// ZeroGrads implements layer.
func (l *globalAvgPoolLayer) ZeroGrads() {}

// linearLayer is a fully connected layer with bias.
type linearLayer struct {
	name  string
	W     *tensor.Tensor
	B     *tensor.Tensor
	dW    *tensor.Tensor
	dB    *tensor.Tensor
	lastX *tensor.Tensor

	// Reduced-precision inference state; see the convLayer fields.
	prec     tensor.Precision
	w32      *tensor.LinearWeightsF32
	w8       *tensor.LinearWeightsI8
	actScale float64
	calib    bool
}

// newLinearLayer constructs a Xavier-initialized fully connected layer.
func newLinearLayer(name string, in, out int, rng *rand.Rand) *linearLayer {
	l := &linearLayer{
		name: name,
		W:    tensor.New(out, in),
		B:    tensor.New(out),
		dW:   tensor.New(out, in),
		dB:   tensor.New(out),
	}
	tensor.XavierInit(l.W, in, out, rng)
	return l
}

// Name implements layer.
func (l *linearLayer) Name() string { return l.name }

// Forward implements layer. Inference dispatches on the configured
// precision like convLayer.Forward.
func (l *linearLayer) Forward(x *tensor.Tensor, training bool) (*tensor.Tensor, error) {
	if !training && !l.calib {
		switch l.prec {
		case tensor.F32:
			y, err := tensor.LinearF32(x, l.w32, l.B)
			if err != nil {
				return nil, fmt.Errorf("linear %s: %w", l.name, err)
			}
			return y, nil
		case tensor.I8:
			y, err := tensor.LinearI8(x, l.w8, l.B, l.actScale)
			if err != nil {
				return nil, fmt.Errorf("linear %s: %w", l.name, err)
			}
			return y, nil
		}
	}
	if l.calib {
		l.observe(x)
	}
	y, err := tensor.Linear(x, l.W, l.B)
	if err != nil {
		return nil, fmt.Errorf("linear %s: %w", l.name, err)
	}
	if training {
		l.lastX = x
	}
	return y, nil
}

// Backward implements layer.
func (l *linearLayer) Backward(dy *tensor.Tensor) (*tensor.Tensor, error) {
	if l.lastX == nil {
		return nil, fmt.Errorf("%w: linear %s backward before forward", errState, l.name)
	}
	grads, err := tensor.LinearBackward(dy, l.lastX, l.W, true)
	if err != nil {
		return nil, fmt.Errorf("linear %s backward: %w", l.name, err)
	}
	if err := l.dW.AddInPlace(grads.DW); err != nil {
		return nil, err
	}
	if err := l.dB.AddInPlace(grads.DB); err != nil {
		return nil, err
	}
	return grads.DX, nil
}

// Params implements layer.
func (l *linearLayer) Params() []*tensor.Tensor { return []*tensor.Tensor{l.W, l.B} }

// Grads implements layer.
func (l *linearLayer) Grads() []*tensor.Tensor { return []*tensor.Tensor{l.dW, l.dB} }

// ZeroGrads implements layer.
func (l *linearLayer) ZeroGrads() {
	l.dW.Zero()
	l.dB.Zero()
}
