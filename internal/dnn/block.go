package dnn

import (
	"fmt"

	"offloadnn/internal/tensor"
)

// variant distinguishes the provenance of a layer-block, which determines
// whether the block carries a training cost (fine-tuned/pruned variants do,
// pre-trained base blocks do not) and whether it can be shared.
type variant int

// Block variants. A pruned block is always derived from a fine-tuned one
// (or from the base when the whole DNN is pruned, as in CONFIG A-pruned).
const (
	variantBase variant = iota + 1
	variantFineTuned
	variantPruned
)

// String implements fmt.Stringer.
func (v variant) String() string {
	switch v {
	case variantBase:
		return "base"
	case variantFineTuned:
		return "fine-tuned"
	case variantPruned:
		return "pruned"
	default:
		return fmt.Sprintf("variant(%d)", int(v))
	}
}

// Block is the paper's s^d: a named group of layers that is the unit of
// sharing, freezing, fine-tuning and pruning.
type Block struct {
	// ID uniquely identifies the block across DNN structures; two paths
	// naming the same ID share one in-memory copy of the block.
	ID string
	// Stage is the position of the block in its architecture (1-based).
	Stage int
	// variant records base / fine-tuned / pruned provenance.
	variant variant
	// pruneRatio is the fraction of internal channels removed (0 when the
	// block is unpruned).
	pruneRatio float64
	// Frozen blocks skip parameter updates and gradient accumulation at
	// the optimizer level; shared base blocks are frozen during
	// fine-tuning of task-specific blocks.
	Frozen bool

	// precision is the inference kernel precision the block is deployed
	// at (zero value F64). Managed by SetPrecision in precision.go.
	precision tensor.Precision

	layers []layer
}

// newBlock groups the given layers under an identifier.
func newBlock(id string, stage int, variant variant, layers ...layer) *Block {
	return &Block{ID: id, Stage: stage, variant: variant, layers: layers}
}

// Forward runs all layers in order. At inference the pooled intermediate
// activations are released as soon as the next layer has consumed them, so
// a steady-state forward pass recycles a fixed set of buffers.
func (b *Block) Forward(x *tensor.Tensor, training bool) (*tensor.Tensor, error) {
	in := x
	for _, l := range b.layers {
		y, err := l.Forward(x, training)
		if err != nil {
			return nil, fmt.Errorf("block %s: %w", b.ID, err)
		}
		if !training {
			releaseChain(x, in, y)
		}
		x = y
	}
	return x, nil
}

// backward runs all layers in reverse order.
func (b *Block) backward(dy *tensor.Tensor) (*tensor.Tensor, error) {
	var err error
	for i := len(b.layers) - 1; i >= 0; i-- {
		dy, err = b.layers[i].Backward(dy)
		if err != nil {
			return nil, fmt.Errorf("block %s: %w", b.ID, err)
		}
	}
	return dy, nil
}

// Params returns all trainable parameters of the block.
func (b *Block) Params() []*tensor.Tensor {
	var out []*tensor.Tensor
	for _, l := range b.layers {
		out = append(out, l.Params()...)
	}
	return out
}

// grads returns all parameter gradients of the block.
func (b *Block) grads() []*tensor.Tensor {
	var out []*tensor.Tensor
	for _, l := range b.layers {
		out = append(out, l.Grads()...)
	}
	return out
}

// zeroGrads clears accumulated gradients in every layer.
func (b *Block) zeroGrads() {
	for _, l := range b.layers {
		l.ZeroGrads()
	}
}

// ParamCount returns the number of scalar parameters in the block.
func (b *Block) ParamCount() int {
	n := 0
	for _, l := range b.layers {
		n += paramCount(l)
	}
	return n
}

// MemoryBytes estimates the deployed (inference) memory footprint of the
// block: parameters at the block's deployed precision (float32-equivalent
// for f64/f32, one byte per parameter for int8) plus a small per-layer
// bookkeeping overhead, matching how the paper charges µ(s^d) per active
// block.
func (b *Block) MemoryBytes() int64 {
	const perLayerOverhead = 256 // descriptors, shapes, buffers
	return int64(b.ParamCount())*b.precision.DeployedBytesPerParam() +
		int64(len(b.layers))*perLayerOverhead
}
