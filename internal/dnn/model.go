package dnn

import (
	"fmt"
	"sync"

	"offloadnn/internal/tensor"
)

// Model is a sequence of layer-blocks ending in a classifier. Models built
// for different tasks may alias the same *Block values; the aliased blocks
// are then deployed (and their memory charged) once, which is the memory
// sharing the DOT formulation exploits.
type Model struct {
	// arch names the architecture family (e.g., "resnet18").
	arch string
	// Blocks in forward order: stem, stages, classifier.
	Blocks []*Block
}

// Forward runs the full model. At inference the pooled activation passed
// between blocks is released once the next block has consumed it.
func (m *Model) Forward(x *tensor.Tensor, training bool) (*tensor.Tensor, error) {
	in := x
	for _, b := range m.Blocks {
		y, err := b.Forward(x, training)
		if err != nil {
			return nil, fmt.Errorf("model %s: %w", m.arch, err)
		}
		if !training {
			releaseChain(x, in, y)
		}
		x = y
	}
	return x, nil
}

// ForwardBatch runs an inference-only forward pass. When tensor pool
// workers are idle it shards the batch over them — each shard a contiguous
// view of the input's NCHW storage run through Forward — and the kernels
// under a shard, finding the workers taken, run serially: one level of the
// call tree forks. With no worker idle (other models keep the cores busy)
// the whole batch goes through Forward on the caller's goroutine, where
// every convolution is one batch-wide GEMM. Every layer is per-sample at
// inference (batch norm uses running statistics) and no kernel's summation
// order depends on the batch, so the result matches Forward(x, false) bit
// for bit either way.
func (m *Model) ForwardBatch(x *tensor.Tensor) (*tensor.Tensor, error) {
	if x.Rank() != 4 || x.Dim(0) <= 1 || tensor.IdleWorkers() == 0 {
		return m.Forward(x, false)
	}
	n := x.Dim(0)
	shards := min(n, tensor.Parallelism())
	r := getBatchRun()
	defer putBatchRun(r)
	for len(r.outs) < shards {
		r.outs, r.errs = append(r.outs, nil), append(r.errs, nil)
	}
	r.m, r.x = m, x
	tensor.ParallelShards(n, 1, shards, r.shard)
	r.m, r.x = nil, nil

	var y *tensor.Tensor
	var err error
	for si, e := range r.errs[:shards] {
		if e != nil && err == nil {
			err = fmt.Errorf("model %s: batch shard %d: %w", m.arch, si, e)
		}
		r.errs[si] = nil
	}
	if o := r.outs[0]; err == nil {
		r.shape = append(r.shape[:0], n)
		for d := 1; d < o.Rank(); d++ {
			r.shape = append(r.shape, o.Dim(d))
		}
		y = tensor.Rent(r.shape...)
	}
	row := 0
	for si, o := range r.outs[:shards] {
		if o != nil && err == nil {
			copy(y.Data()[row*(o.Len()/o.Dim(0)):], o.Data())
			row += o.Dim(0)
		}
		tensor.Release(o)
		r.outs[si] = nil
	}
	return y, err
}

// batchRun is the state of one sharded ForwardBatch call, recycled so a
// steady-state call allocates nothing: per-shard results, and the shard
// body bound once as a func value.
type batchRun struct {
	m     *Model
	x     *tensor.Tensor
	outs  []*tensor.Tensor
	errs  []error
	shape []int
	shard func(si, lo, hi int)
}

// batchRuns is a mutex-guarded stack rather than a sync.Pool for the
// reason the tensor freelists are: a sync.Pool may drop an entry at any
// time, and the zero-allocation pin would see the replacement.
var batchRuns struct {
	mu   sync.Mutex
	free []*batchRun
}

func getBatchRun() *batchRun {
	batchRuns.mu.Lock()
	defer batchRuns.mu.Unlock()
	if last := len(batchRuns.free) - 1; last >= 0 {
		r := batchRuns.free[last]
		batchRuns.free = batchRuns.free[:last]
		return r
	}
	r := &batchRun{}
	r.shard = r.run
	return r
}

func putBatchRun(r *batchRun) {
	batchRuns.mu.Lock()
	batchRuns.free = append(batchRuns.free, r) // at most one per concurrent caller
	batchRuns.mu.Unlock()
}

// run forwards batch rows [lo,hi) as shard si.
func (r *batchRun) run(si, lo, hi int) {
	chunk := tensor.RentRows(r.x, lo, hi)
	r.outs[si], r.errs[si] = r.m.Forward(chunk, false)
	tensor.Release(chunk)
}

// Backward propagates the loss gradient through all blocks (frozen blocks
// still propagate input gradients but their parameter updates are skipped
// by the optimizer, mirroring requires_grad=False fine-tuning).
func (m *Model) Backward(dy *tensor.Tensor) (*tensor.Tensor, error) {
	var err error
	for i := len(m.Blocks) - 1; i >= 0; i-- {
		// Gradients below the deepest trainable block are never consumed,
		// so stop early: this is what makes frozen-backbone fine-tuning
		// cheaper, the effect Fig. 2(right) measures.
		dy, err = m.Blocks[i].backward(dy)
		if err != nil {
			return nil, fmt.Errorf("model %s: %w", m.arch, err)
		}
		if i > 0 && m.lowestTrainable() == i {
			return dy, nil
		}
	}
	return dy, nil
}

// lowestTrainable returns the index of the first non-frozen block, or
// len(Blocks) when everything is frozen.
func (m *Model) lowestTrainable() int {
	for i, b := range m.Blocks {
		if !b.Frozen {
			return i
		}
	}
	return len(m.Blocks)
}

// ZeroGrads clears accumulated gradients in all blocks.
func (m *Model) ZeroGrads() {
	for _, b := range m.Blocks {
		b.zeroGrads()
	}
}

// TrainableParams returns the parameters of non-frozen blocks only.
func (m *Model) TrainableParams() []*tensor.Tensor {
	var out []*tensor.Tensor
	for _, b := range m.Blocks {
		if !b.Frozen {
			out = append(out, b.Params()...)
		}
	}
	return out
}

// TrainableGrads returns gradients parallel to TrainableParams.
func (m *Model) TrainableGrads() []*tensor.Tensor {
	var out []*tensor.Tensor
	for _, b := range m.Blocks {
		if !b.Frozen {
			out = append(out, b.grads()...)
		}
	}
	return out
}

// ParamCount returns the total number of scalar parameters.
func (m *Model) ParamCount() int {
	n := 0
	for _, b := range m.Blocks {
		n += b.ParamCount()
	}
	return n
}

// TrainableParamCount returns the number of parameters in non-frozen
// blocks.
func (m *Model) TrainableParamCount() int {
	n := 0
	for _, b := range m.Blocks {
		if !b.Frozen {
			n += b.ParamCount()
		}
	}
	return n
}

// blockByStage returns the block with the given stage number, or nil.
func (m *Model) blockByStage(stage int) *Block {
	for _, b := range m.Blocks {
		if b.Stage == stage {
			return b
		}
	}
	return nil
}
