// Package profile derives the per-block cost tables the DOT problem
// consumes — inference compute time c(s^d) and memory µ(s^d) — by timing
// real forward passes over dummy input tensors, the "standard procedure to
// estimate DNN model inference compute time in a system" used by the
// paper's second motivation experiment (Fig. 3 left).
package profile

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"offloadnn/internal/dnn"
	"offloadnn/internal/tensor"
)

// errProfile reports a profiling failure.
var errProfile = errors.New("profile: profiling failed")

// BlockCost is the experimentally characterized cost of one layer-block.
type BlockCost struct {
	// ID of the block (matches dnn.Block.ID).
	ID string
	// Stage of the block within its architecture.
	Stage int
	// ComputeTime is the per-inference (batch-1) forward time.
	ComputeTime time.Duration
	// MemoryBytes is the deployed footprint of the block.
	MemoryBytes int64
	// Params is the scalar parameter count.
	Params int
	// precision is the kernel precision the measurement ran at
	// ("f64", "f32" or "i8").
	precision string
}

// Profiler times blocks over dummy inputs.
type Profiler struct {
	// ImageSize is the square input side fed to the model.
	ImageSize int
	// Repeats is the number of timed forward passes per block; the median
	// is reported. Must be ≥ 1.
	Repeats int
	// Warmup passes run before timing starts.
	Warmup int
	// Workers is the tensor parallelism the measurement runs at. Zero (the
	// default) and one both time the serial kernels, so existing c(s)
	// tables stay comparable; larger values characterize the compute time
	// an edge node with that many cores would observe.
	Workers int
	// Precision selects the inference kernels the measurement times (the
	// zero value F64 keeps existing c(s) tables unchanged). The profiled
	// model is instantiated at this precision in place, so per-precision
	// c(s) rows for the solver's "@f32"/"@i8" block variants come from the
	// same measurement procedure as the f64 baseline.
	Precision tensor.Precision
}

// ProfileModel runs a dummy tensor through the model block by block,
// timing each block's forward pass. The dummy input is all-ones, matching
// common practice (values do not affect dense-conv timing).
func (p Profiler) ProfileModel(m *dnn.Model) ([]BlockCost, error) {
	if p.Repeats < 1 {
		return nil, fmt.Errorf("%w: repeats %d < 1", errProfile, p.Repeats)
	}
	workers := p.Workers
	if workers <= 0 {
		workers = 1
	}
	prev := tensor.SetParallelism(workers)
	defer tensor.SetParallelism(prev)
	if !p.Precision.Valid() {
		return nil, fmt.Errorf("%w: invalid precision %d", errProfile, p.Precision)
	}
	if p.Precision != tensor.F64 {
		if err := m.SetPrecision(p.Precision); err != nil {
			return nil, fmt.Errorf("%w: %v", errProfile, err)
		}
	}
	x := tensor.New(1, 3, p.ImageSize, p.ImageSize)
	x.Fill(1)

	costs := make([]BlockCost, 0, len(m.Blocks))
	for _, b := range m.Blocks {
		for i := 0; i < p.Warmup; i++ {
			y, err := b.Forward(x, false)
			if err != nil {
				return nil, fmt.Errorf("%w: block %s warmup: %v", errProfile, b.ID, err)
			}
			if y != x {
				tensor.Release(y)
			}
		}
		samples := make([]time.Duration, p.Repeats)
		var out *tensor.Tensor
		for i := 0; i < p.Repeats; i++ {
			start := time.Now()
			y, err := b.Forward(x, false)
			if err != nil {
				return nil, fmt.Errorf("%w: block %s: %v", errProfile, b.ID, err)
			}
			samples[i] = time.Since(start)
			if out != nil && out != x {
				tensor.Release(out)
			}
			out = y
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		costs = append(costs, BlockCost{
			ID:          b.ID,
			Stage:       b.Stage,
			ComputeTime: samples[len(samples)/2],
			MemoryBytes: b.MemoryBytes(),
			Params:      b.ParamCount(),
			precision:   p.Precision.String(),
		})
		if out != x {
			tensor.Release(x)
		}
		x = out
	}
	return costs, nil
}

// TotalCompute sums the per-block compute times.
func TotalCompute(costs []BlockCost) time.Duration {
	var t time.Duration
	for _, c := range costs {
		t += c.ComputeTime
	}
	return t
}

// TotalMemory sums the per-block memory footprints.
func TotalMemory(costs []BlockCost) int64 {
	var m int64
	for _, c := range costs {
		m += c.MemoryBytes
	}
	return m
}
