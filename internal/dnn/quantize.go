package dnn

import (
	"fmt"
	"math/rand"

	"offloadnn/internal/tensor"
)

// Post-training quantization support: a calibration pass pins static
// activation scales for the int8 kernels, and an accuracy gate compares a
// quantized path against its float64 twin on a held-out batch. Deployment
// (internal/exec) runs Calibrate + Top1Delta at install time and falls
// back to a wider precision when the gate trips.

// Calibrate runs one float64 forward pass over x and records, for every
// convolution and linear layer, the maximum absolute input activation
// seen; the resulting symmetric scale becomes the static activation scale
// of the int8 kernels. Repeated calls widen the recorded ranges
// (max-merge), so calibration may stream several batches. The pass itself
// always runs the f64 master path regardless of the configured precision,
// so the observed ranges are exact.
func Calibrate(m *Model, x *tensor.Tensor) error {
	for _, b := range m.Blocks {
		b.setCalibrating(true)
	}
	defer func() {
		for _, b := range m.Blocks {
			b.setCalibrating(false)
		}
	}()
	y, err := m.Forward(x, false)
	if err != nil {
		return fmt.Errorf("dnn: calibrate %s: %w", m.arch, err)
	}
	tensor.Release(y)
	return nil
}

// Top1Delta runs both models on x and returns the fraction of samples
// whose top-1 class differs — the accuracy-delta proxy the quantization
// gate thresholds. Neither model is mutated. The models must produce
// rank-2 (N, classes) logits of the same shape.
func Top1Delta(a, b *Model, x *tensor.Tensor) (float64, error) {
	ya, err := a.Forward(x, false)
	if err != nil {
		return 0, fmt.Errorf("dnn: top1 delta: model %s: %w", a.arch, err)
	}
	yb, err := b.Forward(x, false)
	if err != nil {
		tensor.Release(ya)
		return 0, fmt.Errorf("dnn: top1 delta: model %s: %w", b.arch, err)
	}
	defer tensor.Release(ya)
	defer tensor.Release(yb)
	if ya.Rank() != 2 || !ya.SameShape(yb) {
		return 0, fmt.Errorf("dnn: top1 delta: logit shapes %v vs %v", ya.Shape(), yb.Shape())
	}
	n, k := ya.Dim(0), ya.Dim(1)
	if n == 0 {
		return 0, nil
	}
	diff := 0
	for i := 0; i < n; i++ {
		if argmaxRow(ya.Data()[i*k:(i+1)*k]) != argmaxRow(yb.Data()[i*k:(i+1)*k]) {
			diff++
		}
	}
	return float64(diff) / float64(n), nil
}

func argmaxRow(row []float64) int {
	best := 0
	for i, v := range row {
		if v > row[best] {
			best = i
		}
	}
	return best
}

// CalibrationBatch builds a deterministic held-out batch (standard-normal
// pixels from a fixed seed) for calibration and gating. Determinism
// matters twice: every worker derives identical activation scales for a
// shared block, and the gate's verdict is reproducible across restarts.
func CalibrationBatch(n, c, h, w int, seed int64) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	t := tensor.New(n, c, h, w)
	d := t.Data()
	for i := range d {
		d[i] = rng.NormFloat64()
	}
	return t
}
