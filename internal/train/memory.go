package train

import (
	"offloadnn/internal/dnn"
)

// MemoryModel estimates peak training memory for a Table-I configuration,
// reproducing the Fig. 2(right) comparison. It follows the standard
// accounting of a GPU training step:
//
//   - every block's weights are resident (float32);
//   - trainable blocks additionally hold gradients (float32) and
//     optimizer state (Adam: two float32 moments);
//   - the forward pass keeps a transient buffer of the largest
//     inter-block activation (×2 for double buffering);
//   - blocks at or above the deepest trainable block cache their
//     activations for backward — frozen shared prefixes do not, which is
//     why CONFIG B/C peak ~1.8× lower than CONFIG A;
//   - a fixed framework overhead (CUDA context, allocator pools).
type MemoryModel struct {
	// batchSize of the training step (paper: 256).
	batchSize int
	// bytesPerValue for weights/activations (4 = float32).
	bytesPerValue int
	// optimizerStateBytesPerParam (Adam: 8 with float32 moments).
	optimizerStateBytesPerParam int
	// frameworkOverheadBytes models the constant CUDA/framework cost.
	frameworkOverheadBytes int64
	// frozenActivationFraction is the share of a frozen block's
	// activations that remains resident during its forward pass
	// (workspace buffers, fused-op intermediates); frameworks do not
	// reduce frozen-layer forward memory to zero, which is why Fig. 2
	// (right) shows ~1.8× rather than ~5× savings for CONFIG B.
	frozenActivationFraction float64
}

// DefaultMemoryModel returns the calibration used for Fig. 2(right):
// batch 256, float32, Adam state, ~700 MiB framework overhead.
func DefaultMemoryModel() MemoryModel {
	return MemoryModel{
		batchSize:                   256,
		bytesPerValue:               4,
		optimizerStateBytesPerParam: 8,
		frameworkOverheadBytes:      700 << 20,
		frozenActivationFraction:    0.5,
	}
}

// peakBytes estimates the peak training footprint of a configuration over
// the analytic model statistics. cfg decides which stages are frozen
// (shared) versus trainable.
func (m MemoryModel) peakBytes(stats dnn.ModelStats, cfg dnn.TableIConfig) int64 {
	bpv := int64(m.bytesPerValue)
	batch := int64(m.batchSize)

	total := m.frameworkOverheadBytes
	// All weights resident.
	total += int64(stats.TotalParams()) * bpv

	// Which stages train? Stage 0 (stem) is trainable only from scratch;
	// stages 1..4 train when above the shared prefix; the classifier (5)
	// always trains.
	trainable := func(stage int) bool {
		switch {
		case cfg.FromScratch:
			return true
		case stage == 0:
			return false
		case stage == 5:
			return true
		default:
			return stage > cfg.SharedStages
		}
	}

	lowestTrainable := 5
	for s := 0; s <= 5; s++ {
		if trainable(s) {
			lowestTrainable = s
			break
		}
	}

	var trainParams, maxAct int64
	var actBytes float64
	for s := 0; s <= 5; s++ {
		b := stats.Block(s)
		if trainable(s) {
			trainParams += int64(b.Params)
		}
		if s >= lowestTrainable {
			actBytes += float64(b.ActivationElems)
		} else {
			actBytes += m.frozenActivationFraction * float64(b.ActivationElems)
		}
		if int64(b.OutputElems) > maxAct {
			maxAct = int64(b.OutputElems)
		}
	}

	// Gradients + optimizer state for trainable parameters.
	total += trainParams * bpv
	total += trainParams * int64(m.optimizerStateBytesPerParam)
	// Backward-cached activations plus frozen-forward workspace.
	total += int64(actBytes * float64(batch) * float64(bpv))
	// Transient double-buffered forward activations.
	total += 2 * maxAct * batch * bpv
	return total
}

// PeakMiB converts peakBytes to mebibytes, the Fig. 2(right) unit.
func (m MemoryModel) PeakMiB(stats dnn.ModelStats, cfg dnn.TableIConfig) float64 {
	return float64(m.peakBytes(stats, cfg)) / (1 << 20)
}
