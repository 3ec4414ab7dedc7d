package train

import (
	"fmt"
	"math/rand"

	"offloadnn/internal/dataset"
	"offloadnn/internal/dnn"
	"offloadnn/internal/tensor"
)

// Trainer runs epochs of mini-batch training over a dataset split.
type Trainer struct {
	model     *dnn.Model
	optimizer Optimizer
	schedule  CosineAnnealing
	batchSize int

	rng   *rand.Rand
	epoch int
}

// NewTrainer constructs a trainer. batchSize must be positive.
func NewTrainer(m *dnn.Model, opt Optimizer, sched CosineAnnealing, batchSize int, seed int64) (*Trainer, error) {
	if batchSize <= 0 {
		return nil, fmt.Errorf("%w: batch size %d", errConfig, batchSize)
	}
	if m == nil || opt == nil {
		return nil, fmt.Errorf("%w: nil model or optimizer", errConfig)
	}
	return &Trainer{
		model:     m,
		optimizer: opt,
		schedule:  sched,
		batchSize: batchSize,
		rng:       rand.New(rand.NewSource(seed)),
	}, nil
}

// TrainEpoch runs one pass over the training set and returns the mean
// batch loss.
func (t *Trainer) TrainEpoch(sp *dataset.Split) (float64, error) {
	idx := dataset.Shuffle(len(sp.TrainX), t.rng)
	t.optimizer.setLR(t.schedule.lr(t.epoch))
	totalLoss := 0.0
	batches := 0
	for start := 0; start < len(idx); start += t.batchSize {
		end := start + t.batchSize
		if end > len(idx) {
			end = len(idx)
		}
		x, y, err := sp.Batch(idx[start:end])
		if err != nil {
			return 0, fmt.Errorf("train: batch: %w", err)
		}
		loss, err := t.step(x, y)
		if err != nil {
			return 0, err
		}
		totalLoss += loss
		batches++
	}
	t.epoch++
	if batches == 0 {
		return 0, fmt.Errorf("train: empty training set")
	}
	return totalLoss / float64(batches), nil
}

func (t *Trainer) step(x *tensor.Tensor, y []int) (float64, error) {
	logits, err := t.model.Forward(x, true)
	if err != nil {
		return 0, fmt.Errorf("train: forward: %w", err)
	}
	ce, err := tensor.CrossEntropy(logits, y)
	if err != nil {
		return 0, fmt.Errorf("train: loss: %w", err)
	}
	t.model.ZeroGrads()
	if _, err := t.model.Backward(ce.Backward()); err != nil {
		return 0, fmt.Errorf("train: backward: %w", err)
	}
	if err := t.optimizer.step(t.model.TrainableParams(), t.model.TrainableGrads()); err != nil {
		return 0, fmt.Errorf("train: optimizer: %w", err)
	}
	return ce.Loss, nil
}

// EvaluateModel computes top-1 test accuracy of any model on a split.
func EvaluateModel(m *dnn.Model, sp *dataset.Split) (float64, error) {
	if len(sp.TestX) == 0 {
		return 0, fmt.Errorf("train: empty test set")
	}
	const evalBatch = 32
	correct := 0
	for start := 0; start < len(sp.TestX); start += evalBatch {
		end := start + evalBatch
		if end > len(sp.TestX) {
			end = len(sp.TestX)
		}
		idx := make([]int, end-start)
		for i := range idx {
			idx[i] = start + i
		}
		x, y, err := sp.TestBatch(idx)
		if err != nil {
			return 0, err
		}
		logits, err := m.ForwardBatch(x)
		if err != nil {
			return 0, err
		}
		pred, err := tensor.Argmax(logits)
		tensor.Release(logits)
		if err != nil {
			return 0, err
		}
		for i := range pred {
			if pred[i] == y[i] {
				correct++
			}
		}
	}
	return float64(correct) / float64(len(sp.TestX)), nil
}

// EvaluateClass computes the average class accuracy (recall) of a single
// class — the Fig. 3(right) metric for "electric guitar".
func EvaluateClass(m *dnn.Model, sp *dataset.Split, classID int) (float64, error) {
	var idx []int
	for i, y := range sp.TestY {
		if y == classID {
			idx = append(idx, i)
		}
	}
	if len(idx) == 0 {
		return 0, fmt.Errorf("train: class %d has no test examples", classID)
	}
	x, y, err := sp.TestBatch(idx)
	if err != nil {
		return 0, err
	}
	logits, err := m.ForwardBatch(x)
	if err != nil {
		return 0, err
	}
	pred, err := tensor.Argmax(logits)
	tensor.Release(logits)
	if err != nil {
		return 0, err
	}
	correct := 0
	for i := range pred {
		if pred[i] == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(idx)), nil
}
