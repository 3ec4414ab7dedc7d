// Package train implements the fine-tuning machinery of the motivation
// experiments: the Adam optimizer, the cosine-annealing learning-rate
// schedule the paper uses, a training loop with block freezing, a
// training-memory model (Fig. 2 right), and the calibrated convergence
// curves that carry the measured small-scale behaviour to ResNet-18 scale
// (Fig. 2 left).
package train

import (
	"errors"
	"fmt"
	"math"

	"offloadnn/internal/tensor"
)

// errConfig reports invalid optimizer or trainer configuration.
var errConfig = errors.New("train: invalid configuration")

// Optimizer updates parameters from accumulated gradients.
type Optimizer interface {
	// Step applies one update; params and grads are parallel slices.
	Step(params, grads []*tensor.Tensor) error
	// SetLR changes the learning rate (driven by the scheduler).
	SetLR(lr float64)
	// StateBytesPerParam reports the optimizer-state footprint used by
	// the training-memory model (0 for plain SGD, 8 for momentum-SGD
	// float64 velocity, 16 for Adam's two moments).
	StateBytesPerParam() int
}

// Adam is the Adam optimizer with decoupled weight decay disabled (plain
// L2, matching the paper's "'Adam' optimizer ... decay rate 0.001").
type Adam struct {
	LR          float64
	Beta1       float64
	Beta2       float64
	Eps         float64
	WeightDecay float64

	m, v [][]float64
	t    int
}

// NewAdam constructs an Adam optimizer with standard betas.
func NewAdam(lr, weightDecay float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, WeightDecay: weightDecay}
}

// SetLR implements Optimizer.
func (o *Adam) SetLR(lr float64) { o.LR = lr }

// StateBytesPerParam implements Optimizer.
func (o *Adam) StateBytesPerParam() int { return 16 }

// Step implements Optimizer.
func (o *Adam) Step(params, grads []*tensor.Tensor) error {
	if len(params) != len(grads) {
		return fmt.Errorf("%w: %d params vs %d grads", errConfig, len(params), len(grads))
	}
	if len(o.m) != len(params) {
		o.m = make([][]float64, len(params))
		o.v = make([][]float64, len(params))
		for i, p := range params {
			o.m[i] = make([]float64, p.Len())
			o.v[i] = make([]float64, p.Len())
		}
		o.t = 0
	}
	o.t++
	bc1 := 1 - math.Pow(o.Beta1, float64(o.t))
	bc2 := 1 - math.Pow(o.Beta2, float64(o.t))
	for i, p := range params {
		g := grads[i]
		if p.Len() != g.Len() {
			return fmt.Errorf("%w: param %d has %d elems, grad %d", errConfig, i, p.Len(), g.Len())
		}
		pd, gd := p.Data(), g.Data()
		m, v := o.m[i], o.v[i]
		for j := range pd {
			gj := gd[j] + o.WeightDecay*pd[j]
			m[j] = o.Beta1*m[j] + (1-o.Beta1)*gj
			v[j] = o.Beta2*v[j] + (1-o.Beta2)*gj*gj
			mhat := m[j] / bc1
			vhat := v[j] / bc2
			pd[j] -= o.LR * mhat / (math.Sqrt(vhat) + o.Eps)
		}
	}
	return nil
}

// CosineAnnealing is the cosine-annealing learning-rate schedule:
// lr(e) = Min + (Base-Min)/2 · (1 + cos(π·e/Total)).
type CosineAnnealing struct {
	Base  float64
	Min   float64
	Total int
}

// LR returns the learning rate for the (0-based) epoch.
func (s CosineAnnealing) LR(epoch int) float64 {
	if s.Total <= 0 {
		return s.Base
	}
	e := float64(epoch)
	if e > float64(s.Total) {
		e = float64(s.Total)
	}
	return s.Min + (s.Base-s.Min)/2*(1+math.Cos(math.Pi*e/float64(s.Total)))
}
