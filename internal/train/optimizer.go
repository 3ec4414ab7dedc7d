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
	// step applies one update; params and grads are parallel slices.
	step(params, grads []*tensor.Tensor) error
	// setLR changes the learning rate (driven by the scheduler).
	setLR(lr float64)
}

// Adam is the Adam optimizer with decoupled weight decay disabled (plain
// L2, matching the paper's "'Adam' optimizer ... decay rate 0.001").
type Adam struct {
	lr          float64
	beta1       float64
	beta2       float64
	eps         float64
	weightDecay float64

	m, v [][]float64
	t    int
}

// NewAdam constructs an Adam optimizer with standard betas.
func NewAdam(lr, weightDecay float64) *Adam {
	return &Adam{lr: lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, weightDecay: weightDecay}
}

// setLR implements Optimizer.
func (o *Adam) setLR(lr float64) { o.lr = lr }

// step implements Optimizer.
func (o *Adam) step(params, grads []*tensor.Tensor) error {
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
	bc1 := 1 - math.Pow(o.beta1, float64(o.t))
	bc2 := 1 - math.Pow(o.beta2, float64(o.t))
	for i, p := range params {
		g := grads[i]
		if p.Len() != g.Len() {
			return fmt.Errorf("%w: param %d has %d elems, grad %d", errConfig, i, p.Len(), g.Len())
		}
		pd, gd := p.Data(), g.Data()
		m, v := o.m[i], o.v[i]
		for j := range pd {
			gj := gd[j] + o.weightDecay*pd[j]
			m[j] = o.beta1*m[j] + (1-o.beta1)*gj
			v[j] = o.beta2*v[j] + (1-o.beta2)*gj*gj
			mhat := m[j] / bc1
			vhat := v[j] / bc2
			pd[j] -= o.lr * mhat / (math.Sqrt(vhat) + o.eps)
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

// lr returns the learning rate for the (0-based) epoch.
func (s CosineAnnealing) lr(epoch int) float64 {
	if s.Total <= 0 {
		return s.Base
	}
	e := float64(epoch)
	if e > float64(s.Total) {
		e = float64(s.Total)
	}
	return s.Min + (s.Base-s.Min)/2*(1+math.Cos(math.Pi*e/float64(s.Total)))
}
