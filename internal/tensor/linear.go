package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Linear computes y = x·Wᵀ + b for x (N, In), weight (Out, In) and bias
// (Out) (bias may be nil). The result has shape (N, Out).
func Linear(x, weight, bias *Tensor) (*Tensor, error) {
	if x.Rank() != 2 || weight.Rank() != 2 {
		return nil, fmt.Errorf("%w: linear needs rank-2 x and weight, got %v and %v", errShape, x.shape, weight.shape)
	}
	n, in := x.shape[0], x.shape[1]
	out, in2 := weight.shape[0], weight.shape[1]
	if in != in2 {
		return nil, fmt.Errorf("%w: linear input dim %d vs weight dim %d", errShape, in, in2)
	}
	if bias != nil && (bias.Rank() != 1 || bias.shape[0] != out) {
		return nil, fmt.Errorf("%w: linear bias shape %v, want [%d]", errShape, bias.shape, out)
	}
	y, err := matMulTransB(x, weight)
	if err != nil {
		return nil, err
	}
	if bias != nil {
		for i := 0; i < n; i++ {
			row := y.data[i*out : (i+1)*out]
			for j := range row {
				row[j] += bias.data[j]
			}
		}
	}
	return y, nil
}

// LinearGrads holds the gradients of a Linear call.
type LinearGrads struct {
	DX *Tensor
	DW *Tensor
	DB *Tensor // nil when the layer had no bias
}

// LinearBackward computes the gradients of Linear given upstream dy (N, Out).
func LinearBackward(dy, x, weight *Tensor, hasBias bool) (*LinearGrads, error) {
	n, in := x.shape[0], x.shape[1]
	out := weight.shape[0]
	if dy.Rank() != 2 || dy.shape[0] != n || dy.shape[1] != out {
		return nil, fmt.Errorf("%w: linear backward dy %v, want [%d %d]", errShape, dy.shape, n, out)
	}
	dx, err := matMul(dy, weight) // (N,Out)·(Out,In) = (N,In)
	if err != nil {
		return nil, err
	}
	dw, err := matMulTransA(dy, x) // dyᵀ·x = (Out,N)·(N,In)
	if err != nil {
		return nil, err
	}
	grads := &LinearGrads{DX: dx, DW: dw}
	if hasBias {
		db := New(out)
		for i := 0; i < n; i++ {
			row := dy.data[i*out : (i+1)*out]
			for j, g := range row {
				db.data[j] += g
			}
		}
		grads.DB = db
	}
	_ = in
	return grads, nil
}

// KaimingInit fills t with He-normal values appropriate for layers followed
// by ReLU: N(0, sqrt(2/fanIn)).
func KaimingInit(t *Tensor, fanIn int, rng *rand.Rand) {
	sd := math.Sqrt(2.0 / float64(fanIn))
	for i := range t.data {
		t.data[i] = rng.NormFloat64() * sd
	}
}

// XavierInit fills t with Glorot-uniform values in
// [-sqrt(6/(fanIn+fanOut)), +sqrt(6/(fanIn+fanOut))].
func XavierInit(t *Tensor, fanIn, fanOut int, rng *rand.Rand) {
	lim := math.Sqrt(6.0 / float64(fanIn+fanOut))
	for i := range t.data {
		t.data[i] = (rng.Float64()*2 - 1) * lim
	}
}
