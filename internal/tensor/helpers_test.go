package tensor

import (
	"fmt"
	"math"
)

// reshape returns a view of the tensor with a new shape of equal length.
// The returned tensor shares storage with t.
func (t *Tensor) reshape(shape ...int) (*Tensor, error) {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.data) {
		return nil, fmt.Errorf("%w: cannot reshape %v (%d elems) to %v (%d elems)",
			errShape, t.shape, len(t.data), shape, n)
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{shape: s, data: t.data}, nil
}

// MustReshape is reshape but panics on error.
func (t *Tensor) MustReshape(shape ...int) *Tensor {
	r, err := t.reshape(shape...)
	if err != nil {
		panic(err)
	}
	return r
}

// At returns the element at the given indices.
func (t *Tensor) At(idx ...int) float64 { return t.data[t.index(idx...)] }

// AXPYInPlace computes t += a*u element-wise.
func (t *Tensor) AXPYInPlace(a float64, u *Tensor) error {
	if !t.SameShape(u) {
		return fmt.Errorf("%w: axpy %v and %v", errShape, t.shape, u.shape)
	}
	for i := range t.data {
		t.data[i] += a * u.data[i]
	}
	return nil
}

// sum returns the sum of all elements.
func (t *Tensor) sum() float64 {
	s := 0.0
	for _, v := range t.data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements.
func (t *Tensor) Mean() float64 { return t.sum() / float64(len(t.data)) }

// MaxAbs returns the maximum absolute element value.
func (t *Tensor) MaxAbs() float64 {
	m := 0.0
	for _, v := range t.data {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// L2Norm returns the Euclidean norm of the flattened tensor.
func (t *Tensor) L2Norm() float64 {
	s := 0.0
	for _, v := range t.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// Release returns all gradient tensors to the scratch pool.
func (g *Conv2DGrads) Release() {
	if g == nil {
		return
	}
	Release(g.DX)
	Release(g.DW)
	Release(g.DB)
	g.DX, g.DW, g.DB = nil, nil, nil
}
