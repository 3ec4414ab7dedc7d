// Package tensor implements a minimal dense-tensor engine used as the
// deep-learning substrate of the OffloaDNN reproduction. It provides the
// forward and backward passes for the operations needed by ResNet-style
// convolutional networks: matrix multiplication, 2-D convolution (via
// im2col), batch normalization, ReLU, pooling, fully connected layers and
// the softmax cross-entropy loss.
//
// Tensors are dense float64 arrays in row-major order. Image batches use
// the NCHW layout (batch, channels, height, width). The engine trades
// performance for clarity and determinism: it is the measurement substrate
// from which the OffloaDNN profiler derives per-block compute-time and
// memory tables, so relative cost fidelity matters more than raw speed.
package tensor

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// errShape reports an operation applied to tensors of incompatible shapes.
var errShape = errors.New("tensor: shape mismatch")

// Tensor is a dense, row-major, float64 n-dimensional array.
type Tensor struct {
	shape []int
	data  []float64
	// pooled marks storage obtained from the scratch pool via Rent;
	// only such tensors are recycled by Release. Views and clones
	// never inherit it.
	pooled bool
	// borrowed marks a pooled header over storage it does not own
	// (RentRows): Release recycles the header only.
	borrowed bool
}

// New returns a zero-filled tensor of the given shape.
// It panics if any dimension is non-positive.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{shape: s, data: make([]float64, n)}
}

// fromSlice wraps data in a tensor of the given shape. The data slice is
// used directly (not copied); it must have exactly prod(shape) elements.
func fromSlice(data []float64, shape ...int) (*Tensor, error) {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			return nil, fmt.Errorf("%w: non-positive dimension %d", errShape, d)
		}
		n *= d
	}
	if len(data) != n {
		return nil, fmt.Errorf("%w: data length %d does not match shape %v (need %d)", errShape, len(data), shape, n)
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{shape: s, data: data}, nil
}

// Shape returns a copy of the tensor's shape.
func (t *Tensor) Shape() []int {
	s := make([]int, len(t.shape))
	copy(s, t.shape)
	return s
}

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Data returns the underlying storage. Mutating it mutates the tensor.
func (t *Tensor) Data() []float64 { return t.data }

// clone returns a deep copy.
func (t *Tensor) clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// index computes the flat offset for multi-dimensional indices.
func (t *Tensor) index(idx ...int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: %d indices for rank-%d tensor", len(idx), len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %d out of range [0,%d) in dim %d", x, t.shape[i], i))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// Set assigns the element at the given indices.
func (t *Tensor) Set(v float64, idx ...int) { t.data[t.index(idx...)] = v }

// Fill sets every element to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.data {
		t.data[i] = v
	}
}

// Zero resets every element to 0.
func (t *Tensor) Zero() { t.Fill(0) }

// SameShape reports whether t and u have identical shapes.
func (t *Tensor) SameShape(u *Tensor) bool {
	if len(t.shape) != len(u.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != u.shape[i] {
			return false
		}
	}
	return true
}

// AddInPlace adds u element-wise into t.
func (t *Tensor) AddInPlace(u *Tensor) error {
	if !t.SameShape(u) {
		return fmt.Errorf("%w: add %v and %v", errShape, t.shape, u.shape)
	}
	for i := range t.data {
		t.data[i] += u.data[i]
	}
	return nil
}

// scaleInPlace multiplies every element of t by a.
func (t *Tensor) scaleInPlace(a float64) {
	for i := range t.data {
		t.data[i] *= a
	}
}

// String renders the shape and a preview of the data, for debugging.
func (t *Tensor) String() string {
	var sb strings.Builder
	sb.WriteString("Tensor[")
	for i, d := range t.shape {
		if i > 0 {
			sb.WriteByte('x')
		}
		sb.WriteString(strconv.Itoa(d))
	}
	sb.WriteString("]{")
	n := len(t.data)
	if n > 8 {
		n = 8
	}
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(strconv.FormatFloat(t.data[i], 'g', 4, 64))
	}
	if len(t.data) > 8 {
		sb.WriteString(", ...")
	}
	sb.WriteByte('}')
	return sb.String()
}
