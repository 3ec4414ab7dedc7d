package tensor

import (
	"fmt"
	"math"
)

// ReLU returns max(0, x) element-wise along with the mask needed for the
// backward pass.
func ReLU(x *Tensor) (*Tensor, []bool) {
	out := New(x.shape...)
	mask := make([]bool, x.Len())
	for i, v := range x.data {
		if v > 0 {
			out.data[i] = v
			mask[i] = true
		}
	}
	return out, mask
}

// ReLUInPlace applies max(0, x) in place and returns the pass-through mask.
func ReLUInPlace(x *Tensor) []bool {
	mask := make([]bool, x.Len())
	for i, v := range x.data {
		if v > 0 {
			mask[i] = true
		} else {
			x.data[i] = 0
		}
	}
	return mask
}

// ReLUInto writes max(0, x) into dst without computing a backward mask —
// the inference fast path. dst must have x's element count; its previous
// contents are overwritten. Every v that is not > 0 — NaN and −0
// included — becomes +0.
//
// Activations are random-signed, so a branch on the sign mispredicts
// about every other element; the select goes through the bits instead
// (an all-ones or zero mask, which compiles to a CMOV), same result.
func ReLUInto(dst, x *Tensor) error {
	if dst.Len() != x.Len() {
		return fmt.Errorf("%w: relu dst has %d elems, x %d", errShape, dst.Len(), x.Len())
	}
	d := dst.data[:len(x.data)]
	for i, v := range x.data {
		var keep uint64
		if v > 0 {
			keep = ^uint64(0)
		}
		d[i] = math.Float64frombits(math.Float64bits(v) & keep)
	}
	return nil
}

// ReLUInPlaceInfer applies max(0, x) in place without allocating the
// backward mask — the inference counterpart of ReLUInPlace. Only v < 0
// becomes +0: NaN and −0 pass through unchanged, unlike ReLUInto and
// ReLUInPlace, which map both to +0. Branch-free like ReLUInto.
func ReLUInPlaceInfer(x *Tensor) {
	for i, v := range x.data {
		keep := ^uint64(0)
		if v < 0 {
			keep = 0
		}
		x.data[i] = math.Float64frombits(math.Float64bits(v) & keep)
	}
}

// ReLUBackward masks the upstream gradient with the forward activation mask.
func ReLUBackward(dy *Tensor, mask []bool) (*Tensor, error) {
	if dy.Len() != len(mask) {
		return nil, fmt.Errorf("%w: relu backward dy has %d elems, mask %d", errShape, dy.Len(), len(mask))
	}
	dx := New(dy.shape...)
	for i, g := range dy.data {
		if mask[i] {
			dx.data[i] = g
		}
	}
	return dx, nil
}

// softmax applies a numerically stable row-wise softmax to an (N, K) tensor.
func softmax(x *Tensor) (*Tensor, error) {
	if x.Rank() != 2 {
		return nil, fmt.Errorf("%w: softmax needs rank-2, got %v", errShape, x.shape)
	}
	n, k := x.shape[0], x.shape[1]
	out := New(n, k)
	for i := 0; i < n; i++ {
		row := x.data[i*k : (i+1)*k]
		o := out.data[i*k : (i+1)*k]
		maxv := row[0]
		for _, v := range row[1:] {
			if v > maxv {
				maxv = v
			}
		}
		sum := 0.0
		for j, v := range row {
			e := math.Exp(v - maxv)
			o[j] = e
			sum += e
		}
		inv := 1.0 / sum
		for j := range o {
			o[j] *= inv
		}
	}
	return out, nil
}

// CrossEntropyResult carries the scalar loss and the cached probabilities
// for the backward pass.
type CrossEntropyResult struct {
	Loss  float64
	probs *Tensor
	y     []int
}

// CrossEntropy computes the mean softmax cross-entropy loss of logits
// (N, K) against integer labels y (len N).
func CrossEntropy(logits *Tensor, y []int) (*CrossEntropyResult, error) {
	if logits.Rank() != 2 {
		return nil, fmt.Errorf("%w: cross-entropy logits must be rank-2, got %v", errShape, logits.shape)
	}
	n, k := logits.shape[0], logits.shape[1]
	if len(y) != n {
		return nil, fmt.Errorf("%w: cross-entropy has %d labels for batch %d", errShape, len(y), n)
	}
	probs, err := softmax(logits)
	if err != nil {
		return nil, err
	}
	loss := 0.0
	for i, label := range y {
		if label < 0 || label >= k {
			return nil, fmt.Errorf("%w: label %d out of range [0,%d)", errShape, label, k)
		}
		p := probs.data[i*k+label]
		if p < 1e-12 {
			p = 1e-12
		}
		loss -= math.Log(p)
	}
	labels := make([]int, n)
	copy(labels, y)
	return &CrossEntropyResult{Loss: loss / float64(n), probs: probs, y: labels}, nil
}

// Backward returns dLoss/dLogits, shape (N, K).
func (r *CrossEntropyResult) Backward() *Tensor {
	n, k := r.probs.shape[0], r.probs.shape[1]
	dx := r.probs.clone()
	inv := 1.0 / float64(n)
	for i, label := range r.y {
		dx.data[i*k+label] -= 1
	}
	dx.scaleInPlace(inv)
	return dx
}

// Argmax returns the index of the maximum value in each row of an (N, K)
// tensor.
func Argmax(x *Tensor) ([]int, error) {
	if x.Rank() != 2 {
		return nil, fmt.Errorf("%w: argmax needs rank-2, got %v", errShape, x.shape)
	}
	n, k := x.shape[0], x.shape[1]
	out := make([]int, n)
	for i := 0; i < n; i++ {
		row := x.data[i*k : (i+1)*k]
		best := 0
		for j, v := range row {
			if v > row[best] {
				best = j
			}
		}
		out[i] = best
	}
	return out, nil
}
