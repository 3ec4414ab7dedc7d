package tensor

import (
	"fmt"
	"math"
)

// BatchNormState holds the learned affine parameters and running statistics
// of a 2-D batch-normalization layer over C channels.
type BatchNormState struct {
	Gamma       *Tensor // scale, shape (C)
	Beta        *Tensor // shift, shape (C)
	RunningMean *Tensor // shape (C)
	RunningVar  *Tensor // shape (C)
	momentum    float64 // running-stat update factor, typically 0.1
	eps         float64 // numerical stabilizer, typically 1e-5
}

// NewBatchNormState returns a state with gamma=1, beta=0, zero running mean
// and unit running variance.
func NewBatchNormState(channels int) *BatchNormState {
	s := &BatchNormState{
		Gamma:       New(channels),
		Beta:        New(channels),
		RunningMean: New(channels),
		RunningVar:  New(channels),
		momentum:    0.1,
		eps:         1e-5,
	}
	s.Gamma.Fill(1)
	s.RunningVar.Fill(1)
	return s
}

// Channels returns the number of normalized channels.
func (s *BatchNormState) Channels() int { return s.Gamma.Dim(0) }

// BatchNormResult caches the intermediates needed for the backward pass.
type BatchNormResult struct {
	Out   *Tensor
	xhat  []float64
	invSD []float64 // per channel 1/sqrt(var+eps)
	state *BatchNormState
	n     int
	c     int
	hw    int
}

// BatchNorm2D normalizes an NCHW batch per channel. In training mode the
// batch statistics are used and the running statistics updated; in
// evaluation mode the stored running statistics are used.
func BatchNorm2D(x *Tensor, s *BatchNormState, training bool) (*BatchNormResult, error) {
	if x.Rank() != 4 {
		return nil, fmt.Errorf("%w: batchnorm input must be rank-4, got %v", errShape, x.shape)
	}
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	if c != s.Channels() {
		return nil, fmt.Errorf("%w: batchnorm input has %d channels, state has %d", errShape, c, s.Channels())
	}
	hw := h * w
	out := New(x.shape...)
	res := &BatchNormResult{
		Out:   out,
		xhat:  make([]float64, x.Len()),
		invSD: make([]float64, c),
		state: s,
		n:     n, c: c, hw: hw,
	}
	cnt := float64(n * hw)
	for ch := 0; ch < c; ch++ {
		var mean, variance float64
		if training {
			sum := 0.0
			for b := 0; b < n; b++ {
				plane := x.data[(b*c+ch)*hw : (b*c+ch+1)*hw]
				for _, v := range plane {
					sum += v
				}
			}
			mean = sum / cnt
			sq := 0.0
			for b := 0; b < n; b++ {
				plane := x.data[(b*c+ch)*hw : (b*c+ch+1)*hw]
				for _, v := range plane {
					d := v - mean
					sq += d * d
				}
			}
			variance = sq / cnt
			s.RunningMean.data[ch] = (1-s.momentum)*s.RunningMean.data[ch] + s.momentum*mean
			s.RunningVar.data[ch] = (1-s.momentum)*s.RunningVar.data[ch] + s.momentum*variance
		} else {
			mean = s.RunningMean.data[ch]
			variance = s.RunningVar.data[ch]
		}
		inv := 1.0 / math.Sqrt(variance+s.eps)
		res.invSD[ch] = inv
		g, bshift := s.Gamma.data[ch], s.Beta.data[ch]
		for b := 0; b < n; b++ {
			off := (b*c + ch) * hw
			plane := x.data[off : off+hw]
			xh := res.xhat[off : off+hw]
			o := out.data[off : off+hw]
			for i, v := range plane {
				xn := (v - mean) * inv
				xh[i] = xn
				o[i] = g*xn + bshift
			}
		}
	}
	return res, nil
}

// BatchNorm2DInto normalizes an NCHW batch per channel using the stored
// running statistics, writing the result into dst (same shape as x). It
// is the inference fast path of BatchNorm2D: no result struct, no xhat
// cache, no running-stat update, so it allocates nothing and is safe for
// concurrent use over a shared state. Values match BatchNorm2D's
// evaluation mode bit for bit.
func BatchNorm2DInto(dst, x *Tensor, s *BatchNormState) error {
	if x.Rank() != 4 {
		return fmt.Errorf("%w: batchnorm input must be rank-4, got %v", errShape, x.shape)
	}
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	if c != s.Channels() {
		return fmt.Errorf("%w: batchnorm input has %d channels, state has %d", errShape, c, s.Channels())
	}
	if !dst.SameShape(x) {
		return fmt.Errorf("%w: batchnorm dst %v, want %v", errShape, dst.shape, x.shape)
	}
	hw := h * w
	for ch := 0; ch < c; ch++ {
		mean := s.RunningMean.data[ch]
		inv := 1.0 / math.Sqrt(s.RunningVar.data[ch]+s.eps)
		g, bshift := s.Gamma.data[ch], s.Beta.data[ch]
		for b := 0; b < n; b++ {
			off := (b*c + ch) * hw
			plane := x.data[off : off+hw]
			o := dst.data[off : off+hw]
			for i, v := range plane {
				xn := (v - mean) * inv
				o[i] = g*xn + bshift
			}
		}
	}
	return nil
}

// BatchNormGrads carries the gradients of a training-mode batch norm.
type BatchNormGrads struct {
	DX     *Tensor
	DGamma *Tensor
	DBeta  *Tensor
}

// Backward computes training-mode gradients for the batch norm given the
// upstream gradient dy.
func (r *BatchNormResult) Backward(dy *Tensor) (*BatchNormGrads, error) {
	if !dy.SameShape(r.Out) {
		return nil, fmt.Errorf("%w: batchnorm backward dy %v, want %v", errShape, dy.shape, r.Out.shape)
	}
	n, c, hw := r.n, r.c, r.hw
	cnt := float64(n * hw)
	grads := &BatchNormGrads{
		DX:     New(r.Out.shape...),
		DGamma: New(c),
		DBeta:  New(c),
	}
	for ch := 0; ch < c; ch++ {
		var sumDY, sumDYxh float64
		for b := 0; b < n; b++ {
			off := (b*c + ch) * hw
			dyp := dy.data[off : off+hw]
			xh := r.xhat[off : off+hw]
			for i, g := range dyp {
				sumDY += g
				sumDYxh += g * xh[i]
			}
		}
		grads.DGamma.data[ch] = sumDYxh
		grads.DBeta.data[ch] = sumDY
		g := r.state.Gamma.data[ch]
		inv := r.invSD[ch]
		for b := 0; b < n; b++ {
			off := (b*c + ch) * hw
			dyp := dy.data[off : off+hw]
			xh := r.xhat[off : off+hw]
			dxp := grads.DX.data[off : off+hw]
			for i, gy := range dyp {
				dxp[i] = g * inv * (gy - sumDY/cnt - xh[i]*sumDYxh/cnt)
			}
		}
	}
	return grads, nil
}
