package tensor

import "fmt"

// PoolParams describes a square pooling window with symmetric stride and
// padding.
type PoolParams struct {
	Kernel  int
	Stride  int
	padding int
}

// OutSize returns the pooled spatial size for an input of size h×w.
func (p PoolParams) OutSize(h, w int) (int, int) {
	oh := (h+2*p.padding-p.Kernel)/p.Stride + 1
	ow := (w+2*p.padding-p.Kernel)/p.Stride + 1
	return oh, ow
}

func (p PoolParams) validate() error {
	switch {
	case p.Kernel <= 0:
		return fmt.Errorf("%w: pool kernel must be positive, got %d", errShape, p.Kernel)
	case p.Stride <= 0:
		return fmt.Errorf("%w: pool stride must be positive, got %d", errShape, p.Stride)
	case p.padding < 0:
		return fmt.Errorf("%w: pool padding must be non-negative, got %d", errShape, p.padding)
	}
	return nil
}

// MaxPool2DResult carries the pooled output and the argmax indices needed
// for the backward pass.
type MaxPool2DResult struct {
	Out     *Tensor
	argmax  []int // flat input offset chosen for each output element
	inShape []int
}

// MaxPool2D applies max pooling over an NCHW batch.
func MaxPool2D(x *Tensor, p PoolParams) (*MaxPool2DResult, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	if x.Rank() != 4 {
		return nil, fmt.Errorf("%w: maxpool input must be rank-4, got %v", errShape, x.shape)
	}
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	oh, ow := p.OutSize(h, w)
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("%w: maxpool output %dx%d for input %dx%d", errShape, oh, ow, h, w)
	}
	out := New(n, c, oh, ow)
	argmax := make([]int, out.Len())
	oi := 0
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			plane := x.data[(b*c+ch)*h*w : (b*c+ch+1)*h*w]
			planeOff := (b*c + ch) * h * w
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					best := 0.0
					bestIdx := -1
					for ky := 0; ky < p.Kernel; ky++ {
						iy := oy*p.Stride + ky - p.padding
						if iy < 0 || iy >= h {
							continue
						}
						for kx := 0; kx < p.Kernel; kx++ {
							ix := ox*p.Stride + kx - p.padding
							if ix < 0 || ix >= w {
								continue
							}
							v := plane[iy*w+ix]
							if bestIdx < 0 || v > best {
								best = v
								bestIdx = planeOff + iy*w + ix
							}
						}
					}
					if bestIdx < 0 {
						// Window fully in padding: output zero with no gradient route.
						out.data[oi] = 0
						argmax[oi] = -1
					} else {
						out.data[oi] = best
						argmax[oi] = bestIdx
					}
					oi++
				}
			}
		}
	}
	return &MaxPool2DResult{Out: out, argmax: argmax, inShape: x.Shape()}, nil
}

// MaxPool2DInto applies max pooling into dst (shape N×C×OH×OW) without
// recording argmax indices — the inference fast path of MaxPool2D.
// Output values match MaxPool2D bit for bit.
func MaxPool2DInto(dst, x *Tensor, p PoolParams) error {
	if err := p.validate(); err != nil {
		return err
	}
	if x.Rank() != 4 {
		return fmt.Errorf("%w: maxpool input must be rank-4, got %v", errShape, x.shape)
	}
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	oh, ow := p.OutSize(h, w)
	if oh <= 0 || ow <= 0 {
		return fmt.Errorf("%w: maxpool output %dx%d for input %dx%d", errShape, oh, ow, h, w)
	}
	if dst.Rank() != 4 || dst.shape[0] != n || dst.shape[1] != c || dst.shape[2] != oh || dst.shape[3] != ow {
		return fmt.Errorf("%w: maxpool dst %v, want [%d %d %d %d]", errShape, dst.shape, n, c, oh, ow)
	}
	oi := 0
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			plane := x.data[(b*c+ch)*h*w : (b*c+ch+1)*h*w]
			for oy := 0; oy < oh; oy++ {
				iy0 := oy*p.Stride - p.padding
				kyLo, kyHi := max(0, -iy0), min(p.Kernel, h-iy0)
				for ox := 0; ox < ow; ox++ {
					// The taps [kyLo,kyHi)×[kxLo,kxHi) fall inside the image;
					// they are visited in MaxPool2D's order, starting from the
					// first, so NaNs and signed zeros come out the same.
					ix0 := ox*p.Stride - p.padding
					kxLo, kxHi := max(0, -ix0), min(p.Kernel, w-ix0)
					best := 0.0 // a window wholly in padding
					if kyLo < kyHi && kxLo < kxHi {
						best = plane[(iy0+kyLo)*w+ix0+kxLo]
						for ky := kyLo; ky < kyHi; ky++ {
							at := (iy0+ky)*w + ix0
							for _, v := range plane[at+kxLo : at+kxHi] {
								if v > best {
									best = v
								}
							}
						}
					}
					dst.data[oi] = best
					oi++
				}
			}
		}
	}
	return nil
}

// GlobalAvgPool2DInto averages each channel plane into dst (shape N×C) —
// the destination-reuse variant of GlobalAvgPool2D.
func GlobalAvgPool2DInto(dst, x *Tensor) error {
	if x.Rank() != 4 {
		return fmt.Errorf("%w: global avgpool input must be rank-4, got %v", errShape, x.shape)
	}
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	if dst.Rank() != 2 || dst.shape[0] != n || dst.shape[1] != c {
		return fmt.Errorf("%w: global avgpool dst %v, want [%d %d]", errShape, dst.shape, n, c)
	}
	area := float64(h * w)
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			plane := x.data[(b*c+ch)*h*w : (b*c+ch+1)*h*w]
			s := 0.0
			for _, v := range plane {
				s += v
			}
			dst.data[b*c+ch] = s / area
		}
	}
	return nil
}

// Backward routes the upstream gradient dy to the argmax positions.
func (r *MaxPool2DResult) Backward(dy *Tensor) (*Tensor, error) {
	if !dy.SameShape(r.Out) {
		return nil, fmt.Errorf("%w: maxpool backward dy %v, want %v", errShape, dy.shape, r.Out.shape)
	}
	dx := New(r.inShape...)
	for i, src := range r.argmax {
		if src >= 0 {
			dx.data[src] += dy.data[i]
		}
	}
	return dx, nil
}

// GlobalAvgPool2D averages each channel plane to a single value, producing
// an (N, C) tensor from an (N, C, H, W) input.
func GlobalAvgPool2D(x *Tensor) (*Tensor, error) {
	if x.Rank() != 4 {
		return nil, fmt.Errorf("%w: global avgpool input must be rank-4, got %v", errShape, x.shape)
	}
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	out := New(n, c)
	area := float64(h * w)
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			plane := x.data[(b*c+ch)*h*w : (b*c+ch+1)*h*w]
			s := 0.0
			for _, v := range plane {
				s += v
			}
			out.data[b*c+ch] = s / area
		}
	}
	return out, nil
}

// GlobalAvgPool2DBackward spreads the upstream (N, C) gradient uniformly
// over each channel plane of the original (N, C, H, W) input shape.
func GlobalAvgPool2DBackward(dy *Tensor, inShape []int) (*Tensor, error) {
	if len(inShape) != 4 {
		return nil, fmt.Errorf("%w: global avgpool backward input shape %v", errShape, inShape)
	}
	n, c, h, w := inShape[0], inShape[1], inShape[2], inShape[3]
	if dy.Rank() != 2 || dy.shape[0] != n || dy.shape[1] != c {
		return nil, fmt.Errorf("%w: global avgpool backward dy %v, want [%d %d]", errShape, dy.shape, n, c)
	}
	dx := New(inShape...)
	inv := 1.0 / float64(h*w)
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			g := dy.data[b*c+ch] * inv
			plane := dx.data[(b*c+ch)*h*w : (b*c+ch+1)*h*w]
			for i := range plane {
				plane[i] = g
			}
		}
	}
	return dx, nil
}
