package dnn

import "fmt"

// Path splitting: a path's stage blocks may be partitioned into
// contiguous segments pipelined across nodes, the boundary activation
// shipped between them. The legal cut points are the stage boundaries —
// a block is never split internally — and the tensor crossing each
// boundary is fully determined by the template geometry, so the
// placement layer can price activation transfers analytically, without
// assembling (let alone running) a model.

// CutPoint describes one legal split boundary of a path: the activation
// tensor leaving stage position After (1-based), which the next segment
// consumes as its input.
type CutPoint struct {
	// After is how many stage blocks run before the cut (1..nStages-1).
	After int
	// shape is the boundary activation's (C, H, W).
	shape [3]int
	// elems is the activation element count per frame.
	elems int
	// WireBytes is the payload size of one frame's boundary activation
	// on the wire. Transfers always ship raw float64 (the inter-block
	// interchange format), whatever precision the segments compute in —
	// quantized blocks still exchange f64 tensors — so the wire price is
	// precision-independent.
	WireBytes int
}

// stemOutputShape returns the stem's output (C, H, W) for the given
// input shape: a same-padded 3x3 conv to BaseWidth channels followed by
// a 2x2/2 max-pool (see BuildStemBlock).
func stemOutputShape(cfg ResNetConfig, input [3]int) [3]int {
	return [3]int{cfg.BaseWidth, poolOut(input[1], 2, 2, 0), poolOut(input[2], 2, 2, 0)}
}

// SegmentBoundaryShape returns the activation shape after stage
// position `after` (1-based) of a path, for the given frame shape.
// after=0 returns the stem output — the input of stage position 1.
func SegmentBoundaryShape(cfg ResNetConfig, input [3]int, after int) [3]int {
	s := stemOutputShape(cfg, input)
	for p := 1; p <= after; p++ {
		t := min(p, 4)
		s[0] = StageWidth(cfg, t)
		if t > 1 {
			// The stage's first unit downsamples: 3x3 conv, stride 2, pad 1.
			s[1] = convOut(s[1], 3, 2, 1)
			s[2] = convOut(s[2], 3, 2, 1)
		}
	}
	return s
}

// EnumerateCutPoints returns every legal cut point of a path with
// nStages stage blocks on the given input shape, in order. A path with
// fewer than two stages has none.
func EnumerateCutPoints(cfg ResNetConfig, nStages int, input [3]int) []CutPoint {
	if nStages < 2 {
		return nil
	}
	cuts := make([]CutPoint, 0, nStages-1)
	s := stemOutputShape(cfg, input)
	for p := 1; p < nStages; p++ {
		t := min(p, 4)
		s[0] = StageWidth(cfg, t)
		if t > 1 {
			s[1] = convOut(s[1], 3, 2, 1)
			s[2] = convOut(s[2], 3, 2, 1)
		}
		elems := s[0] * s[1] * s[2]
		cuts = append(cuts, CutPoint{After: p, shape: s, elems: elems, WireBytes: elems * 8})
	}
	return cuts
}

// AssembleSegmentModel composes a runnable model for one contiguous
// slice of a path. Unlike AssemblePathModel, stem and classifier may be
// absent: a mid-path segment consumes a boundary activation instead of
// a frame and emits one instead of logits. Blocks are aliased, not
// copied, exactly as in whole-path assembly.
func AssembleSegmentModel(arch string, stem *Block, stages []*Block, classifier *Block) (*Model, error) {
	if len(stages) == 0 {
		return nil, fmt.Errorf("dnn: assemble segment %s: empty stage range", arch)
	}
	blocks := make([]*Block, 0, len(stages)+2)
	if stem != nil {
		blocks = append(blocks, stem)
	}
	blocks = append(blocks, stages...)
	if classifier != nil {
		blocks = append(blocks, classifier)
	}
	return &Model{arch: arch, Blocks: blocks}, nil
}

// convOut is the spatial output size of a convolution.
func convOut(in, kernel, stride, pad int) int {
	return (in+2*pad-kernel)/stride + 1
}

// poolOut is the spatial output size of a pooling layer.
func poolOut(in, kernel, stride, pad int) int {
	return (in+2*pad-kernel)/stride + 1
}
