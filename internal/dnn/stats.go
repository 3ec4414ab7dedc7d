package dnn

// StageStats describes one block of a ResNet-18 analytically — parameter
// count and per-image activation volume — without allocating any weights.
// The training-memory model (Fig. 2 right) needs these at full ResNet-18
// scale (64 base width, 224×224 inputs), where actually instantiating ten
// configuration models would be wasteful.
type StageStats struct {
	// Params is the number of scalar parameters in the block.
	Params int
	// ActivationElems is the number of activation scalars one input image
	// produces inside the block (all intermediate feature maps that the
	// backward pass would need cached).
	ActivationElems int
	// OutputElems is the block's output feature-map size per image.
	OutputElems int
}

// ModelStats aggregates the six blocks of the canonical ResNet-18
// decomposition used throughout: stem, stages 1–4, classifier.
type ModelStats struct {
	stem       StageStats
	stages     [4]StageStats
	classifier StageStats
}

// TotalParams sums parameters over all blocks.
func (m ModelStats) TotalParams() int {
	n := m.stem.Params + m.classifier.Params
	for _, s := range m.stages {
		n += s.Params
	}
	return n
}

// Block returns the stats for stage number 0 (stem) through 5
// (classifier).
func (m ModelStats) Block(stage int) StageStats {
	switch {
	case stage == 0:
		return m.stem
	case stage >= 1 && stage <= 4:
		return m.stages[stage-1]
	default:
		return m.classifier
	}
}

func basicBlockParams(in, mid, out int, projection bool) int {
	n := in*mid*9 + 2*mid + mid*out*9 + 2*out
	if projection {
		n += in*out + 2*out
	}
	return n
}

// ResNet18Stats computes analytic statistics for the real ResNet-18
// topology: 7×7/2 stem conv + 3×3/2 max pool, four stages of two basic
// blocks with widths {w, 2w, 4w, 8w} (stages 2–4 downsample by 2 with a
// projection shortcut), global average pool and a fully connected head.
//
// imageSize is the square input side (224 for the paper's setting);
// numClasses sizes the head; pruneRatios optionally shrink each stage's
// internal width (0 = unpruned).
func ResNet18Stats(baseWidth, imageSize, numClasses int, pruneRatios [4]float64) ModelStats {
	w := baseWidth
	widths := [4]int{w, 2 * w, 4 * w, 8 * w}

	var ms ModelStats
	// Stem: conv7×7/2 (3→w) + bn + relu + maxpool3×3/2.
	convOut := imageSize / 2
	poolOut := convOut / 2
	ms.stem = StageStats{
		Params:          3*w*49 + 2*w,
		ActivationElems: 2*w*convOut*convOut + w*poolOut*poolOut, // conv out, relu out, pool out
		OutputElems:     w * poolOut * poolOut,
	}

	in := w
	size := poolOut
	for stage := 0; stage < 4; stage++ {
		out := widths[stage]
		mid := prunedWidth(out, pruneRatios[stage])
		stride := 1
		if stage > 0 {
			stride = 2
		}
		outSize := size / stride
		// Two basic blocks; the first may downsample/project.
		p := basicBlockParams(in, mid, out, stride != 1 || in != out) +
			basicBlockParams(out, mid, out, false)
		// Activations per basic block ≈ mid feature map (conv1 out, relu)
		// ×2 + out feature map (conv2 out + residual sum) ×2.
		act := 2*(2*mid*outSize*outSize+2*out*outSize*outSize) + out*outSize*outSize
		ms.stages[stage] = StageStats{
			Params:          p,
			ActivationElems: act,
			OutputElems:     out * outSize * outSize,
		}
		in = out
		size = outSize
	}

	ms.classifier = StageStats{
		Params:          widths[3]*numClasses + numClasses,
		ActivationElems: widths[3] + numClasses,
		OutputElems:     numClasses,
	}
	return ms
}
