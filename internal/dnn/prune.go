package dnn

import (
	"fmt"
	"math/rand"
	"sort"

	"offloadnn/internal/tensor"
)

// channelNorms computes the squared L2 norm of each output-channel filter
// of a conv weight tensor (Cout, Cin, K, K).
func channelNorms(w *tensor.Tensor) []float64 {
	cout := w.Dim(0)
	data := w.Data()
	per := len(data) / cout
	norms := make([]float64, cout)
	for c := 0; c < cout; c++ {
		s := 0.0
		for _, v := range data[c*per : (c+1)*per] {
			s += v * v
		}
		norms[c] = s
	}
	return norms
}

// topChannels returns the indices of the keep largest-norm channels, in
// ascending index order for deterministic weight layout.
func topChannels(norms []float64, keep int) []int {
	idx := make([]int, len(norms))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return norms[idx[a]] > norms[idx[b]] })
	kept := append([]int(nil), idx[:keep]...)
	sort.Ints(kept)
	return kept
}

// pruneBasicBlock returns a structurally pruned copy of src in which the
// internal width (conv1 output / conv2 input channels) is reduced by
// ratio, keeping the channels with the largest conv1 filter L2 norms —
// magnitude-based structured pruning at DepGraph granularity. The block
// interface (input/output channels, stride) is unchanged, so the pruned
// block drops into any path the original served.
func pruneBasicBlock(src *basicBlock, ratio float64, rng *rand.Rand) (*basicBlock, error) {
	if ratio < 0 || ratio >= 1 {
		return nil, fmt.Errorf("dnn: prune ratio %v outside [0,1)", ratio)
	}
	mid := src.MidChannels()
	keep := prunedWidth(mid, ratio)
	kept := topChannels(channelNorms(src.Conv1.W), keep)

	in := src.Conv1.P.InChannels
	out := src.Conv2.P.OutChannels
	stride := src.Conv1.P.Stride
	dst := newBasicBlock(src.name+"-pruned", in, keep, out, stride, rng)

	// conv1: copy surviving filters wholesale.
	k := src.Conv1.P.Kernel
	per := in * k * k
	for ni, oi := range kept {
		copy(dst.Conv1.W.Data()[ni*per:(ni+1)*per], src.Conv1.W.Data()[oi*per:(oi+1)*per])
	}
	// bn1: copy surviving channel statistics and affine parameters.
	for ni, oi := range kept {
		dst.BN1.State.Gamma.Data()[ni] = src.BN1.State.Gamma.Data()[oi]
		dst.BN1.State.Beta.Data()[ni] = src.BN1.State.Beta.Data()[oi]
		dst.BN1.State.RunningMean.Data()[ni] = src.BN1.State.RunningMean.Data()[oi]
		dst.BN1.State.RunningVar.Data()[ni] = src.BN1.State.RunningVar.Data()[oi]
	}
	// conv2: slice the input-channel dimension down to the kept channels.
	k2 := src.Conv2.P.Kernel
	kk := k2 * k2
	for oc := 0; oc < out; oc++ {
		srcBase := oc * mid * kk
		dstBase := oc * keep * kk
		for ni, oi := range kept {
			copy(dst.Conv2.W.Data()[dstBase+ni*kk:dstBase+(ni+1)*kk],
				src.Conv2.W.Data()[srcBase+oi*kk:srcBase+(oi+1)*kk])
		}
	}
	// bn2 and the projection shortcut keep their full width.
	copy(dst.BN2.State.Gamma.Data(), src.BN2.State.Gamma.Data())
	copy(dst.BN2.State.Beta.Data(), src.BN2.State.Beta.Data())
	copy(dst.BN2.State.RunningMean.Data(), src.BN2.State.RunningMean.Data())
	copy(dst.BN2.State.RunningVar.Data(), src.BN2.State.RunningVar.Data())
	if src.DownConv != nil {
		copy(dst.DownConv.W.Data(), src.DownConv.W.Data())
		copy(dst.DownBN.State.Gamma.Data(), src.DownBN.State.Gamma.Data())
		copy(dst.DownBN.State.Beta.Data(), src.DownBN.State.Beta.Data())
		copy(dst.DownBN.State.RunningMean.Data(), src.DownBN.State.RunningMean.Data())
		copy(dst.DownBN.State.RunningVar.Data(), src.DownBN.State.RunningVar.Data())
	}
	return dst, nil
}

// pruneBlock returns a pruned copy of a residual-stage block (all layers
// must be *basicBlock). The new block carries variantPruned, the prune
// ratio, and the ID suffix "+pruned<ratio%>".
func pruneBlock(src *Block, ratio float64, rng *rand.Rand) (*Block, error) {
	layers := make([]layer, 0, len(src.layers))
	for _, l := range src.layers {
		bb, ok := l.(*basicBlock)
		if !ok {
			return nil, fmt.Errorf("dnn: prune block %s: layer %s is %T, not *BasicBlock", src.ID, l.Name(), l)
		}
		p, err := pruneBasicBlock(bb, ratio, rng)
		if err != nil {
			return nil, fmt.Errorf("dnn: prune block %s: %w", src.ID, err)
		}
		layers = append(layers, p)
	}
	out := newBlock(fmt.Sprintf("%s+pruned%d", src.ID, int(ratio*100)), src.Stage, variantPruned, layers...)
	out.pruneRatio = ratio
	return out, nil
}

// cloneBlock returns a deep copy of src (fresh layers, copied weights and
// statistics) under a new identifier. Cloned blocks are the starting point
// of fine-tuning: they begin at the base weights but evolve independently.
func cloneBlock(src *Block, newID string, rng *rand.Rand) (*Block, error) {
	layers := make([]layer, 0, len(src.layers))
	for _, l := range src.layers {
		c, err := cloneLayer(l, rng)
		if err != nil {
			return nil, fmt.Errorf("dnn: clone block %s: %w", src.ID, err)
		}
		layers = append(layers, c)
	}
	out := newBlock(newID, src.Stage, variantFineTuned, layers...)
	out.pruneRatio = src.pruneRatio
	return out, nil
}

func cloneLayer(l layer, rng *rand.Rand) (layer, error) {
	switch v := l.(type) {
	case *convLayer:
		c := newConvLayer(v.name, v.P, v.B != nil, rng)
		copy(c.W.Data(), v.W.Data())
		if v.B != nil {
			copy(c.B.Data(), v.B.Data())
		}
		return c, nil
	case *batchNormLayer:
		c := newBatchNormLayer(v.name, v.State.Channels())
		copy(c.State.Gamma.Data(), v.State.Gamma.Data())
		copy(c.State.Beta.Data(), v.State.Beta.Data())
		copy(c.State.RunningMean.Data(), v.State.RunningMean.Data())
		copy(c.State.RunningVar.Data(), v.State.RunningVar.Data())
		return c, nil
	case *reluLayer:
		return newReLULayer(v.name), nil
	case *maxPoolLayer:
		return newMaxPoolLayer(v.name, v.P), nil
	case *globalAvgPoolLayer:
		return newGlobalAvgPoolLayer(v.name), nil
	case *linearLayer:
		in := v.W.Dim(1)
		out := v.W.Dim(0)
		c := newLinearLayer(v.name, in, out, rng)
		copy(c.W.Data(), v.W.Data())
		copy(c.B.Data(), v.B.Data())
		return c, nil
	case *basicBlock:
		in := v.Conv1.P.InChannels
		mid := v.MidChannels()
		out := v.Conv2.P.OutChannels
		c := newBasicBlock(v.name, in, mid, out, v.Conv1.P.Stride, rng)
		pairs := [][2]layer{
			{c.Conv1, v.Conv1}, {c.BN1, v.BN1}, {c.Conv2, v.Conv2}, {c.BN2, v.BN2},
		}
		if v.DownConv != nil {
			pairs = append(pairs, [2]layer{c.DownConv, v.DownConv}, [2]layer{c.DownBN, v.DownBN})
		}
		for _, pr := range pairs {
			dp, sp := pr[0].Params(), pr[1].Params()
			for i := range dp {
				copy(dp[i].Data(), sp[i].Data())
			}
			if dbn, ok := pr[0].(*batchNormLayer); ok {
				sbn := pr[1].(*batchNormLayer)
				copy(dbn.State.RunningMean.Data(), sbn.State.RunningMean.Data())
				copy(dbn.State.RunningVar.Data(), sbn.State.RunningVar.Data())
			}
		}
		return c, nil
	default:
		return nil, fmt.Errorf("unsupported layer type %T", l)
	}
}
