package dnn

import (
	"fmt"
	"math/rand"

	"offloadnn/internal/tensor"
)

// Path→model assembly: the execution backend deploys a solver path — an
// ordered list of catalog block IDs — as a runnable model. Each catalog
// block maps to one residual stage of the scaled ResNet-18 template; the
// stem and the classifier are implicit (they bound every path) and are
// shared across all assembled models. The per-stage builders below are
// the factored-out pieces of BuildResNet18, so a template block built in
// isolation is structurally identical to the corresponding block of the
// monolithic builder.

// StageWidth returns the output channel count of a template stage
// (1..4); stages beyond 4 saturate at the stage-4 width, so over-long
// paths still chain.
func StageWidth(cfg ResNetConfig, stage int) int {
	if stage < 1 {
		return cfg.BaseWidth
	}
	if stage > 4 {
		stage = 4
	}
	return cfg.BaseWidth << (stage - 1)
}

// BuildStemBlock constructs the shared input stem of the template.
func BuildStemBlock(cfg ResNetConfig) *Block {
	rng := rand.New(rand.NewSource(cfg.Seed))
	w := cfg.BaseWidth
	return newBlock("stem", 0, variantBase,
		newConvLayer("stem.conv", tensor.Conv2DParams{
			InChannels: cfg.InChannels, OutChannels: w, Kernel: 3, Stride: 1, Padding: 1,
		}, false, rng),
		newBatchNormLayer("stem.bn", w),
		newReLULayer("stem.relu"),
		newMaxPoolLayer("stem.pool", tensor.PoolParams{Kernel: 2, Stride: 2}),
	)
}

// BuildStageBlock constructs one residual stage of the template as a
// standalone block named id. stage is 1-based; pruneRatio shrinks the
// internal width of the stage's units (structured pruning, interface
// unchanged). seed decorrelates the initialization of distinct blocks
// occupying the same stage (e.g. per-task fine-tuned variants).
func BuildStageBlock(cfg ResNetConfig, id string, stage int, pruneRatio float64, seed int64) (*Block, error) {
	if stage < 1 {
		return nil, fmt.Errorf("dnn: stage %d outside 1..n", stage)
	}
	rng := rand.New(rand.NewSource(cfg.Seed ^ seed))
	in := StageWidth(cfg, stage-1)
	out := StageWidth(cfg, stage)
	mid := prunedWidth(out, pruneRatio)
	stride := 1
	if stage > 1 {
		stride = 2
	}
	units := cfg.StageBlocks[min(stage, 4)-1]
	var layers []layer
	for unit := 0; unit < units; unit++ {
		s := 1
		if unit == 0 {
			s = stride
		}
		name := fmt.Sprintf("%s.unit%d", id, unit+1)
		layers = append(layers, newBasicBlock(name, in, mid, out, s, rng))
		in = out
	}
	variant := variantBase
	if pruneRatio > 0 {
		variant = variantPruned
	}
	blk := newBlock(id, min(stage, 4), variant, layers...)
	blk.pruneRatio = pruneRatio
	return blk, nil
}

// BuildClassifierBlock constructs a classifier head over featureDim
// channels — the output width of a path's final stage.
func BuildClassifierBlock(cfg ResNetConfig, featureDim int) *Block {
	rng := rand.New(rand.NewSource(cfg.Seed + int64(featureDim)))
	return newBlock(fmt.Sprintf("classifier/%d", featureDim), 5, variantBase,
		newGlobalAvgPoolLayer("head.gap"),
		newLinearLayer("head.fc", featureDim, cfg.NumClasses, rng),
	)
}

// AssemblePathModel composes a runnable model from pre-instantiated
// blocks: the shared stem, the path's stage blocks in execution order,
// and the shared classifier. The blocks are aliased, not copied — models
// assembled for different paths that name the same block share one
// in-memory instance, which is the memory sharing constraint (1b)
// charges for once.
func AssemblePathModel(arch string, stem *Block, stages []*Block, classifier *Block) (*Model, error) {
	if stem == nil || classifier == nil {
		return nil, fmt.Errorf("dnn: assemble %s: nil stem or classifier", arch)
	}
	if len(stages) == 0 {
		return nil, fmt.Errorf("dnn: assemble %s: empty path", arch)
	}
	blocks := make([]*Block, 0, len(stages)+2)
	blocks = append(blocks, stem)
	blocks = append(blocks, stages...)
	blocks = append(blocks, classifier)
	return &Model{arch: arch, Blocks: blocks}, nil
}
