package dnn

import (
	"fmt"
	"math/rand"

	"offloadnn/internal/tensor"
)

// TableIConfig is one row of the paper's Table I: a DNN block-training
// configuration for adapting a pre-trained ResNet-18 to a new task.
type TableIConfig struct {
	// Name is the paper's identifier: "A".."E" or "A-pruned".."E-pruned".
	Name string
	// SharedStages is how many leading residual stages are shared (and
	// frozen) from the base DNN: 4 for CONFIG B, 3 for C, 2 for D, 1 for
	// E, 0 for A (trained from scratch).
	SharedStages int
	// FromScratch marks CONFIG A: no weights inherited from the base.
	FromScratch bool
	// PruneRatio prunes the fine-tuned (non-shared) stages after
	// fine-tuning; 0 means unpruned.
	PruneRatio float64
	// Description is the paper's Table-I text.
	Description string
}

// TableI returns the ten configurations of the paper's Table I in order
// (A–E, then A-pruned–E-pruned). The pruned variants use the paper's 80%
// ratio.
func TableI() []TableIConfig {
	base := []TableIConfig{
		{Name: "A", SharedStages: 0, FromScratch: true,
			Description: "Entire DNN structure trained from scratch"},
		{Name: "B", SharedStages: 4,
			Description: "First 4 layer-blocks shared from the base DNN"},
		{Name: "C", SharedStages: 3,
			Description: "First 3 layer-blocks shared. Last layer-block + classifier layers fine-tuned"},
		{Name: "D", SharedStages: 2,
			Description: "First 2 layer-blocks shared. Last 2 layer-blocks + classifier layers fine-tuned"},
		{Name: "E", SharedStages: 1,
			Description: "First 1 layer-blocks shared. Last 3 layer-blocks + classifier layers fine-tuned"},
	}
	out := make([]TableIConfig, 0, 2*len(base))
	out = append(out, base...)
	for _, c := range base {
		p := c
		p.Name = c.Name + "-pruned"
		p.PruneRatio = 0.8
		if c.FromScratch {
			p.Description = "CONFIG A DNN architecture with pruning ratio 80%"
		} else {
			p.Description = fmt.Sprintf("CONFIG %s + Fine-tuned layer-blocks are pruned with ratio of 80%%", c.Name)
		}
		out = append(out, p)
	}
	return out
}

// ConfigByName looks up a Table-I configuration.
func ConfigByName(name string) (TableIConfig, error) {
	for _, c := range TableI() {
		if c.Name == name {
			return c, nil
		}
	}
	return TableIConfig{}, fmt.Errorf("dnn: unknown Table-I config %q", name)
}

// BuildConfigModel assembles a task model for the given configuration from
// a pre-trained base model:
//
//   - shared stages reuse the base *Block pointers and are frozen, so they
//     consume no additional deployed memory and no optimizer state;
//   - fine-tuned stages are deep clones of the base blocks (they start at
//     base weights and evolve independently);
//   - CONFIG A instead initializes every stage from scratch;
//   - the classifier is always fresh, sized for numClasses.
//
// taskTag distinguishes the fine-tuned block identities across tasks.
// Pruning is applied separately (after fine-tuning) via ApplyConfigPruning,
// matching the paper's fine-tune-then-prune pipeline.
func BuildConfigModel(base *Model, cfg TableIConfig, taskTag string, numClasses int, seed int64) (*Model, error) {
	rng := rand.New(rand.NewSource(seed))
	stem := base.blockByStage(0)
	classifierTmpl := base.blockByStage(5)
	if stem == nil || classifierTmpl == nil {
		return nil, fmt.Errorf("dnn: base model lacks stem or classifier")
	}

	var blocks []*Block
	if cfg.FromScratch {
		fresh, err := freshLike(stem, fmt.Sprintf("%s/stem+scratch-%s", base.arch, taskTag), rng)
		if err != nil {
			return nil, err
		}
		blocks = append(blocks, fresh)
	} else {
		stem.Frozen = true
		blocks = append(blocks, stem)
	}

	for stage := 1; stage <= 4; stage++ {
		src := base.blockByStage(stage)
		if src == nil {
			return nil, fmt.Errorf("dnn: base model lacks stage %d", stage)
		}
		switch {
		case cfg.FromScratch:
			fresh, err := freshLike(src, fmt.Sprintf("%s+scratch-%s", src.ID, taskTag), rng)
			if err != nil {
				return nil, err
			}
			blocks = append(blocks, fresh)
		case stage <= cfg.SharedStages:
			src.Frozen = true
			blocks = append(blocks, src)
		default:
			clone, err := cloneBlock(src, fmt.Sprintf("%s+ft-%s", src.ID, taskTag), rng)
			if err != nil {
				return nil, err
			}
			blocks = append(blocks, clone)
		}
	}

	head, err := classifierHeadLike(classifierTmpl, taskTag, numClasses, rng)
	if err != nil {
		return nil, err
	}
	blocks = append(blocks, head)
	return &Model{arch: base.arch, Blocks: blocks}, nil
}

// ApplyConfigPruning prunes the non-shared residual stages of a config
// model by cfg.PruneRatio, returning a new model that aliases the shared
// (unpruned) blocks. It is a no-op returning the input when the config is
// unpruned.
func ApplyConfigPruning(m *Model, cfg TableIConfig, seed int64) (*Model, error) {
	if cfg.PruneRatio <= 0 {
		return m, nil
	}
	rng := rand.New(rand.NewSource(seed))
	blocks := make([]*Block, 0, len(m.Blocks))
	for _, b := range m.Blocks {
		prune := b.Stage >= 1 && b.Stage <= 4 &&
			(cfg.FromScratch || b.Stage > cfg.SharedStages)
		if !prune {
			blocks = append(blocks, b)
			continue
		}
		p, err := pruneBlock(b, cfg.PruneRatio, rng)
		if err != nil {
			return nil, fmt.Errorf("dnn: apply config %s pruning: %w", cfg.Name, err)
		}
		p.Frozen = b.Frozen
		blocks = append(blocks, p)
	}
	return &Model{arch: m.arch, Blocks: blocks}, nil
}

// freshLike builds a newly initialized block with src's structure.
func freshLike(src *Block, newID string, rng *rand.Rand) (*Block, error) {
	c, err := cloneBlock(src, newID, rng)
	if err != nil {
		return nil, err
	}
	// Re-randomize: cloneBlock copies weights, scratch training must not
	// inherit them.
	reinitBlock(c, rng)
	c.variant = variantFineTuned
	return c, nil
}

func reinitBlock(b *Block, rng *rand.Rand) {
	for _, l := range b.layers {
		reinitLayer(l, rng)
	}
}

func reinitLayer(l layer, rng *rand.Rand) {
	switch v := l.(type) {
	case *convLayer:
		tensor.KaimingInit(v.W, v.P.InChannels*v.P.Kernel*v.P.Kernel, rng)
		if v.B != nil {
			v.B.Zero()
		}
	case *linearLayer:
		tensor.XavierInit(v.W, v.W.Dim(1), v.W.Dim(0), rng)
		v.B.Zero()
	case *batchNormLayer:
		v.State.Gamma.Fill(1)
		v.State.Beta.Zero()
		v.State.RunningMean.Zero()
		v.State.RunningVar.Fill(1)
	case *basicBlock:
		reinitLayer(v.Conv1, rng)
		reinitLayer(v.Conv2, rng)
		reinitLayer(v.BN1, rng)
		reinitLayer(v.BN2, rng)
		if v.DownConv != nil {
			reinitLayer(v.DownConv, rng)
			reinitLayer(v.DownBN, rng)
		}
	}
}

// classifierHeadLike builds a fresh classifier block with the template's
// feature width but a new class count.
func classifierHeadLike(tmpl *Block, taskTag string, numClasses int, rng *rand.Rand) (*Block, error) {
	var featureDim int
	for _, l := range tmpl.layers {
		if lin, ok := l.(*linearLayer); ok {
			featureDim = lin.W.Dim(1)
		}
	}
	if featureDim == 0 {
		return nil, fmt.Errorf("dnn: classifier template %s has no linear layer", tmpl.ID)
	}
	return newBlock(fmt.Sprintf("%s+head-%s", tmpl.ID, taskTag), 5, variantFineTuned,
		newGlobalAvgPoolLayer("head.gap"),
		newLinearLayer("head.fc", featureDim, numClasses, rng),
	), nil
}
