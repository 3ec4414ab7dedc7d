// Package workload builds the DOT problem instances of the paper's
// evaluation (Table IV): the small-scale scenario (T = 1..5 tasks, 3 DNNs
// × 5 paths) used to compare OffloaDNN against the optimum, and the
// large-scale scenario (20 tasks, 125 DNNs × 10 paths, three request-rate
// loads) used against SEM-O-RAN. The per-block costs follow the shape
// measured by the profiler on the real (scaled) ResNet-18 — later stages
// cost more compute and memory, 80% structured pruning cuts compute to
// ~25% and memory to ~20% — calibrated to paper magnitudes (full-path
// inference ≈ 8.5 ms, full DNN deployment ≈ 1.06 GB).
package workload

import (
	"fmt"
	"math"

	"offloadnn/internal/core"
)

// CatalogParams parameterizes DNN-catalog generation.
type CatalogParams struct {
	// NumDNNs is |D|: how many dynamic DNN structures to generate.
	NumDNNs int
	// pathsPerDNN is |Π^d_τ|: candidate paths per DNN per task.
	pathsPerDNN int
	// stageComputeSeconds is the full per-stage inference compute time.
	stageComputeSeconds [4]float64
	// stageMemoryGB is the full per-stage deployed memory.
	stageMemoryGB [4]float64
	// pruneComputeRatio scales compute of 80%-pruned blocks (~0.25).
	pruneComputeRatio float64
	// pruneMemoryRatio scales memory of 80%-pruned blocks (~0.2).
	pruneMemoryRatio float64
	// ftTrainPerStage is the fine-tuning cost of a task-specific stage-s
	// block: ct = ftTrainPerStage·s seconds.
	ftTrainPerStage float64
	// sharedPrunedTrainPerStage is the one-time cost of producing a
	// shared pruned base block: ct = sharedPrunedTrainPerStage·s.
	sharedPrunedTrainPerStage float64
	// baseAccuracy is the accuracy of a fully fine-tuned unpruned path.
	baseAccuracy float64
	// sharedStage4Penalty is the accuracy lost when the final stage is a
	// generic base block rather than task-specific (high-level features
	// do not transfer).
	sharedStage4Penalty float64
	// sharedBasePenalty is the accuracy lost per shared early stage.
	sharedBasePenalty float64
	// prunedFtPenalty is the accuracy lost per pruned task-specific stage.
	prunedFtPenalty float64
	// prunedBasePenalty is the accuracy lost per pruned shared stage.
	prunedBasePenalty float64
	// family optionally namespaces the generated blocks into a second
	// architecture family (e.g., "lite" for a MobileNetV2-class catalog);
	// empty means the default ResNet-18 family.
	family string
	// Precisions lists the kernel-precision tiers every block variant is
	// offered at; empty means float64 only (the seed catalog, unchanged).
	// Non-f64 tiers emit "@f32"/"@i8"-suffixed block and path IDs with
	// compute/memory scaled by the tier's ratios and the tier's accuracy
	// penalty subtracted — quantization as just another priced variant.
	Precisions []PrecisionSpec
	// seed drives the deterministic jitter.
	seed int64
}

// PrecisionSpec prices one kernel-precision tier relative to the f64
// baseline.
type PrecisionSpec struct {
	// name is the tier's suffix spelling: "f64", "f32" or "i8".
	name string
	// computeRatio scales c(s) (f32 ≈ 0.30, i8 ≈ 0.22 on the profiled
	// AVX2 kernels).
	computeRatio float64
	// memoryRatio scales µ(s) (i8 stores 1 byte/param vs the charged 4).
	memoryRatio float64
	// accuracyPenalty is subtracted from the path accuracy for every path
	// deployed at the tier (quantization noise; the install-time gate
	// enforces the real bound).
	accuracyPenalty float64
}

// DefaultPrecisionSpec returns the profiler-calibrated pricing of a tier.
func DefaultPrecisionSpec(name string) PrecisionSpec {
	switch name {
	case "f32":
		return PrecisionSpec{name: "f32", computeRatio: 0.30, memoryRatio: 1, accuracyPenalty: 0.002}
	case "i8":
		return PrecisionSpec{name: "i8", computeRatio: 0.22, memoryRatio: 0.25, accuracyPenalty: 0.01}
	default:
		return PrecisionSpec{name: "f64", computeRatio: 1, memoryRatio: 1}
	}
}

// precisionTiers is the effective tier list (f64 only when unset).
func (p CatalogParams) precisionTiers() []PrecisionSpec {
	if len(p.Precisions) == 0 {
		return []PrecisionSpec{DefaultPrecisionSpec("f64")}
	}
	return p.Precisions
}

// isF64 reports whether a tier is the baseline (emits unsuffixed IDs).
func (ps PrecisionSpec) isF64() bool { return ps.name == "" || ps.name == "f64" }

// SmallCatalogParams returns the 3-DNN × 5-path catalog of the small
// scenario.
func SmallCatalogParams() CatalogParams {
	return CatalogParams{
		NumDNNs:                   3,
		pathsPerDNN:               5,
		stageComputeSeconds:       [4]float64{0.0012, 0.0017, 0.0024, 0.0032},
		stageMemoryGB:             [4]float64{0.10, 0.16, 0.28, 0.52},
		pruneComputeRatio:         0.25,
		pruneMemoryRatio:          0.2,
		ftTrainPerStage:           30,
		sharedPrunedTrainPerStage: 3,
		baseAccuracy:              0.93,
		sharedStage4Penalty:       0.35,
		sharedBasePenalty:         0.01,
		prunedFtPenalty:           0.015,
		prunedBasePenalty:         0.02,
		seed:                      1,
	}
}

// LargeCatalogParams returns the 125-DNN × 10-path catalog of the large
// scenario.
func LargeCatalogParams() CatalogParams {
	p := SmallCatalogParams()
	p.NumDNNs = 125
	p.pathsPerDNN = 10
	p.ftTrainPerStage = 10
	p.seed = 2
	return p
}

// hash64 mixes integers into a deterministic pseudo-random value in [0,1).
func hash64(vals ...int64) float64 {
	var h uint64 = 14695981039346656037
	for _, v := range vals {
		h ^= uint64(v)
		h *= 1099511628211
		h ^= h >> 33
	}
	return float64(h%1_000_000) / 1_000_000
}

// pathShape describes one path's composition.
type pathShape struct {
	sharedPrefix int  // leading stages from the shared base (0..4)
	basePruned   bool // shared stages use the pruned base variant
	ftPruned     bool // task-specific stages use the pruned fine-tuned variant
}

// shapeFor derives the composition of path j on DNN d. The first DNNs
// cover the Table-I-like grid (unpruned, fine-tuned-pruned, all-pruned
// variants across shared-prefix lengths); the remainder fan out over the
// same grid, differing by cost/accuracy jitter.
func shapeFor(d, j, pathsPerDNN int) pathShape {
	prefix := j * 5 / pathsPerDNN // 0..4 across the path index
	return pathShape{
		sharedPrefix: prefix,
		basePruned:   d%3 == 2,
		ftPruned:     d%3 >= 1,
	}
}

// blockIDs of the global catalog. The default family uses the "base"/"ft"
// namespaces; a named family prefixes its own.
func (p CatalogParams) baseBlockID(stage int, pruned bool) string {
	prefix := "base"
	if p.family != "" {
		prefix = p.family + "/base"
	}
	if pruned {
		return fmt.Sprintf("%s/s%d/p80", prefix, stage)
	}
	return fmt.Sprintf("%s/s%d", prefix, stage)
}

func (p CatalogParams) ftBlockID(taskID string, stage int, pruned bool) string {
	prefix := "ft"
	if p.family != "" {
		prefix = p.family + "/ft"
	}
	if pruned {
		return fmt.Sprintf("%s/%s/s%d/p80", prefix, taskID, stage)
	}
	return fmt.Sprintf("%s/%s/s%d", prefix, taskID, stage)
}

// registerBlocks ensures the blocks of a shape exist in the catalog at
// the given precision tier and returns the path's block IDs. A non-f64
// tier registers "@<tier>"-suffixed variants with scaled compute and
// memory; training cost is NOT scaled — the quantized variant shares the
// tier-independent trained weights (post-training quantization).
func (p CatalogParams) registerBlocks(blocks map[string]core.BlockSpec, taskID string, sh pathShape, ps PrecisionSpec) []string {
	ids := make([]string, 0, 4)
	for stage := 1; stage <= 4; stage++ {
		shared := stage <= sh.sharedPrefix
		var id string
		var spec core.BlockSpec
		c := p.stageComputeSeconds[stage-1]
		m := p.stageMemoryGB[stage-1]
		switch {
		case shared && !sh.basePruned:
			id = p.baseBlockID(stage, false)
			spec = core.BlockSpec{ID: id, ComputeSeconds: c, MemoryGB: m}
		case shared && sh.basePruned:
			id = p.baseBlockID(stage, true)
			spec = core.BlockSpec{
				ID:             id,
				ComputeSeconds: c * p.pruneComputeRatio,
				MemoryGB:       m * p.pruneMemoryRatio,
				TrainSeconds:   p.sharedPrunedTrainPerStage * float64(stage),
			}
		case !shared && !sh.ftPruned:
			id = p.ftBlockID(taskID, stage, false)
			spec = core.BlockSpec{
				ID:             id,
				ComputeSeconds: c,
				MemoryGB:       m,
				TrainSeconds:   p.ftTrainPerStage * float64(stage),
			}
		default:
			id = p.ftBlockID(taskID, stage, true)
			spec = core.BlockSpec{
				ID:             id,
				ComputeSeconds: c * p.pruneComputeRatio,
				MemoryGB:       m * p.pruneMemoryRatio,
				TrainSeconds:   p.ftTrainPerStage * float64(stage),
			}
		}
		if !ps.isF64() {
			id += "@" + ps.name
			spec.ID = id
			spec.ComputeSeconds *= ps.computeRatio
			spec.MemoryGB *= ps.memoryRatio
		}
		if _, ok := blocks[id]; !ok {
			blocks[id] = spec
		}
		ids = append(ids, id)
	}
	return ids
}

// accuracy computes the attained accuracy of a shape for a task, with
// deterministic jitter distinguishing the many DNN variants.
func (p CatalogParams) accuracy(taskIdx, d, j int, sh pathShape) float64 {
	acc := p.baseAccuracy
	if sh.sharedPrefix >= 4 {
		acc -= p.sharedStage4Penalty
	}
	early := sh.sharedPrefix
	if early > 3 {
		early = 3
	}
	acc -= p.sharedBasePenalty * float64(early)
	if sh.basePruned {
		acc -= p.prunedBasePenalty * float64(early)
	}
	if sh.ftPruned {
		acc -= p.prunedFtPenalty * float64(4-sh.sharedPrefix)
	}
	// ±1% jitter across (task, DNN, path).
	acc += (hash64(p.seed, int64(taskIdx), int64(d), int64(j)) - 0.5) * 0.02
	return math.Max(0, acc)
}

// BuildPaths generates the candidate paths of one task over the whole DNN
// catalog, registering any new blocks into the shared block map.
func (p CatalogParams) BuildPaths(blocks map[string]core.BlockSpec, taskID string, taskIdx int) []core.PathSpec {
	tiers := p.precisionTiers()
	paths := make([]core.PathSpec, 0, p.NumDNNs*p.pathsPerDNN*len(tiers))
	for d := 0; d < p.NumDNNs; d++ {
		for j := 0; j < p.pathsPerDNN; j++ {
			sh := shapeFor(d, j, p.pathsPerDNN)
			dnnName := fmt.Sprintf("dnn-%d", d)
			if p.family != "" {
				dnnName = fmt.Sprintf("%s-dnn-%d", p.family, d)
			}
			for _, ps := range tiers {
				ids := p.registerBlocks(blocks, taskID, sh, ps)
				pathID := fmt.Sprintf("d%d/π%d", d, j)
				acc := p.accuracy(taskIdx, d, j, sh)
				if !ps.isF64() {
					pathID += "@" + ps.name
					acc = math.Max(0, acc-ps.accuracyPenalty)
				}
				paths = append(paths, core.PathSpec{
					ID:       pathID,
					DNN:      dnnName,
					Blocks:   ids,
					Accuracy: acc,
				})
			}
		}
	}
	return paths
}
