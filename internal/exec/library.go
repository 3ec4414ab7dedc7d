package exec

import (
	"fmt"
	"strconv"
	"strings"

	"offloadnn/internal/dnn"
	"offloadnn/internal/tensor"
)

// calibSeed fixes the calibration/gate batch across processes so gate
// verdicts are reproducible for a given catalog and weight set.
const calibSeed = 20240131

// calibBatch is the batch size of the deterministic calibration/gate
// input.
const calibBatch = 8

// quantGate bounds the top-1 disagreement (fraction of the gate batch) a
// reduced-precision path may show against its float64 twin at install
// time before it is demoted one precision tier.
const quantGate = 0.02

// blockInstance is one live shared block: the unit of the refcount that
// operationalizes constraint (1b) — however many deployed paths (and
// tasks, and epochs) reference a block ID, exactly one instance exists.
type blockInstance struct {
	block *dnn.Block
	stage int // 0 stem, 1..4 stages, 5 classifier
	refs  int // models currently aliasing the instance
}

// pruneRatioOf parses the structured-pruning convention of catalog block
// IDs: a "/pNN" suffix means NN% of internal channels removed.
func pruneRatioOf(id string) float64 {
	i := strings.LastIndex(id, "/p")
	if i < 0 {
		return 0
	}
	n, err := strconv.Atoi(id[i+2:])
	if err != nil || n <= 0 || n >= 100 {
		return 0
	}
	return float64(n) / 100
}

// seedOf decorrelates the initialization of distinct block IDs sharing a
// stage (FNV-1a over the ID).
func seedOf(id string) int64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	return int64(h)
}

// instantiate returns the live instance for a library key, building it
// on first reference. build runs with mu held (instantiation is part of
// the epoch swap, not the request path). The returned instance has its
// refcount untouched — retain/release manage it.
func (r *Real) instantiate(key string, stage int, build func() (*dnn.Block, error)) (*blockInstance, error) {
	if inst, ok := r.lib[key]; ok {
		if inst.stage != stage {
			return nil, fmt.Errorf("exec: block %q used at stage %d and %d", key, inst.stage, stage)
		}
		return inst, nil
	}
	b, err := build()
	if err != nil {
		return nil, err
	}
	inst := &blockInstance{block: b, stage: stage}
	r.lib[key] = inst
	return inst, nil
}

// stageBlock builds one catalog block as a template stage. The precision
// suffix ("@f32"/"@i8") is stripped before resolving seed and prune
// ratio, so precision variants of a block share the base block's
// weights; the precision is then instantiated on the finished block.
func (r *Real) stageBlock(id string, stage int) (*dnn.Block, error) {
	base, prec, err := dnn.BlockIDPrecision(id)
	if err != nil {
		return nil, fmt.Errorf("exec: block %q: %w", id, err)
	}
	b, err := dnn.BuildStageBlock(r.cfg.Model, id, stage, pruneRatioOf(base), seedOf(base))
	if err != nil {
		return nil, fmt.Errorf("exec: block %q: %w", id, err)
	}
	if prec != tensor.F64 {
		if err := b.SetPrecision(prec); err != nil {
			return nil, fmt.Errorf("exec: block %q: %w", id, err)
		}
	}
	return b, nil
}

// pathPrecisionOf is the precision variant a path's block IDs select
// (catalog paths are precision-uniform, so the first suffixed block
// decides).
func pathPrecisionOf(blockIDs []string) tensor.Precision {
	for _, id := range blockIDs {
		if _, p, err := dnn.BlockIDPrecision(id); err == nil && p != tensor.F64 {
			return p
		}
	}
	return tensor.F64
}

// twinModel assembles the float64 twin of a path — the same base block
// IDs resolve to the same seeds, so the twin is the accuracy reference
// the gate compares against. Twin instances go
// through the regular library (a base block also deployed at f64 is
// shared, not duplicated) and enter it unreferenced; pruneUnreferenced
// at the end of Install drops the ones no deployed path retains. mu held.
func (r *Real) twinModel(blockIDs []string) (*dnn.Model, error) {
	stem, err := r.instantiate("stem", 0, func() (*dnn.Block, error) {
		return dnn.BuildStemBlock(r.cfg.Model), nil
	})
	if err != nil {
		return nil, err
	}
	stages := make([]*dnn.Block, 0, len(blockIDs))
	for i, id := range blockIDs {
		base, _, err := dnn.BlockIDPrecision(id)
		if err != nil {
			return nil, err
		}
		stage := min(i+1, 4)
		inst, err := r.instantiate(base, stage, func() (*dnn.Block, error) {
			return r.stageBlock(base, stage)
		})
		if err != nil {
			return nil, err
		}
		stages = append(stages, inst.block)
	}
	featureDim := dnn.StageWidth(r.cfg.Model, len(blockIDs))
	cls, err := r.instantiate("classifier/"+strconv.Itoa(featureDim), 5, func() (*dnn.Block, error) {
		return dnn.BuildClassifierBlock(r.cfg.Model, featureDim), nil
	})
	if err != nil {
		return nil, err
	}
	return dnn.AssemblePathModel("twin", stem.block, stages, cls.block)
}

// gate enforces the calibration accuracy gate on a newly built
// reduced-precision path: the model's activation scales are calibrated
// on a deterministic batch, then its top-1 agreement with the float64
// twin is measured on the same batch. Disagreement above quantGate
// demotes every block of the path one precision tier (i8→f32→f64) and
// rechecks; float64 always passes. Demotion is per-block state, so other
// installed paths sharing a demoted block run the safer kernels too. The
// precision the path ends at is returned. mu held.
func (r *Real) gate(path *dnn.Model, blockIDs []string, prec tensor.Precision) (tensor.Precision, error) {
	sig := pathSignature(blockIDs)
	twin, err := r.twinModel(blockIDs)
	if err != nil {
		return prec, fmt.Errorf("gate %s: %w", sig, err)
	}
	x := dnn.CalibrationBatch(calibBatch, r.cfg.Input[0], r.cfg.Input[1], r.cfg.Input[2], calibSeed)
	if err := dnn.Calibrate(path, x); err != nil {
		return prec, fmt.Errorf("gate %s: calibrate: %w", sig, err)
	}
	for {
		delta, err := dnn.Top1Delta(path, twin, x)
		if err != nil {
			return prec, fmt.Errorf("gate %s: %w", sig, err)
		}
		if delta <= quantGate {
			if r.cfg.Logf != nil {
				r.cfg.Logf("exec: gate: path %s passes at %s (top-1 delta %.3f)", sig, prec, delta)
			}
			return prec, nil
		}
		next := tensor.F32
		if prec == tensor.F32 {
			next = tensor.F64
		}
		if r.cfg.Logf != nil {
			r.cfg.Logf("exec: gate: path %s top-1 delta %.3f > %.3f at %s, falling back to %s",
				sig, delta, quantGate, prec, next)
		}
		if err := path.SetPrecision(next); err != nil {
			return prec, fmt.Errorf("gate %s: demote: %w", sig, err)
		}
		prec = next
		r.quantFallbacks.Add(1)
		if next == tensor.F64 {
			return prec, nil
		}
	}
}

// pruneUnreferenced drops zero-ref library instances (including ones
// speculatively built by a failed Install). mu held.
func (r *Real) pruneUnreferenced() {
	for k, inst := range r.lib {
		if inst.refs <= 0 {
			delete(r.lib, k)
		}
	}
}
