package exec

import "offloadnn/internal/dnn"

// ErrNoModel lets the external tests match a dropped task's answer.
var ErrNoModel = errNoModel

// InputShape returns the per-request input shape (C, H, W).
func (r *Real) InputShape() []int {
	return []int{r.cfg.Input[0], r.cfg.Input[1], r.cfg.Input[2]}
}

// BlockRefs snapshots the shared-block refcounts (library key → number
// of live models aliasing the instance) — the assertion surface for the
// instantiated-exactly-once property.
func (r *Real) BlockRefs() map[string]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int, len(r.lib))
	for k, inst := range r.lib {
		out[k] = inst.refs
	}
	return out
}

// SharedBlock returns the live instance for a library key (nil when the
// block is not deployed) — lets tests assert pointer identity across
// tasks and epochs.
func (r *Real) SharedBlock(key string) *dnn.Block {
	r.mu.Lock()
	defer r.mu.Unlock()
	if inst, ok := r.lib[key]; ok {
		return inst.block
	}
	return nil
}
