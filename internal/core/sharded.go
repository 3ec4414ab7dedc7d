package core

import (
	"context"
	"fmt"
	"time"
)

// bandSpan is one contiguous priority band of the sharded solve: task
// order positions [lo, hi) of the descending-priority order.
type bandSpan struct{ lo, hi int }

// shardBands splits n priority-ordered tasks into at most shards
// contiguous bands of equal width (the last band may be short). The
// split depends only on (n, shards), so a sharded solve is a pure
// function of the instance and the shard count — never of scheduling.
func shardBands(n, shards int) []bandSpan {
	if shards > n {
		shards = n
	}
	if shards < 1 {
		shards = 1
	}
	chunk := (n + shards - 1) / shards
	bands := make([]bandSpan, 0, shards)
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		bands = append(bands, bandSpan{lo, hi})
	}
	return bands
}

// shardResources is one band's slice of the pool: radio blocks are
// integer-split with the remainder spread over the first (highest
// priority) bands, compute and memory are divided evenly, the training
// budget Ct is kept whole (it normalizes the objective, it is not a
// partitionable capacity), and Norm pins every band's objective to the
// full pool's prices — the PartitionResources idiom of the cluster
// layer, so a band solving 1/S of the pool still prices an RB or a
// compute-second exactly as the unsharded objective would. An existing
// Norm (a cluster node solving a fleet share) is preserved: prices
// already reference the widest pool.
func shardResources(res Resources, shards int) []Resources {
	norm := &Resources{
		RBs:                res.PriceRBs(),
		ComputeSeconds:     res.PriceComputeSeconds(),
		TrainBudgetSeconds: res.PriceTrainBudgetSeconds(),
	}
	out := make([]Resources, shards)
	base, extra := res.RBs/shards, res.RBs%shards
	for i := range out {
		out[i] = res
		out[i].RBs = base
		if i < extra {
			out[i].RBs++
		}
		out[i].ComputeSeconds = res.ComputeSeconds / float64(shards)
		out[i].MemoryGB = res.MemoryGB / float64(shards)
		out[i].Norm = norm
	}
	return out
}

// solveShardedCtx runs the OffloaDNN heuristic sharded by priority band:
// tasks are split (in descending priority order) into contiguous bands,
// each band becomes an independent DOT instance over its slice of the
// resource pool (shardResources), and the bands are solved concurrently.
// The per-band solve is the unmodified first-branch heuristic — same
// tree construction, same per-branch (z, r) allocator. The win was
// asymptotic while the allocator's z-step was a dense LP, ~cubic in the
// instance size; with the two-row z-step a serial 10k-task solve takes
// as long as 79 bands and admits more (see shardBandTasks), so what the
// bands still buy is only the fan-out over workers. Keeping them is an
// open ROADMAP decision.
//
// The merged solution is feasible on the full instance by construction:
// band budgets sum to the pool (memory conservatively — a block shared
// across bands is charged in each, but counted once globally), and
// per-task constraints are local. It is also bitwise-deterministic in
// the worker count: every band's sub-instance depends only on
// (instance, shard count), bands are solved independently, and the
// merge is by band order.
func solveShardedCtx(ctx context.Context, in *Instance, shards, workers int, cfg HeuristicConfig) (*Solution, error) {
	start := time.Now()
	if err := in.Validate(); err != nil {
		return nil, err
	}
	order := priorityOrder(in)
	bands := shardBands(len(order), shards)
	if len(bands) <= 1 {
		return SolveOffloaDNNConfiguredCtx(ctx, in, cfg)
	}
	res := shardResources(in.Res, len(bands))

	shardIns := make([]*Instance, len(bands))
	for s, b := range bands {
		tasks := make([]Task, 0, b.hi-b.lo)
		for _, ti := range order[b.lo:b.hi] {
			// Task values are copied but their Paths backing arrays are
			// shared, so the band solution's *PathSpec pointers remain
			// valid on the full instance after the merge.
			tasks = append(tasks, in.Tasks[ti])
		}
		shardIns[s] = &Instance{
			Tasks:       tasks,
			Blocks:      in.Blocks,
			Res:         res[s],
			Alpha:       in.Alpha,
			Predeployed: in.Predeployed,
		}
	}

	sols := make([]*Solution, len(bands))
	errs := make([]error, len(bands))
	fanOut(len(bands), workers, func(s int) {
		sols[s], errs[s] = SolveOffloaDNNConfiguredCtx(ctx, shardIns[s], cfg)
	})
	for s, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: priority band %d/%d: %w", s, len(bands), err)
		}
	}

	merged := make([]Assignment, len(in.Tasks)) // the bands cover every task
	for s, b := range bands {
		for j, ti := range order[b.lo:b.hi] {
			merged[ti] = sols[s].Assignments[j]
		}
	}
	sol, err := in.newSolution(merged, time.Since(start))
	if err != nil {
		return nil, err
	}
	sol.Tier = TierHeuristic
	sol.Shards = len(bands)
	return sol, nil
}
