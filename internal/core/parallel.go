package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"offloadnn/internal/tensor"
)

// fanOut runs job(0) … job(n-1) on at most workers goroutines (≤ 0: the
// tensor pool's Parallelism()), each taking the next index until none is
// left, and returns when all are done; with one worker the jobs run in
// order on the caller's goroutine. Plain goroutines, not the tensor pool:
// the pool never queues, so a job as long as a subtree search would hold
// its workers away from kernels, and get none while kernels hold them.
func fanOut(n, workers int, job func(i int)) {
	if workers <= 0 {
		workers = tensor.Parallelism()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			job(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				job(i)
			}
		}()
	}
	wg.Wait()
}

// SolveOptimalParallelCtx is the exhaustive search with the first tree
// layer fanned out across a bounded worker pool: each worker exhausts the
// subtree under one first-layer vertex with its own branch state and
// writes the result into that vertex's slot, and the slots are merged in
// vertex order with a strict less-than. Among equal-cost leaves the
// left-most in depth-first order therefore wins at every worker count —
// the answer never depends on which subtree finishes first — and one
// worker is the sequential solver. Wall-clock improves roughly with
// min(workers, first-clique size). Cancellation is checked between layers
// within each subtree.
//
// workers ≤ 0 selects the tensor pool's Parallelism().
func SolveOptimalParallelCtx(ctx context.Context, in *Instance, workers int) (*Solution, *OptimalStats, error) {
	start := time.Now()
	tree, err := buildTreeCtx(ctx, in)
	if err != nil {
		return nil, nil, err
	}
	first := tree.Layers[0].Vertices
	results := make([]subtreeResult, len(first))
	fanOut(len(first), workers, func(i int) {
		results[i] = exploreSubtree(ctx, in, tree, first[i])
	})

	stats := &OptimalStats{}
	var best *Solution
	for _, r := range results {
		if r.err != nil {
			return nil, nil, r.err
		}
		stats.BranchesExplored += r.explored
		stats.BranchesPruned += r.pruned
		if r.best != nil && (best == nil || r.best.Cost < best.Cost) {
			best = r.best
		}
	}
	if best == nil {
		return nil, nil, fmt.Errorf("%w: no feasible branch", ErrNoFeasiblePath)
	}
	best.Runtime = time.Since(start)
	best.Tier = TierOptimal
	best.Stats = stats
	return best, stats, nil
}

// subtreeResult is what exhausting one first-layer vertex's subtree
// yields: its least-cost leaf (nil when every branch was pruned) and the
// work done.
type subtreeResult struct {
	best     *Solution
	explored int
	pruned   int
	err      error
}

// exploreSubtree exhausts the subtree rooted at first-layer vertex v with
// a private branch state: depth-first, pruning subtrees that exceed the
// memory budget and solving the per-branch allocation at every leaf. It
// is the only depth-first search body.
func exploreSubtree(ctx context.Context, in *Instance, tree *Tree, v Vertex) (out subtreeResult) {
	state := newBranchState(in)
	if mem := state.push(v); mem > in.Res.MemoryGB+1e-12 {
		out.pruned++
		return out
	}
	chosen := make([]Vertex, len(tree.Layers))
	chosen[0] = v

	var dfs func(layer int) error
	dfs = func(layer int) error {
		if err := ctxErr(ctx); err != nil {
			return err
		}
		if layer == len(tree.Layers) {
			out.explored++
			assignments, err := tree.assignmentsFor(chosen)
			if err != nil {
				return err
			}
			if err := in.OptimizeAllocation(assignments); err != nil {
				return err
			}
			bd, err := in.Evaluate(assignments)
			if err != nil {
				return err
			}
			if c := bd.CostValue(); out.best == nil || c < out.best.Cost {
				out.best = &Solution{Assignments: assignments, Cost: c, Breakdown: bd}
			}
			return nil
		}
		for _, u := range tree.Layers[layer].Vertices {
			mem := state.push(u)
			if mem > in.Res.MemoryGB+1e-12 {
				out.pruned++
				state.pop()
				continue
			}
			chosen[layer] = u
			if err := dfs(layer + 1); err != nil {
				return err
			}
			state.pop()
		}
		return nil
	}
	out.err = dfs(1)
	return out
}
