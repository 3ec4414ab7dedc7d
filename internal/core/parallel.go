package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"
)

// SolveOptimalParallelCtx is SolveOptimalCtx with the first tree layer
// fanned out across a bounded worker pool: each worker exhausts the
// subtree under one first-layer vertex with its own branch state, and the
// least-cost leaf wins. Results are identical to the sequential solver
// (the search is exhaustive either way); wall-clock improves roughly with
// min(workers, first-clique size). Cancellation is checked between
// first-layer branches (each worker stops picking up new subtrees once
// ctx is done) and between layers within each subtree.
//
// workers ≤ 0 selects runtime.NumCPU().
func SolveOptimalParallelCtx(ctx context.Context, in *Instance, workers int) (*Solution, *OptimalStats, error) {
	start := time.Now()
	tree, err := buildTreeCtx(ctx, in)
	if err != nil {
		return nil, nil, err
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	first := tree.Layers[0].Vertices

	type result struct {
		best     *Solution
		explored int
		pruned   int
		err      error
	}
	jobs := make(chan Vertex)
	results := make([]result, 0, len(first))

	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := range jobs {
				if err := ctxErr(ctx); err != nil {
					mu.Lock()
					results = append(results, result{err: err})
					mu.Unlock()
					continue // drain remaining jobs without exploring
				}
				r := exploreSubtree(ctx, in, tree, v)
				mu.Lock()
				results = append(results, r)
				mu.Unlock()
			}
		}()
	}
	for _, v := range first {
		jobs <- v
	}
	close(jobs)
	wg.Wait()

	stats := &OptimalStats{}
	var best *Solution
	bestCost := math.Inf(1)
	for _, r := range results {
		if r.err != nil {
			return nil, nil, r.err
		}
		stats.BranchesExplored += r.explored
		stats.BranchesPruned += r.pruned
		if r.best != nil && r.best.Cost < bestCost {
			bestCost = r.best.Cost
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

// exploreSubtree exhausts the subtree rooted at first-layer vertex v with
// a private branch state.
func exploreSubtree(ctx context.Context, in *Instance, tree *Tree, v Vertex) (out struct {
	best     *Solution
	explored int
	pruned   int
	err      error
}) {
	state := newBranchState(in)
	if mem := state.push(v); mem > in.Res.MemoryGB+1e-12 {
		out.pruned++
		return out
	}
	chosen := make([]Vertex, len(tree.Layers))
	chosen[0] = v
	bestCost := math.Inf(1)

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
			if c := bd.CostValue(); c < bestCost {
				bestCost = c
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
