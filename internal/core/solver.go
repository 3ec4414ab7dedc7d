package core

import (
	"context"
	"fmt"
	"time"
)

// ctxErr surfaces a context cancellation as a wrapped error, so callers
// can test it with errors.Is(err, context.Canceled/DeadlineExceeded).
func ctxErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: solve canceled: %w", err)
	}
	return nil
}

// SolveOffloaDNN runs the polynomial-time OffloaDNN heuristic (Sec. IV):
// build the weighted tree (cliques sorted by ascending inference compute
// time), take the first branch — at every layer, the left-most vertex
// whose blocks fit the remaining memory budget, falling back to rejection
// when none does — and solve the per-branch convex allocation in (z, r).
func SolveOffloaDNN(in *Instance) (*Solution, error) {
	return solveOffloaDNNConfiguredCtx(context.Background(), in, HeuristicConfig{})
}

// OptimalStats reports the work done by the exhaustive solver.
type OptimalStats struct {
	// BranchesExplored counts complete branches whose allocation problem
	// was solved.
	BranchesExplored int
	// BranchesPruned counts subtrees cut by the memory bound.
	BranchesPruned int
}

// SolveOptimal exhaustively traverses every branch of the weighted tree
// (depth-first, pruning subtrees that exceed the memory budget), solves
// the per-branch allocation for each leaf, and returns the least-cost
// solution. Complexity is exponential in the number of tasks — it is the
// benchmark OffloaDNN is compared against in the small-scale scenario —
// so ctx is checked between tree layers of the traversal. A leaf
// replaces the incumbent only on a strictly lower cost, so among
// equal-cost leaves the left-most in depth-first order wins.
func SolveOptimal(ctx context.Context, in *Instance) (*Solution, *OptimalStats, error) {
	start := time.Now()
	tree, err := buildTreeCtx(ctx, in)
	if err != nil {
		return nil, nil, err
	}
	stats := &OptimalStats{}
	var best *Solution
	state := newBranchState(in)
	chosen := make([]Vertex, len(tree.Layers))

	var dfs func(layer int) error
	dfs = func(layer int) error {
		if err := ctxErr(ctx); err != nil {
			return err
		}
		if layer == len(tree.Layers) {
			stats.BranchesExplored++
			assignments, err := tree.assignmentsFor(chosen)
			if err != nil {
				return err
			}
			if err := in.OptimizeAllocation(assignments); err != nil {
				return err
			}
			bd, err := in.evaluate(assignments)
			if err != nil {
				return err
			}
			if c := bd.costValue(); best == nil || c < best.Cost {
				best = &Solution{Assignments: assignments, Cost: c, Breakdown: bd}
			}
			return nil
		}
		for _, u := range tree.Layers[layer].Vertices {
			mem := state.push(u)
			if mem > in.Res.MemoryGB+1e-12 {
				stats.BranchesPruned++
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
	if err := dfs(0); err != nil {
		return nil, nil, err
	}
	if best == nil {
		return nil, nil, fmt.Errorf("%w: no feasible branch", ErrNoFeasiblePath)
	}
	best.Runtime = time.Since(start)
	best.Tier = tierOptimal
	best.stats = stats
	return best, stats, nil
}
