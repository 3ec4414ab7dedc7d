package core

import (
	"context"
	"fmt"
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
	return SolveOffloaDNNConfiguredCtx(context.Background(), in, HeuristicConfig{})
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
// benchmark OffloaDNN is compared against in the small-scale scenario.
func SolveOptimal(in *Instance) (*Solution, *OptimalStats, error) {
	return SolveOptimalCtx(context.Background(), in)
}

// SolveOptimalCtx is SolveOptimal with cancellation checked between tree
// layers of the depth-first traversal — essential for bounding the
// exponential search from a caller's deadline. It is the one-worker case
// of SolveOptimalParallelCtx.
func SolveOptimalCtx(ctx context.Context, in *Instance) (*Solution, *OptimalStats, error) {
	return SolveOptimalParallelCtx(ctx, in, 1)
}
