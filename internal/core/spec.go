package core

import (
	"context"
	"fmt"
)

// Tier identifies one of the solver tiers behind the unified Solve API.
type Tier int

// Solver tiers.
const (
	// tierAuto lets the dispatcher pick. SolveSpec resolves it to the
	// exact heuristic at every size; the serve resolver and the cluster
	// placement, which re-plan on every change, apply a size rule of
	// their own on top.
	tierAuto Tier = iota
	// TierHeuristic is the polynomial-time OffloaDNN first-branch
	// heuristic (Sec. IV): one tree walk, one (z, r) allocation.
	TierHeuristic
	// tierOptimal is the exhaustive weighted-tree search — exponential in
	// the task count, the paper's small-scale benchmark.
	tierOptimal
	// TierApprox is the approximate admission tier: score-based path
	// ranking with greedy budget packing. One shortlist scoring pass and
	// one greedy pass, no (z, r) alternation and no session to build. The
	// exact heuristic admits more at every size; epochs from 512 tasks run
	// on this tier (serve's defaultApproxAfter) because the cold 10k-task
	// epoch is ≈ 0.25 s cheaper on it, and bench/control.go's
	// core.approx_admission_ratio probe names it.
	TierApprox
)

// String implements fmt.Stringer.
func (t Tier) String() string {
	switch t {
	case tierAuto:
		return "auto"
	case TierHeuristic:
		return "heuristic"
	case tierOptimal:
		return "optimal"
	case TierApprox:
		return "approx"
	default:
		return fmt.Sprintf("tier(%d)", int(t))
	}
}

// SolverSpec selects a solver tier. The zero value is tierAuto — the
// right default for callers that just want the instance solved.
type SolverSpec struct {
	// Tier picks the solver; tierAuto defers to the dispatcher.
	Tier Tier
	// Heuristic carries the ablation knobs of the heuristic tier.
	Heuristic HeuristicConfig
}

// SolveSpec solves the instance with the tier the spec selects, bounded
// by the caller's context. It is the single dispatch point behind the
// facade's Solve(ctx, in, ...SolveOption) API: the heuristic tier, the
// exhaustive optimal tier and the approximate admission tier all route
// through here, and the returned Solution records which tier produced it.
func SolveSpec(ctx context.Context, in *Instance, spec SolverSpec) (*Solution, error) {
	switch spec.Tier {
	case tierOptimal:
		sol, _, err := SolveOptimal(ctx, in)
		return sol, err
	case TierApprox:
		return solveApproxCtx(ctx, in)
	case tierAuto, TierHeuristic:
		return solveOffloaDNNConfiguredCtx(ctx, in, spec.Heuristic)
	default:
		return nil, fmt.Errorf("%w: unknown solver tier %d", errModel, int(spec.Tier))
	}
}
