package core

import (
	"context"
	"fmt"
	"strings"
	"time"
)

// Tier identifies one of the solver tiers behind the unified Solve API.
type Tier int

// Solver tiers.
const (
	// TierAuto lets the dispatcher pick: the exact OffloaDNN heuristic,
	// sharded across priority bands once the task count warrants it.
	TierAuto Tier = iota
	// TierHeuristic is the polynomial-time OffloaDNN first-branch
	// heuristic (Sec. IV), optionally sharded by priority band.
	TierHeuristic
	// TierOptimal is the exhaustive weighted-tree search — exponential in
	// the task count, the paper's small-scale benchmark.
	TierOptimal
	// TierApprox is the approximate admission tier: score-based path
	// ranking with greedy budget packing. One shortlist scoring pass and
	// one greedy pass, no (z, r) alternation. At 10k tasks it and the
	// exact heuristic now take about as long (see shardBandTasks).
	TierApprox
)

// String implements fmt.Stringer.
func (t Tier) String() string {
	switch t {
	case TierAuto:
		return "auto"
	case TierHeuristic:
		return "heuristic"
	case TierOptimal:
		return "optimal"
	case TierApprox:
		return "approx"
	default:
		return fmt.Sprintf("tier(%d)", int(t))
	}
}

// ParseTier converts a tier name ("auto", "heuristic", "optimal",
// "approx") to its Tier value.
func ParseTier(s string) (Tier, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "auto":
		return TierAuto, nil
	case "heuristic", "exact":
		return TierHeuristic, nil
	case "optimal":
		return TierOptimal, nil
	case "approx", "approximate":
		return TierApprox, nil
	default:
		return TierAuto, fmt.Errorf("%w: unknown solver tier %q (want auto|heuristic|optimal|approx)", ErrModel, s)
	}
}

// SolverSpec selects a solver tier and its execution knobs. The zero
// value is TierAuto with automatic sharding and the pool's parallelism —
// the right default for callers that just want the instance solved.
type SolverSpec struct {
	// Tier picks the solver; TierAuto defers to the dispatcher.
	Tier Tier
	// Workers bounds the goroutines a parallel tier may use (the
	// caller's included). <= 0 uses the tensor pool's Parallelism().
	Workers int
	// Shards is the number of priority-band shards for the heuristic
	// tier: 1 forces a serial (unsharded) solve, 0 picks automatically
	// from the task count, >= 2 forces that many bands. Ignored by the
	// optimal and approx tiers.
	Shards int
	// Timeout bounds the solve; 0 means no deadline beyond the caller's
	// context.
	Timeout time.Duration
	// Heuristic carries the ablation knobs of the heuristic tier.
	Heuristic HeuristicConfig
}

const (
	// shardBandTasks is the target priority-band width of an
	// automatically sharded solve. Bands were sized when the allocator's
	// z-step was a dense LP, cubic in the band size, so n/S bands of S
	// tasks cost ~n·S² instead of n³. The z-step is a two-row simplex
	// now and bands no longer buy time: on ScaleScenario(10000) the
	// serial solve takes 0.25 s for Σz·p 5932.6 at cost 36.4, 79 bands
	// 0.12–0.28 s for 5818.4 at 93.6 (TestSerialExact10k). Whether to
	// keep them is an open ROADMAP decision; nothing here changed.
	shardBandTasks = 128
	// autoShardMin is the task count at which TierAuto starts sharding
	// the heuristic — chosen, like the band width, against the cubic LP.
	autoShardMin = 256
)

// EffectiveShards resolves a requested shard count against the task
// count: 1 (or a single task) stays serial, an explicit count is clamped
// to the task count, and 0 picks ceil(n/shardBandTasks) bands once n
// reaches autoShardMin.
func EffectiveShards(n, requested int) int {
	if n <= 1 || requested == 1 {
		return 1
	}
	if requested > 1 {
		if requested > n {
			requested = n
		}
		return requested
	}
	if n < autoShardMin {
		return 1
	}
	return (n + shardBandTasks - 1) / shardBandTasks
}

// SolveSpec solves the instance with the tier and knobs the spec
// selects. It is the single dispatch point behind the facade's
// Solve(ctx, in, ...SolveOption) API: the heuristic tier (serial or
// sharded by priority band), the exhaustive optimal tier (serial or
// first-layer-parallel), and the approximate admission tier all route
// through here, and the returned Solution records which tier produced it.
func SolveSpec(ctx context.Context, in *Instance, spec SolverSpec) (*Solution, error) {
	if spec.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, spec.Timeout)
		defer cancel()
	}
	switch spec.Tier {
	case TierOptimal:
		sol, _, err := SolveOptimalParallelCtx(ctx, in, spec.Workers)
		return sol, err
	case TierApprox:
		return solveApproxCtx(ctx, in, spec)
	case TierAuto, TierHeuristic:
		if shards := EffectiveShards(len(in.Tasks), spec.Shards); shards > 1 {
			return solveShardedCtx(ctx, in, shards, spec.Workers, spec.Heuristic)
		}
		return SolveOffloaDNNConfiguredCtx(ctx, in, spec.Heuristic)
	default:
		return nil, fmt.Errorf("%w: unknown solver tier %d", ErrModel, int(spec.Tier))
	}
}
