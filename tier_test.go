package offloadnn_test

import (
	"context"
	"testing"

	offloadnn "offloadnn"
	"offloadnn/internal/core"
	"offloadnn/internal/serve"
	"offloadnn/internal/workload"
)

// paperLoads are the instances the approximate tier's regret bound is
// accepted against: the small scenario plus all three large-scenario
// request-rate levels.
func paperLoads(t *testing.T) map[string]*offloadnn.Instance {
	t.Helper()
	loads := make(map[string]*offloadnn.Instance, 4)
	small, err := offloadnn.SmallScenario(5)
	if err != nil {
		t.Fatal(err)
	}
	loads["small-5"] = small
	for name, load := range map[string]workload.Load{
		"large-low":    workload.LoadLow,
		"large-medium": workload.LoadMedium,
		"large-high":   workload.LoadHigh,
	} {
		in, err := offloadnn.LargeScenario(load)
		if err != nil {
			t.Fatal(err)
		}
		loads[name] = in
	}
	return loads
}

// TestApproxRegretPaperLoads pins the approximate tier's acceptance
// bound: on every paper load it must retain at least 95% of the exact
// heuristic's weighted admitted priority (Σ z·p).
func TestApproxRegretPaperLoads(t *testing.T) {
	ctx := context.Background()
	for name, in := range paperLoads(t) {
		wa := make(map[core.Tier]float64, 2)
		for _, tier := range []core.Tier{core.TierHeuristic, core.TierApprox} {
			sol, err := core.SolveSpec(ctx, in, core.SolverSpec{Tier: tier})
			if err != nil {
				t.Fatalf("%s: %v: %v", name, tier, err)
			}
			if err := offloadnn.Check(in, sol.Assignments); err != nil {
				t.Fatalf("%s: %v solution infeasible: %v", name, tier, err)
			}
			wa[tier] = sol.Breakdown.WeightedAdmission
		}
		if ref, cand := wa[core.TierHeuristic], wa[core.TierApprox]; cand < 0.95*ref {
			t.Errorf("%s: approx weighted admission %.2f < 0.95 × the heuristic's %.2f", name, cand, ref)
		}
	}
}

func sameSolution(t *testing.T, name string, a, b *offloadnn.Solution) {
	t.Helper()
	if a.Cost != b.Cost {
		t.Fatalf("%s: cost %v != %v", name, a.Cost, b.Cost)
	}
	if len(a.Assignments) != len(b.Assignments) {
		t.Fatalf("%s: %d vs %d assignments", name, len(a.Assignments), len(b.Assignments))
	}
	for i := range a.Assignments {
		x, y := a.Assignments[i], b.Assignments[i]
		if x.TaskID != y.TaskID || x.Path != y.Path || x.Quality != y.Quality || x.Z != y.Z || x.RBs != y.RBs {
			t.Fatalf("%s: assignment %d differs: %+v vs %+v", name, i, x, y)
		}
	}
}

// TestSerialExact10k pins what the default tier is at scale: Solve with
// no option is the exact heuristic, the same plan bit for bit as
// TierHeuristic on the 10k-task scale scenario. That solve finishes
// inside the default epoch deadline, is feasible, and admits at least as
// much weighted priority as the approximate tier.
func TestSerialExact10k(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-task solves")
	}
	ctx := context.Background()
	in, err := workload.ScaleScenario(10000)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := core.SolveSpec(ctx, in, core.SolverSpec{Tier: core.TierHeuristic})
	if err != nil {
		t.Fatal(err)
	}
	bound := serve.DefaultSolveTimeout
	if raceDetectorEnabled {
		bound *= 5
	}
	if exact.Runtime >= bound {
		t.Errorf("exact 10k solve took %v, epoch deadline %v", exact.Runtime, bound)
	}
	if err := offloadnn.Check(in, exact.Assignments); err != nil {
		t.Fatalf("exact 10k solution infeasible: %v", err)
	}
	auto, err := offloadnn.Solve(ctx, in)
	if err != nil {
		t.Fatal(err)
	}
	sameSolution(t, "default vs TierHeuristic at 10k", auto, exact)

	approx, err := core.SolveSpec(ctx, in, core.SolverSpec{Tier: core.TierApprox})
	if err != nil {
		t.Fatal(err)
	}
	got := exact.Breakdown.WeightedAdmission
	t.Logf("exact %v Σz·p %.2f cost %.2f | approx %v Σz·p %.2f cost %.2f", exact.Runtime, got, exact.Cost,
		approx.Runtime, approx.Breakdown.WeightedAdmission, approx.Cost)
	if got < approx.Breakdown.WeightedAdmission {
		t.Errorf("exact Σz·p %.4f below the approx tier's %.4f", got, approx.Breakdown.WeightedAdmission)
	}
}
