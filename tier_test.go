package offloadnn_test

import (
	"context"
	"testing"

	offloadnn "offloadnn"
	"offloadnn/internal/serve"
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
	for name, load := range map[string]offloadnn.Load{
		"large-low":    offloadnn.LoadLow,
		"large-medium": offloadnn.LoadMedium,
		"large-high":   offloadnn.LoadHigh,
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
		r, err := offloadnn.CompareTiers(ctx, in,
			offloadnn.SolverSpec{Tier: offloadnn.TierHeuristic, Shards: 1},
			offloadnn.SolverSpec{Tier: offloadnn.TierApprox})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.AdmissionRatio < 0.95 {
			t.Errorf("%s: approx admission ratio %.4f < 0.95 (ref %.2f, cand %.2f)",
				name, r.AdmissionRatio, r.RefWeightedAdmission, r.CandWeightedAdmission)
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

// TestShardedWorkerEquivalence10k is the scale acceptance bound for the
// sharded heuristic: at 10k tasks the auto-sharded solve must produce a
// bitwise-identical solution whether the bands run on one worker or
// many — parallelism is a scheduling detail, never a results change.
func TestShardedWorkerEquivalence10k(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-task solve")
	}
	ctx := context.Background()
	in, err := offloadnn.ScaleScenario(10000)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := offloadnn.Solve(ctx, in, offloadnn.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if serial.Shards <= 1 {
		t.Fatalf("10k-task auto solve did not shard (shards=%d)", serial.Shards)
	}
	parallel, err := offloadnn.Solve(ctx, in, offloadnn.WithWorkers(8))
	if err != nil {
		t.Fatal(err)
	}
	if parallel.Shards != serial.Shards {
		t.Fatalf("shard counts differ: %d vs %d", parallel.Shards, serial.Shards)
	}
	sameSolution(t, "10k", serial, parallel)
	if err := offloadnn.Check(in, parallel.Assignments); err != nil {
		t.Fatalf("10k sharded solution infeasible: %v", err)
	}
}

// TestSerialExact10k records the fact a tier deletion would rest on:
// with the allocator's z-step no longer a dense LP, one unsharded exact
// heuristic solve of the 10k-task scale scenario finishes inside the
// default epoch deadline, is feasible, and admits at least as much
// weighted priority as both mechanisms that exist to avoid it — the
// approximate tier and the auto-sharded heuristic.
func TestSerialExact10k(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-task solves")
	}
	ctx := context.Background()
	in, err := offloadnn.ScaleScenario(10000)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := offloadnn.Solve(ctx, in, offloadnn.WithTier(offloadnn.TierHeuristic), offloadnn.WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	bound := serve.DefaultSolveTimeout
	if raceDetectorEnabled {
		bound *= 5
	}
	if serial.Runtime >= bound {
		t.Errorf("serial exact 10k solve took %v, epoch deadline %v", serial.Runtime, bound)
	}
	if serial.Shards > 1 {
		t.Fatalf("WithShards(1) solved on %d bands", serial.Shards)
	}
	if err := offloadnn.Check(in, serial.Assignments); err != nil {
		t.Fatalf("serial exact 10k solution infeasible: %v", err)
	}
	got := serial.Breakdown.WeightedAdmission
	for name, opts := range map[string][]offloadnn.SolveOption{
		"approx":  {offloadnn.WithTier(offloadnn.TierApprox)},
		"sharded": {offloadnn.WithTier(offloadnn.TierHeuristic)},
	} {
		other, err := offloadnn.Solve(ctx, in, opts...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		t.Logf("serial %v Σz·p %.2f cost %.2f | %s %v Σz·p %.2f cost %.2f (%d bands)", serial.Runtime, got, serial.Cost,
			name, other.Runtime, other.Breakdown.WeightedAdmission, other.Cost, other.Shards)
		if got < other.Breakdown.WeightedAdmission {
			t.Errorf("serial exact Σz·p %.4f below %s tier's %.4f", got, name, other.Breakdown.WeightedAdmission)
		}
	}
}
