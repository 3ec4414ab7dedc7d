package core

import (
	"context"
	"testing"
	"time"

	"offloadnn/internal/radio"
)

// qualityInstance is testInstance plus a two-level quality ladder on
// every task.
func qualityInstance(nTasks, nPaths int, seed int64) *Instance {
	in := testInstance(nTasks, nPaths, seed)
	for i := range in.Tasks {
		in.Tasks[i].Qualities = []QualityLevel{
			{ID: "q720", Bits: 220e3, AccuracyDelta: 0.015},
			{ID: "q480", Bits: 140e3, AccuracyDelta: 0.05},
		}
	}
	return in
}

func TestQualityLevelsExpandTree(t *testing.T) {
	plain := testInstance(2, 2, 30)
	quality := qualityInstance(2, 2, 30)
	tp, err := BuildTree(plain)
	if err != nil {
		t.Fatal(err)
	}
	tq, err := BuildTree(quality)
	if err != nil {
		t.Fatal(err)
	}
	for li := range tp.Layers {
		np, nq := len(tp.Layers[li].Vertices), len(tq.Layers[li].Vertices)
		if nq <= np {
			t.Fatalf("layer %d: quality ladder did not add vertices (%d vs %d)", li, nq, np)
		}
	}
}

func TestQualityFilteredByAccuracy(t *testing.T) {
	in := qualityInstance(1, 2, 31)
	in.Tasks[0].MinAccuracy = 0.92 // only near-full paths at full quality survive
	tree, err := BuildTree(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range tree.Layers[0].Vertices {
		if v.reject() {
			continue
		}
		acc := v.path.Accuracy
		if v.quality != nil {
			acc -= v.quality.AccuracyDelta
		}
		if acc < in.Tasks[0].MinAccuracy {
			t.Fatalf("vertex with accuracy %v kept despite floor %v", acc, in.Tasks[0].MinAccuracy)
		}
	}
}

func TestQualityAdaptationSavesRBs(t *testing.T) {
	plain := testInstance(4, 2, 32)
	quality := qualityInstance(4, 2, 32)
	sp, err := SolveOffloaDNN(plain)
	if err != nil {
		t.Fatal(err)
	}
	sq, err := SolveOffloaDNN(quality)
	if err != nil {
		t.Fatal(err)
	}
	if err := quality.Check(sq.Assignments); err != nil {
		t.Fatalf("quality solution infeasible: %v", err)
	}
	if sq.Breakdown.RBsAllocated >= sp.Breakdown.RBsAllocated {
		t.Fatalf("quality ladder did not reduce RBs: %v vs %v",
			sq.Breakdown.RBsAllocated, sp.Breakdown.RBsAllocated)
	}
	// Every accuracy floor is still honored (Check covers it; assert a
	// reduced-quality assignment actually exists).
	reduced := 0
	for _, a := range sq.Assignments {
		if a.Quality != nil {
			reduced++
		}
	}
	if reduced == 0 {
		t.Fatal("no task selected a reduced quality level")
	}
}

func TestQualityLatencyUsesSelectedBits(t *testing.T) {
	in := qualityInstance(1, 1, 33)
	sol, err := SolveOffloaDNN(in)
	if err != nil {
		t.Fatal(err)
	}
	a := sol.Assignments[0]
	if !a.Admitted() {
		t.Fatal("task rejected")
	}
	lat, err := in.EndToEndLatency(&in.Tasks[0], a)
	if err != nil {
		t.Fatal(err)
	}
	// Recompute by hand from the assignment's bits.
	b := in.Res.Capacity.BitsPerRBPerSecond(in.Tasks[0].SNRdB)
	want := a.Bits(&in.Tasks[0])/(b*float64(a.RBs)) + in.PathCompute(a.Path)
	got := lat.Seconds()
	if diff := got - want; diff < -1e-9 || diff > 1e-9 {
		t.Fatalf("latency %v, want %v", got, want)
	}
}

func TestOptimalWithQualityNoWorse(t *testing.T) {
	in := qualityInstance(2, 2, 34)
	h, err := SolveOffloaDNN(in)
	if err != nil {
		t.Fatal(err)
	}
	o, _, err := SolveOptimal(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if o.Cost > h.Cost+1e-9 {
		t.Fatalf("optimal %v worse than heuristic %v with quality levels", o.Cost, h.Cost)
	}
	if err := in.Check(o.Assignments); err != nil {
		t.Fatal(err)
	}
}

func TestCliqueOrderVariantsAllFeasible(t *testing.T) {
	in := testInstance(4, 3, 35)
	for _, order := range []CliqueOrder{OrderCompute, OrderMemory, OrderAccuracy, OrderNone} {
		sol, err := solveOffloaDNNConfiguredCtx(context.Background(), in, HeuristicConfig{Order: order})
		if err != nil {
			t.Fatalf("order %v: %v", order, err)
		}
		if err := in.Check(sol.Assignments); err != nil {
			t.Fatalf("order %v: infeasible: %v", order, err)
		}
	}
}

func TestComputeOrderMinimizesInferenceUsage(t *testing.T) {
	// The design claim behind Fig. 8 (right): compute-sorted cliques give
	// the lowest inference compute usage among the orderings.
	in := testInstance(5, 4, 36)
	base, err := solveOffloaDNNConfiguredCtx(context.Background(), in, HeuristicConfig{Order: OrderCompute})
	if err != nil {
		t.Fatal(err)
	}
	for _, order := range []CliqueOrder{OrderMemory, OrderAccuracy, OrderNone} {
		sol, err := solveOffloaDNNConfiguredCtx(context.Background(), in, HeuristicConfig{Order: order})
		if err != nil {
			t.Fatalf("order %v: %v", order, err)
		}
		if base.Breakdown.ComputeUsage > sol.Breakdown.ComputeUsage+1e-9 {
			t.Fatalf("compute ordering used more inference compute (%v) than %v ordering (%v)",
				base.Breakdown.ComputeUsage, order, sol.Breakdown.ComputeUsage)
		}
	}
}

func TestBinaryAdmissionNeverFractional(t *testing.T) {
	in := testInstance(5, 3, 37)
	in.Res.RBs = 20 // pressure forces shedding
	sol, err := solveOffloaDNNConfiguredCtx(context.Background(), in, HeuristicConfig{BinaryAdmission: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Check(sol.Assignments); err != nil {
		t.Fatalf("binary solution infeasible: %v", err)
	}
	for _, a := range sol.Assignments {
		if a.Z != 0 && a.Z != 1 {
			t.Fatalf("binary admission produced fractional z=%v", a.Z)
		}
	}
	// Fractional admission is at least as good on weighted admission.
	frac, err := SolveOffloaDNN(in)
	if err != nil {
		t.Fatal(err)
	}
	if frac.Breakdown.WeightedAdmission < sol.Breakdown.WeightedAdmission-1e-9 {
		t.Fatalf("fractional admission %v below binary %v",
			frac.Breakdown.WeightedAdmission, sol.Breakdown.WeightedAdmission)
	}
}

func TestPrivatizeBlocksDisablesSharing(t *testing.T) {
	in := testInstance(4, 2, 38)
	priv := PrivatizeBlocks(in)
	if err := priv.Validate(); err != nil {
		t.Fatalf("privatized instance invalid: %v", err)
	}
	shared, err := SolveOffloaDNN(in)
	if err != nil {
		t.Fatal(err)
	}
	unshared, err := SolveOffloaDNN(priv)
	if err != nil {
		t.Fatal(err)
	}
	if err := priv.Check(unshared.Assignments); err != nil {
		t.Fatalf("unshared solution infeasible: %v", err)
	}
	if unshared.Breakdown.MemoryGB <= shared.Breakdown.MemoryGB {
		t.Fatalf("privatizing blocks did not increase memory: %v vs %v",
			unshared.Breakdown.MemoryGB, shared.Breakdown.MemoryGB)
	}
	// No block ID is used by two tasks.
	owner := map[string]string{}
	for _, task := range priv.Tasks {
		for _, p := range task.Paths {
			for _, id := range p.Blocks {
				if prev, ok := owner[id]; ok && prev != task.ID {
					t.Fatalf("privatized block %s used by %s and %s", id, prev, task.ID)
				}
				owner[id] = task.ID
			}
		}
	}
}

func TestPrivatizePreservesPredeployment(t *testing.T) {
	in := testInstance(2, 2, 39)
	in.Predeployed = map[string]bool{"base/stage1": true}
	priv := PrivatizeBlocks(in)
	found := false
	for id := range priv.Predeployed {
		if priv.Blocks[id].ID != id {
			t.Fatalf("predeployed block %s not in catalog", id)
		}
		found = true
	}
	if !found {
		t.Fatal("predeployment did not carry over")
	}
}

func TestVariantsRuntimeComparable(t *testing.T) {
	in := testInstance(3, 3, 40)
	sol, err := solveOffloaDNNConfiguredCtx(context.Background(), in, HeuristicConfig{Order: OrderMemory})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Runtime <= 0 || sol.Runtime > time.Second {
		t.Fatalf("variant runtime %v implausible", sol.Runtime)
	}
}

// TestBinaryAndFractionalAgreeOnIntegralDemand pins the one slice
// formula (MinSlices): a rate demand that is integral up to float noise
// — λβ/B = (0.1·3)·1e6/1e5 = 3.0000000000000004 — costs 3 RBs under both
// admission modes, so the binary ablation admits the task in a 3-RB pool
// exactly as the fractional allocator does. A bare ceil made it 4 and
// rejected the task.
func TestBinaryAndFractionalAgreeOnIntegralDemand(t *testing.T) {
	in := tinyAllocInstance(3, 1)
	in.Alpha = 0.9 // the slice is the whole pool: keep admission worth its price
	in.Res.Capacity = radio.FixedRate{Rate: 1e5}
	in.Tasks = in.Tasks[:1]
	tenth := 0.1 // a variable: the constant 0.1*3 would fold to an exact 0.3
	in.Tasks[0].Rate = tenth * 3
	in.Tasks[0].InputBits = 1e6
	in.Tasks[0].MaxLatency = 10 * time.Second
	for _, binary := range []bool{false, true} {
		sol, err := solveOffloaDNNConfiguredCtx(context.Background(), in, HeuristicConfig{BinaryAdmission: binary})
		if err != nil {
			t.Fatalf("binary=%v: %v", binary, err)
		}
		if a := sol.Assignments[0]; a.Z != 1 || a.RBs != 3 {
			t.Errorf("binary=%v: admitted z=%v on %d RBs, want z=1 on 3", binary, a.Z, a.RBs)
		}
		if err := in.Check(sol.Assignments); err != nil {
			t.Errorf("binary=%v: %v", binary, err)
		}
	}
}
