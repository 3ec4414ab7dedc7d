package core

import (
	"context"
	"math"
	"testing"
)

func TestParallelOptimalMatchesSequential(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		in := testInstance(3, 3, seed+200)
		seq, seqStats, err := SolveOptimal(in)
		if err != nil {
			t.Fatal(err)
		}
		par, parStats, err := SolveOptimalParallelCtx(context.Background(), in, 4)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(seq.Cost-par.Cost) > 1e-9 {
			t.Fatalf("seed %d: parallel cost %v != sequential %v", seed, par.Cost, seq.Cost)
		}
		if seqStats.BranchesExplored != parStats.BranchesExplored {
			t.Fatalf("seed %d: explored %d vs %d branches",
				seed, parStats.BranchesExplored, seqStats.BranchesExplored)
		}
		if err := in.Check(par.Assignments); err != nil {
			t.Fatalf("parallel solution infeasible: %v", err)
		}
	}
}

func TestParallelOptimalDefaultWorkers(t *testing.T) {
	in := testInstance(2, 2, 210)
	sol, stats, err := SolveOptimalParallelCtx(context.Background(), in, 0) // auto worker count
	if err != nil {
		t.Fatal(err)
	}
	if stats.BranchesExplored == 0 {
		t.Fatal("no branches explored")
	}
	if sol.Runtime <= 0 {
		t.Fatal("runtime not recorded")
	}
}

func TestParallelOptimalSingleWorkerDegenerates(t *testing.T) {
	in := testInstance(3, 2, 211)
	seq, _, err := SolveOptimal(in)
	if err != nil {
		t.Fatal(err)
	}
	par, _, err := SolveOptimalParallelCtx(context.Background(), in, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(seq.Cost-par.Cost) > 1e-9 {
		t.Fatalf("1-worker parallel cost %v != sequential %v", par.Cost, seq.Cost)
	}
}

func TestParallelOptimalMemoryPruning(t *testing.T) {
	in := testInstance(3, 3, 212)
	in.Res.MemoryGB = 1.2 // forces pruning of heavy subtrees
	seq, seqStats, err := SolveOptimal(in)
	if err != nil {
		t.Fatal(err)
	}
	par, parStats, err := SolveOptimalParallelCtx(context.Background(), in, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(seq.Cost-par.Cost) > 1e-9 {
		t.Fatalf("pruned search: parallel %v != sequential %v", par.Cost, seq.Cost)
	}
	if seqStats.BranchesPruned != parStats.BranchesPruned {
		t.Fatalf("pruned %d vs %d subtrees", parStats.BranchesPruned, seqStats.BranchesPruned)
	}
}

// TestOptimalTieBreakIndependentOfWorkers gives the top-priority task two
// paths of identical cost, so two first-layer subtrees hold equal-cost
// optima: the left-most must win at every worker count, not whichever
// subtree happens to finish first.
func TestOptimalTieBreakIndependentOfWorkers(t *testing.T) {
	in := testInstance(4, 3, 213)
	twin := in.Tasks[0].Paths[0]
	twinA, twinB := twin, twin
	twinA.ID, twinB.ID = "twin-a", "twin-b"
	in.Tasks[0].Paths = []PathSpec{twinA, twinB}

	ctx := context.Background()
	want, _, err := SolveOptimalParallelCtx(ctx, in, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want.Assignments[0].Path != &in.Tasks[0].Paths[0] {
		t.Fatalf("one worker picked %v for the tied task, want the left-most twin", want.Assignments[0].Path)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		for rep := 0; rep < 50; rep++ {
			got, _, err := SolveOptimalParallelCtx(ctx, in, workers)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want.Assignments {
				if got.Assignments[i].Path != want.Assignments[i].Path {
					t.Fatalf("workers=%d rep %d: task %s on path %v, one worker chose %v",
						workers, rep, in.Tasks[i].ID, got.Assignments[i].Path, want.Assignments[i].Path)
				}
			}
		}
	}
}
