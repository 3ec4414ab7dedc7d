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
