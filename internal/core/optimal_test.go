package core

import (
	"context"
	"testing"
)

// TestOptimalMemoryPruning tightens the memory budget so the search must
// cut heavy subtrees, and pins the work it does: 15 subtrees pruned, the 4
// surviving leaves solved, against 64 leaves and no pruning at the
// instance's own budget.
func TestOptimalMemoryPruning(t *testing.T) {
	in := testInstance(3, 3, 212)
	_, free, err := SolveOptimal(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if free.BranchesExplored != 64 || free.BranchesPruned != 0 {
		t.Fatalf("unpruned search: explored %d, pruned %d; want 64, 0", free.BranchesExplored, free.BranchesPruned)
	}
	in.Res.MemoryGB = 1.2 // forces pruning of heavy subtrees
	sol, stats, err := SolveOptimal(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if stats.BranchesExplored != 4 || stats.BranchesPruned != 15 {
		t.Fatalf("pruned search: explored %d, pruned %d; want 4, 15", stats.BranchesExplored, stats.BranchesPruned)
	}
	if err := in.Check(sol.Assignments); err != nil {
		t.Fatalf("pruned optimum infeasible: %v", err)
	}
}

// TestOptimalTieBreakLeftMostLeaf gives the top-priority task two paths of
// identical cost, so two first-layer subtrees hold equal-cost optima: the
// left-most in depth-first order must win, whichever way the twins are
// listed.
func TestOptimalTieBreakLeftMostLeaf(t *testing.T) {
	for _, ids := range [][2]string{{"twin-a", "twin-b"}, {"twin-b", "twin-a"}} {
		in := testInstance(4, 3, 213)
		twinA, twinB := in.Tasks[0].Paths[0], in.Tasks[0].Paths[0]
		twinA.ID, twinB.ID = ids[0], ids[1]
		in.Tasks[0].Paths = []PathSpec{twinA, twinB}

		sol, _, err := SolveOptimal(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Assignments[0].Path != &in.Tasks[0].Paths[0] {
			t.Fatalf("tied task on path %v, want the left-most twin %s", sol.Assignments[0].Path, ids[0])
		}
	}
}
