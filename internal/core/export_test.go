package core

import (
	"context"
	"fmt"
	"testing"
)

// CheckZStepRounds reaches the private z-step for the scenario cases of
// TestZStepMatchesLPOnScenarios, which sit in the external test package
// because workload imports core: it walks in's first branch as the
// heuristic does, replays the allocator's alternation and holds every
// round's z-step to the lp oracle (checkZStep). It returns the number of
// rounds checked.
func CheckZStepRounds(t *testing.T, name string, in *Instance) int {
	t.Helper()
	ctx := context.Background()
	tree, err := BuildTree(in)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	assignments, err := tree.firstBranch(ctx)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	active := in.allocStates(assignments)
	cols := make([]zColumn, len(active))
	z := make([]float64, len(active))
	rounds := 0
	for rounds < allocMaxIters && len(active) > 0 {
		if err := in.zStep(ctx, active, cols, z); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// cols still holds the problem zStep just solved.
		checkZStep(t, fmt.Sprintf("%s round %d", name, rounds), cols, in.Res.ComputeSeconds, float64(in.Res.RBs))
		rounds++
		if !in.updateSlices(active) {
			break
		}
	}
	return rounds
}
