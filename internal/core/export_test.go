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

// NumBranches returns the total number of root-to-leaf branches of the
// full tree (the Π_τ N_τ size the paper's complexity analysis cites).
func (t *Tree) NumBranches() float64 {
	n := 1.0
	for _, c := range t.Layers {
		n *= float64(len(c.Vertices))
	}
	return n
}

// SessionStats reports a session's clique-cache work, cumulatively over
// its lifetime.
type SessionStats struct {
	// CliqueHits counts cliques served from the cache across epochs.
	CliqueHits uint64
	// CliqueMisses counts cliques (re)built.
	CliqueMisses uint64
}

// Stats returns the session's cumulative clique-cache counters.
func (s *SolverSession) Stats() SessionStats {
	return SessionStats{CliqueHits: s.cache.hits, CliqueMisses: s.cache.misses}
}
