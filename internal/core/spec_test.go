package core

import (
	"context"
	"strings"
	"testing"
)

// TestSolveSpecTierTagging checks that every tier routes through the
// dispatcher, produces a feasible solution, and tags it with its tier.
func TestSolveSpecTierTagging(t *testing.T) {
	ctx := context.Background()
	in := testInstance(6, 3, 1)
	cases := []struct {
		name string
		spec SolverSpec
		want Tier
	}{
		{"auto", SolverSpec{}, TierHeuristic},
		{"heuristic", SolverSpec{Tier: TierHeuristic}, TierHeuristic},
		{"approx", SolverSpec{Tier: TierApprox}, TierApprox},
	}
	for _, c := range cases {
		sol, err := SolveSpec(ctx, in, c.spec)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if sol.Tier != c.want {
			t.Fatalf("%s: tier %v, want %v", c.name, sol.Tier, c.want)
		}
		if err := in.Check(sol.Assignments); err != nil {
			t.Fatalf("%s: infeasible: %v", c.name, err)
		}
	}

	small := testInstance(3, 2, 1)
	sol, err := SolveSpec(ctx, small, SolverSpec{Tier: tierOptimal})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Tier != tierOptimal || sol.stats == nil {
		t.Fatalf("optimal tier = %v, stats %v", sol.Tier, sol.stats)
	}

	if _, err := SolveSpec(ctx, in, SolverSpec{Tier: Tier(99)}); err == nil {
		t.Fatal("unknown tier accepted")
	}
	if s := Tier(99).String(); !strings.Contains(s, "99") {
		t.Fatalf("Tier(99).String() = %q", s)
	}
}
