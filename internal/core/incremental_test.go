package core

import (
	"context"
	"errors"
	"math"
	"testing"
)

// scratchEquivalent re-solves the session's current task set from scratch
// and verifies the session's last solution matches it exactly: same cost
// (within 1e-9), same per-task decisions.
func scratchEquivalent(t *testing.T, sess *SolverSession, got *Solution) {
	t.Helper()
	in := &Instance{
		Tasks:  sess.Tasks(),
		Blocks: sess.Instance().Blocks,
		Res:    sess.Instance().Res,
		Alpha:  sess.Instance().Alpha,
	}
	want, err := SolveOffloaDNN(in)
	if err != nil {
		t.Fatalf("scratch solve: %v", err)
	}
	if math.Abs(got.Cost-want.Cost) > 1e-9 {
		t.Fatalf("incremental cost %v differs from scratch %v by %g",
			got.Cost, want.Cost, math.Abs(got.Cost-want.Cost))
	}
	if len(got.Assignments) != len(want.Assignments) {
		t.Fatalf("assignment count %d != %d", len(got.Assignments), len(want.Assignments))
	}
	for i := range want.Assignments {
		g, w := got.Assignments[i], want.Assignments[i]
		if g.TaskID != w.TaskID {
			t.Fatalf("assignment %d: task %q != %q", i, g.TaskID, w.TaskID)
		}
		gPath, wPath := "", ""
		if g.Path != nil {
			gPath = g.Path.DNN + "/" + g.Path.ID
		}
		if w.Path != nil {
			wPath = w.Path.DNN + "/" + w.Path.ID
		}
		if gPath != wPath {
			t.Fatalf("task %s: path %q != %q", g.TaskID, gPath, wPath)
		}
		if math.Abs(g.Z-w.Z) > 1e-9 || g.RBs != w.RBs {
			t.Fatalf("task %s: allocation (z=%v, r=%d) != (z=%v, r=%d)",
				g.TaskID, g.Z, g.RBs, w.Z, w.RBs)
		}
	}
}

func TestSessionMatchesScratchAcrossDeltas(t *testing.T) {
	in := testInstance(6, 8, 42)
	sess, err := NewSolverSession(in)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	sol, err := sess.Resolve(ctx, TaskDelta{})
	if err != nil {
		t.Fatal(err)
	}
	scratchEquivalent(t, sess, sol)

	removed := in.Tasks[3] // keep a copy for the re-add
	steps := []TaskDelta{
		{Remove: []string{"task-3"}},
		{Add: []Task{removed}},
		{Rate: map[string]float64{"task-0": 9, "task-5": 2}},
		{Remove: []string{"task-0", "task-5"}},
		{}, // no-op epoch
	}
	for si, delta := range steps {
		sol, err := sess.Resolve(ctx, delta)
		if err != nil {
			t.Fatalf("step %d: %v", si, err)
		}
		scratchEquivalent(t, sess, sol)
	}
}

func TestSessionCliqueInvalidation(t *testing.T) {
	in := testInstance(6, 8, 7)
	sess, err := NewSolverSession(in)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := sess.Resolve(ctx, TaskDelta{}); err != nil {
		t.Fatal(err)
	}
	st := sess.Stats()
	if st.CliqueMisses != 6 || st.CliqueHits != 0 {
		t.Fatalf("first epoch: want 6 misses / 0 hits, got %d / %d", st.CliqueMisses, st.CliqueHits)
	}

	// Removing one task rebuilds nothing: the other five cliques hit.
	removed := in.Tasks[2]
	if _, err := sess.Resolve(ctx, TaskDelta{Remove: []string{"task-2"}}); err != nil {
		t.Fatal(err)
	}
	st = sess.Stats()
	if st.CliqueMisses != 6 || st.CliqueHits != 5 {
		t.Fatalf("after remove: want 6 misses / 5 hits, got %d / %d", st.CliqueMisses, st.CliqueHits)
	}

	// Re-adding it rebuilds exactly one clique.
	if _, err := sess.Resolve(ctx, TaskDelta{Add: []Task{removed}}); err != nil {
		t.Fatal(err)
	}
	st = sess.Stats()
	if st.CliqueMisses != 7 || st.CliqueHits != 10 {
		t.Fatalf("after re-add: want 7 misses / 10 hits, got %d / %d", st.CliqueMisses, st.CliqueHits)
	}

	// A rate change invalidates nothing: all six cliques hit.
	if _, err := sess.Resolve(ctx, TaskDelta{Rate: map[string]float64{"task-1": 3}}); err != nil {
		t.Fatal(err)
	}
	st = sess.Stats()
	if st.CliqueMisses != 7 || st.CliqueHits != 16 {
		t.Fatalf("after rate change: want 7 misses / 16 hits, got %d / %d", st.CliqueMisses, st.CliqueHits)
	}

	// Re-specifying a block shared by every task invalidates all cliques.
	spec := sess.Instance().Blocks["base/stage1"]
	spec.ComputeSeconds *= 1.5
	sol, err := sess.Resolve(ctx, TaskDelta{AddBlocks: map[string]BlockSpec{"base/stage1": spec}})
	if err != nil {
		t.Fatal(err)
	}
	st = sess.Stats()
	if st.CliqueMisses != 13 || st.CliqueHits != 16 {
		t.Fatalf("after block re-spec: want 13 misses / 16 hits, got %d / %d", st.CliqueMisses, st.CliqueHits)
	}
	scratchEquivalent(t, sess, sol)

	// Re-supplying an identical spec is a no-op: all hits.
	if _, err := sess.Resolve(ctx, TaskDelta{AddBlocks: map[string]BlockSpec{"base/stage1": spec}}); err != nil {
		t.Fatal(err)
	}
	st = sess.Stats()
	if st.CliqueMisses != 13 || st.CliqueHits != 22 {
		t.Fatalf("after identical re-spec: want 13 misses / 22 hits, got %d / %d", st.CliqueMisses, st.CliqueHits)
	}
}

func TestSessionDeltaValidation(t *testing.T) {
	in := testInstance(3, 4, 1)
	sess, err := NewSolverSession(in)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	base, err := sess.Resolve(ctx, TaskDelta{})
	if err != nil {
		t.Fatal(err)
	}

	bad := []TaskDelta{
		{Remove: []string{"nope"}},
		{Remove: []string{"task-1", "task-1"}},
		{Add: []Task{in.Tasks[0]}}, // duplicate live ID
		{Add: []Task{{}}},          // empty ID
		{Rate: map[string]float64{"nope": 4}},
		{Rate: map[string]float64{"task-0": -1}},
		{AddBlocks: map[string]BlockSpec{"x": {ID: "y"}}},
	}
	for i, delta := range bad {
		if _, err := sess.Resolve(ctx, delta); !errors.Is(err, errModel) {
			t.Fatalf("delta %d: want ErrModel, got %v", i, err)
		}
	}

	// A rejected delta leaves the session state untouched.
	sol, err := sess.Resolve(ctx, TaskDelta{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Cost-base.Cost) > 1e-12 {
		t.Fatalf("cost drifted after rejected deltas: %v != %v", sol.Cost, base.Cost)
	}

	// Removing the last task makes the epoch unsolvable.
	if _, err := sess.Resolve(ctx, TaskDelta{Remove: []string{"task-0", "task-1", "task-2"}}); err == nil {
		t.Fatal("want error resolving an empty task set")
	}
}

func TestSessionResolveCanceled(t *testing.T) {
	in := testInstance(5, 6, 3)
	sess, err := NewSolverSession(in)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sess.Resolve(ctx, TaskDelta{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}
