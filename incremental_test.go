package offloadnn

// Public-API tests for the incremental solver session and the
// context-aware solver entry points: a ChurnTimeline-driven equivalence
// check (every epoch of a SolverSession must match a from-scratch Solve
// to 1e-9), and cancellation tests proving the Ctx variants return
// promptly with the context's error.

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"offloadnn/internal/core"
	"offloadnn/internal/workload"
)

// TestSessionMatchesSolveAcrossChurnTimeline drives the full Table-IV
// small-scenario churn timeline (arrivals, departures, returns, and rate
// changes) through a SolverSession, mirroring the serving registry's
// bookkeeping, and checks after every event that the incremental solution
// equals a from-scratch Solve of the equivalent instance.
func TestSessionMatchesSolveAcrossChurnTimeline(t *testing.T) {
	events, err := workload.ChurnTimeline(workload.ChurnParams{
		Tasks:     5,
		Duration:  time.Minute,
		Seed:      11,
		RateChurn: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	base, err := SmallScenario(1)
	if err != nil {
		t.Fatal(err)
	}

	// Shadow registry state: the block catalog grows as paths are built,
	// seq drives the catalog's per-registration accuracy jitter, and
	// shadow mirrors the session's task order (removes compact, adds
	// append) for the from-scratch comparison instance.
	catalog := workload.SmallCatalogParams()
	blocks := make(map[string]BlockSpec)
	seq := 0
	var shadow []Task
	var sess *core.SolverSession
	rateKinds := 0

	for ei, ev := range events {
		var delta core.TaskDelta
		switch ev.Kind {
		case workload.ChurnRegister:
			task := ev.Task
			task.Paths = catalog.BuildPaths(blocks, task.ID, seq)
			seq++
			delta.Add = []Task{task}
			delta.AddBlocks = blocks
			shadow = append(shadow, task)
		case workload.ChurnDeregister:
			delta.Remove = []string{ev.Task.ID}
			for i := range shadow {
				if shadow[i].ID == ev.Task.ID {
					shadow = append(shadow[:i], shadow[i+1:]...)
					break
				}
			}
		case workload.ChurnRateChange:
			rateKinds++
			delta.Rate = map[string]float64{ev.Task.ID: ev.Task.Rate}
			for i := range shadow {
				if shadow[i].ID == ev.Task.ID {
					shadow[i].Rate = ev.Task.Rate
					break
				}
			}
		default:
			t.Fatalf("event %d: unknown kind %v", ei, ev.Kind)
		}

		if sess == nil {
			first := &Instance{Tasks: []Task{delta.Add[0]}, Blocks: blocks, Res: base.Res, Alpha: base.Alpha}
			if sess, err = core.NewSolverSession(first); err != nil {
				t.Fatalf("event %d: new session: %v", ei, err)
			}
			delta = core.TaskDelta{}
		}
		got, err := sess.Resolve(context.Background(), delta)
		if err != nil {
			t.Fatalf("event %d (%v %s): %v", ei, ev.Kind, ev.Task.ID, err)
		}

		scratchIn := &Instance{
			Tasks:  append([]Task(nil), shadow...),
			Blocks: blocks,
			Res:    base.Res,
			Alpha:  base.Alpha,
		}
		want, err := Solve(context.Background(), scratchIn)
		if err != nil {
			t.Fatalf("event %d: scratch solve: %v", ei, err)
		}
		if math.Abs(got.Cost-want.Cost) > 1e-9 {
			t.Fatalf("event %d (%v %s): incremental cost %v differs from scratch %v",
				ei, ev.Kind, ev.Task.ID, got.Cost, want.Cost)
		}
		for i := range want.Assignments {
			g, w := got.Assignments[i], want.Assignments[i]
			if g.TaskID != w.TaskID || math.Abs(g.Z-w.Z) > 1e-9 || g.RBs != w.RBs {
				t.Fatalf("event %d task %s: (z=%v, r=%d) != scratch (z=%v, r=%d)",
					ei, g.TaskID, g.Z, g.RBs, w.Z, w.RBs)
			}
		}
		if err := Check(sess.Instance(), got.Assignments); err != nil {
			t.Fatalf("event %d: incremental solution violates constraints: %v", ei, err)
		}
	}
	if rateKinds == 0 {
		t.Fatal("timeline produced no rate-change events; RateChurn gate broken")
	}
}

// TestSolveCtxCanceled proves a canceled context aborts the heuristic on
// the 20-task large scenario promptly, with the context's error exposed
// through errors.Is.
func TestSolveCtxCanceled(t *testing.T) {
	in, err := LargeScenario(workload.LoadHigh)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err = core.SolveSpec(ctx, in, core.SolverSpec{Tier: core.TierHeuristic})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("canceled solve took %v; want prompt return", elapsed)
	}
}

// TestSolveOptimalCtxDeadline proves the exhaustive solver — hours at
// T=5 — honors a millisecond deadline.
func TestSolveOptimalCtxDeadline(t *testing.T) {
	in, err := SmallScenario(5)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err = core.SolveOptimal(ctx, in)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline-bound solve took %v; want prompt return", elapsed)
	}
}

// TestSentinelErrors pins the public error hierarchy: both named causes
// wrap ErrInfeasible, and an over-constrained instance surfaces
// ErrNoFeasiblePath through Solve.
func TestSentinelErrors(t *testing.T) {
	if !errors.Is(core.ErrNoFeasiblePath, core.ErrInfeasible) {
		t.Fatal("ErrNoFeasiblePath must wrap ErrInfeasible")
	}
	if !errors.Is(core.ErrOverCapacity, core.ErrInfeasible) {
		t.Fatal("ErrOverCapacity must wrap ErrInfeasible")
	}

	// A capacity violation found by Check carries both identities.
	in, err := SmallScenario(3)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Breakdown.AdmittedTasks == 0 {
		t.Fatal("small scenario admitted nothing; capacity test needs deployed blocks")
	}
	in.Res.MemoryGB = 1e-6 // shrink the pool under the deployed footprint
	err = Check(in, sol.Assignments)
	if !errors.Is(err, core.ErrOverCapacity) {
		t.Fatalf("want error wrapping ErrOverCapacity, got %v", err)
	}
	if !errors.Is(err, core.ErrInfeasible) {
		t.Fatalf("capacity violation must also wrap ErrInfeasible, got %v", err)
	}
}
