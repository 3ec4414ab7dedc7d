package edge

import (
	"testing"
	"time"

	"offloadnn/internal/core"
	"offloadnn/internal/workload"
)

func smallDeployment(t *testing.T, tasks int) (*core.Instance, *Deployment) {
	t.Helper()
	in, err := workload.SmallScenario(tasks)
	if err != nil {
		t.Fatal(err)
	}
	c := NewController(in.Res)
	dep, err := c.Admit(in.Tasks, in.Blocks, in.Alpha)
	if err != nil {
		t.Fatal(err)
	}
	return in, dep
}

func TestControllerWorkflow(t *testing.T) {
	in, dep := smallDeployment(t, 5)
	// Every admitted task holds the solver's slice and a notified rate;
	// a rejected one holds neither.
	for i, a := range dep.Solution.Assignments {
		task := in.Tasks[i]
		if a.Admitted() {
			if a.RBs <= 0 {
				t.Fatalf("admitted task %s has %d RBs", task.ID, a.RBs)
			}
			if dep.AdmittedRates[task.ID] <= 0 {
				t.Fatalf("task %s has no notified rate", task.ID)
			}
		} else if a.RBs != 0 || dep.AdmittedRates[task.ID] != 0 {
			t.Fatalf("rejected task %s holds %d RBs, rate %v", task.ID, a.RBs, dep.AdmittedRates[task.ID])
		}
	}
	if err := in.Check(dep.Solution.Assignments); err != nil {
		t.Fatalf("deployed solution fails its instance's Check: %v", err)
	}
	if mem := dep.Solution.Breakdown.MemoryGB; mem <= 0 || mem > in.Res.MemoryGB {
		t.Fatalf("deployed memory %v outside (0, %v]", mem, in.Res.MemoryGB)
	}
	if len(dep.Solution.Breakdown.ActiveBlocks) == 0 {
		t.Fatal("no blocks deployed")
	}
}

func TestEmulatorMeetsLatencyTargets(t *testing.T) {
	// Fig. 11: the emulated end-to-end latencies of all admitted tasks
	// stay within their targets.
	in, dep := smallDeployment(t, 5)
	em, err := NewEmulator(in, dep, DefaultEmulatorConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := em.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.framesServed == 0 {
		t.Fatal("no frames served")
	}
	for _, tr := range res.Traces {
		if len(tr.Samples) == 0 {
			continue // rejected task
		}
		// Allow a small violation tail from jitter; the paper's moving
		// average stays below target, so the violation fraction must be
		// tiny.
		frac := float64(tr.Violations) / float64(len(tr.Samples))
		if frac > 0.02 {
			t.Fatalf("task %s violates latency in %.1f%% of samples", tr.TaskID, frac*100)
		}
	}
}

func TestEmulatorServesExpectedFrameCounts(t *testing.T) {
	in, dep := smallDeployment(t, 3)
	cfg := DefaultEmulatorConfig()
	cfg.duration = 10 * time.Second
	cfg.arrivalJitter = 0
	em, err := NewEmulator(in, dep, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := em.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Three tasks at 5 req/s for 10 s ≈ 150 frames (±startup offsets).
	if res.framesServed < 120 || res.framesServed > 160 {
		t.Fatalf("frames served %d, want ≈150", res.framesServed)
	}
	for _, tr := range res.Traces {
		if tr.dropped != 0 {
			t.Fatalf("task %s dropped %d frames (drain horizon too short?)", tr.TaskID, tr.dropped)
		}
	}
}

func TestEmulatorLatencyDominatedByDesignValues(t *testing.T) {
	// Without jitter the steady-state latency equals tx + proc exactly.
	in, dep := smallDeployment(t, 1)
	cfg := EmulatorConfig{duration: 5 * time.Second, seed: 7}
	em, err := NewEmulator(in, dep, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := em.Run()
	if err != nil {
		t.Fatal(err)
	}
	a := dep.Solution.Assignments[0]
	if !a.Admitted() {
		t.Fatal("task not admitted")
	}
	want, err := in.EndToEndLatency(&in.Tasks[0], a)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Traces[0].Samples {
		if d := s.Latency - want; d < -time.Microsecond || d > time.Millisecond {
			t.Fatalf("sample latency %v, want ≈%v", s.Latency, want)
		}
	}
}

func TestEmulatorValidation(t *testing.T) {
	in, dep := smallDeployment(t, 1)
	if _, err := NewEmulator(nil, dep, DefaultEmulatorConfig()); err == nil {
		t.Fatal("nil instance should be rejected")
	}
	if _, err := NewEmulator(in, dep, EmulatorConfig{}); err == nil {
		t.Fatal("zero duration should be rejected")
	}
}

func TestEmulatorFractionalAdmissionRates(t *testing.T) {
	// High-load large scenario: some tasks get fractional z. The emulator
	// must pace those UEs at z·λ, and every served frame must still meet
	// its latency target.
	in, err := workload.LargeScenario(workload.LoadHigh)
	if err != nil {
		t.Fatal(err)
	}
	c := NewController(in.Res)
	dep, err := c.Admit(in.Tasks, in.Blocks, in.Alpha)
	if err != nil {
		t.Fatal(err)
	}
	fractional := ""
	for i, a := range dep.Solution.Assignments {
		if a.Z > 0.01 && a.Z < 0.99 {
			fractional = in.Tasks[i].ID
			break
		}
	}
	if fractional == "" {
		t.Fatal("high load produced no fractional admission (scenario drift?)")
	}
	cfg := DefaultEmulatorConfig()
	cfg.duration = 10 * time.Second
	cfg.arrivalJitter = 0
	em, err := NewEmulator(in, dep, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := em.Run()
	if err != nil {
		t.Fatal(err)
	}
	// The fractional task's served frames ≈ z·λ·duration, far below λ·duration.
	for i, tr := range res.Traces {
		if tr.TaskID != fractional {
			continue
		}
		a := dep.Solution.Assignments[i]
		want := a.Z * in.Tasks[i].Rate * cfg.duration.Seconds()
		got := float64(len(tr.Samples))
		if got < want*0.7 || got > want*1.3 {
			t.Fatalf("fractional task served %v frames, want ≈%.0f (z=%.2f)", got, want, a.Z)
		}
		full := in.Tasks[i].Rate * cfg.duration.Seconds()
		if got > 0.8*full {
			t.Fatalf("fractional task not throttled: %v of %v frames", got, full)
		}
	}
	total := 0
	violations := 0
	for _, tr := range res.Traces {
		total += len(tr.Samples)
		violations += tr.Violations
	}
	if total == 0 {
		t.Fatal("nothing served")
	}
	if frac := float64(violations) / float64(total); frac > 0.02 {
		t.Fatalf("latency violations in %.1f%% of frames", frac*100)
	}
}
