package semoran

import (
	"testing"

	"offloadnn/internal/core"
	"offloadnn/internal/workload"
)

func largeInstance(t *testing.T, load workload.Load) *core.Instance {
	t.Helper()
	in, err := workload.LargeScenario(load)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestSolveProducesFeasibleBinaryAdmission(t *testing.T) {
	in := largeInstance(t, workload.LoadMedium)
	rep, err := Solve(in, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(in, rep); err != nil {
		t.Fatalf("infeasible report: %v", err)
	}
	if rep.AdmittedTasks == 0 {
		t.Fatal("nothing admitted")
	}
	for _, d := range rep.Decisions {
		if d.Admitted && d.path == nil {
			t.Fatalf("admitted task %s has no path", d.TaskID)
		}
		if d.Admitted && d.RBs <= 0 {
			t.Fatalf("admitted task %s has no RBs", d.TaskID)
		}
	}
}

func TestAdmissionIsValueOrdered(t *testing.T) {
	// With uniform per-task demands, a rejected task must not outrank an
	// admitted one: greedy admits by priority.
	in := largeInstance(t, workload.LoadHigh)
	rep, err := Solve(in, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	lowestAdmitted := 2.0
	highestRejected := -1.0
	for ti, d := range rep.Decisions {
		p := in.Tasks[ti].Priority
		if d.Admitted && p < lowestAdmitted {
			lowestAdmitted = p
		}
		if !d.Admitted && p > highestRejected {
			highestRejected = p
		}
	}
	if highestRejected > lowestAdmitted+1e-9 {
		t.Fatalf("rejected priority %v above admitted %v", highestRejected, lowestAdmitted)
	}
}

func TestNoSharingChargesMemoryPerTask(t *testing.T) {
	in := largeInstance(t, workload.LoadLow)
	rep, err := Solve(in, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Each admitted task carries a full private DNN (~1.06 GB); total
	// memory must scale ~linearly with admissions, far above what a
	// shared deployment would need.
	perTask := rep.MemoryGB / float64(rep.AdmittedTasks)
	if perTask < 0.8 {
		t.Fatalf("per-task memory %v GB too low for unshared full DNNs", perTask)
	}
}

func TestUsesFullAccuracyPath(t *testing.T) {
	in := largeInstance(t, workload.LoadLow)
	rep, err := Solve(in, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for ti, d := range rep.Decisions {
		if !d.Admitted {
			continue
		}
		for _, p := range in.Tasks[ti].Paths {
			if p.Accuracy > d.path.Accuracy+1e-12 {
				t.Fatalf("task %s uses path acc %v but %v exists (baseline must pick the full DNN)",
					d.TaskID, d.path.Accuracy, p.Accuracy)
			}
		}
	}
}

func TestFewerAdmissionsThanOffloaDNNAtEveryLoad(t *testing.T) {
	// The paper's headline: OffloaDNN admits more tasks at every load.
	for _, load := range []workload.Load{workload.LoadLow, workload.LoadMedium, workload.LoadHigh} {
		in := largeInstance(t, load)
		rep, err := Solve(in, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		sol, err := core.SolveOffloaDNN(in)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Breakdown.AdmittedTasks <= rep.AdmittedTasks {
			t.Fatalf("load %v: OffloaDNN admitted %d, SEM-O-RAN %d",
				load, sol.Breakdown.AdmittedTasks, rep.AdmittedTasks)
		}
		if sol.Breakdown.MemoryGB >= rep.MemoryGB {
			t.Fatalf("load %v: OffloaDNN memory %v not below SEM-O-RAN %v",
				load, sol.Breakdown.MemoryGB, rep.MemoryGB)
		}
		if sol.Breakdown.ComputeUsage >= rep.ComputeUsage {
			t.Fatalf("load %v: OffloaDNN compute %v not below SEM-O-RAN %v",
				load, sol.Breakdown.ComputeUsage, rep.ComputeUsage)
		}
	}
}

func TestCompressionEngagesWhenLatencyTight(t *testing.T) {
	in := largeInstance(t, workload.LoadLow)
	// Make the first task's latency bound very tight: without compression
	// the needed RBs explode; compression should keep it admittable.
	in.Tasks[0].MaxLatency = in.Tasks[0].MaxLatency / 10 // 22 ms
	rep, err := Solve(in, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	d := rep.Decisions[0]
	if d.Admitted && d.compression.Ratio >= 1 {
		// With 13.5 ms of slack and 350 Kb input, the uncompressed slice
		// needs ~74 RBs; the compressed one proportionally fewer. Either
		// rejection or compressed admission is acceptable; uncompressed
		// admission with few RBs would violate latency (Check catches it).
		if d.RBs < 70 {
			t.Fatalf("task admitted uncompressed with only %d RBs", d.RBs)
		}
	}
	if err := Check(in, rep); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyConfigFallsBackToDefault(t *testing.T) {
	in := largeInstance(t, workload.LoadLow)
	rep, err := Solve(in, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.AdmittedTasks == 0 {
		t.Fatal("empty config should fall back to defaults and admit tasks")
	}
}

func TestInvalidInstanceRejected(t *testing.T) {
	in := &core.Instance{}
	if _, err := Solve(in, DefaultConfig()); err == nil {
		t.Fatal("invalid instance should error")
	}
}

func TestCheckDetectsViolations(t *testing.T) {
	in := largeInstance(t, workload.LoadLow)
	rep, err := Solve(in, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Starve an admitted task's slice: Check must flag latency or rate.
	bad := *rep
	bad.Decisions = append([]Decision(nil), rep.Decisions...)
	for i := range bad.Decisions {
		if bad.Decisions[i].Admitted {
			bad.Decisions[i].RBs = 1
			break
		}
	}
	if err := Check(in, &bad); err == nil {
		t.Fatal("starved slice not detected")
	}
	// Violate accuracy via an impossible floor.
	in2 := largeInstance(t, workload.LoadLow)
	rep2, err := Solve(in2, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range in2.Tasks {
		if rep2.Decisions[i].Admitted {
			in2.Tasks[i].MinAccuracy = 0.999
			break
		}
	}
	if err := Check(in2, rep2); err == nil {
		t.Fatal("accuracy violation not detected")
	}
}

func TestDominantShareBalancesTies(t *testing.T) {
	// Two candidates with equal priority: the one with the smaller maximum
	// normalized demand must be admitted first when only one fits.
	in := largeInstance(t, workload.LoadLow)
	share := dominantShare(in, 8.0, 0.1, 10)  // memory-dominant: 8/16 = 0.5
	share2 := dominantShare(in, 1.0, 0.1, 60) // RB-dominant: 60/100 = 0.6
	if share >= share2 {
		t.Fatalf("dominant shares %v vs %v, want first smaller", share, share2)
	}
}
