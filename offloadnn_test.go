package offloadnn

import (
	"context"
	"testing"
	"time"

	"offloadnn/internal/core"
	"offloadnn/internal/edge"
	"offloadnn/internal/experiments"
	"offloadnn/internal/workload"
)

func TestPublicAPISolveSmallScenario(t *testing.T) {
	in, err := SmallScenario(3)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(in, sol.Assignments); err != nil {
		t.Fatal(err)
	}
	if sol.Breakdown.AdmittedTasks != 3 {
		t.Fatalf("admitted %d/3", sol.Breakdown.AdmittedTasks)
	}
}

func TestPublicAPIOptimalAndBaseline(t *testing.T) {
	in, err := SmallScenario(2)
	if err != nil {
		t.Fatal(err)
	}
	opt, stats, err := core.SolveOptimal(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if stats.BranchesExplored == 0 {
		t.Fatal("no branches explored")
	}
	h, err := Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Cost > h.Cost+1e-9 {
		t.Fatalf("optimum %v worse than heuristic %v", opt.Cost, h.Cost)
	}
	rep, err := SolveSEMORAN(in, DefaultSEMORANConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.AdmittedTasks == 0 {
		t.Fatal("baseline admitted nothing")
	}
}

func TestPublicAPIHandBuiltInstance(t *testing.T) {
	in := &Instance{
		Blocks: map[string]BlockSpec{
			"backbone": {ID: "backbone", ComputeSeconds: 0.004, MemoryGB: 0.5},
			"head":     {ID: "head", ComputeSeconds: 0.002, MemoryGB: 0.3, TrainSeconds: 50},
		},
		Res: Resources{
			RBs: 20, ComputeSeconds: 1, MemoryGB: 4, TrainBudgetSeconds: 500,
			Capacity: PaperCapacity(),
		},
		Alpha: 0.5,
		Tasks: []Task{{
			ID: "detect-cars", Priority: 0.9, Rate: 4, MinAccuracy: 0.7,
			MaxLatency: 400 * time.Millisecond, InputBits: 350e3, SNRdB: 15,
			Paths: []PathSpec{{
				ID: "full", DNN: "resnet18", Blocks: []string{"backbone", "head"}, Accuracy: 0.85,
			}},
		}},
	}
	sol, err := Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	a := sol.Assignments[0]
	if !a.Admitted() || a.Z < 0.999 {
		t.Fatalf("task not fully admitted: %+v", a)
	}
	if a.RBs <= 0 {
		t.Fatal("no RBs allocated")
	}
}

func TestPublicAPIControllerAndEmulator(t *testing.T) {
	in, err := SmallScenario(2)
	if err != nil {
		t.Fatal(err)
	}
	c := edge.NewController(in.Res)
	dep, err := c.Admit(in.Tasks, in.Blocks, in.Alpha)
	if err != nil {
		t.Fatal(err)
	}
	em, err := edge.NewEmulator(in, dep, edge.DefaultEmulatorConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := em.Run()
	if err != nil {
		t.Fatal(err)
	}
	served := 0
	for _, tr := range res.Traces {
		served += len(tr.Samples)
	}
	if served == 0 {
		t.Fatal("emulator served nothing")
	}
}

func TestPublicAPIExperiments(t *testing.T) {
	if len(experiments.All()) < 10 {
		t.Fatalf("only %d experiments registered", len(experiments.All()))
	}
	e, err := experiments.ByID("table1")
	if err != nil {
		t.Fatal(err)
	}
	tables, err := e.Run(experiments.Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) == 0 {
		t.Fatal("no tables")
	}
}

func TestPublicAPILargeScenarioLoads(t *testing.T) {
	for _, load := range []Load{workload.LoadLow, LoadMedium, workload.LoadHigh} {
		in, err := LargeScenario(load)
		if err != nil {
			t.Fatal(err)
		}
		if len(in.Tasks) != 20 {
			t.Fatalf("load %v: %d tasks", load, len(in.Tasks))
		}
	}
}
