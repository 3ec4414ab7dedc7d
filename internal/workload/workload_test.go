package workload

import (
	"testing"

	"offloadnn/internal/core"
)

func TestSmallScenarioMatchesTableIV(t *testing.T) {
	in, err := SmallScenario(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Tasks) != 5 {
		t.Fatalf("%d tasks, want 5", len(in.Tasks))
	}
	if in.Res.RBs != 50 || in.Res.ComputeSeconds != 2.5 || in.Res.MemoryGB != 8 ||
		in.Res.TrainBudgetSeconds != 1000 || in.Alpha != 0.5 {
		t.Fatalf("resources %+v do not match Table IV", in.Res)
	}
	wantA := []float64{0.9, 0.8, 0.7, 0.6, 0.5}
	wantP := []float64{0.8, 0.7, 0.6, 0.5, 0.4}
	for i, task := range in.Tasks {
		if task.Rate != 5 {
			t.Fatalf("task %d rate %v, want 5", i, task.Rate)
		}
		if task.MinAccuracy != wantA[i] {
			t.Fatalf("task %d accuracy %v, want %v", i, task.MinAccuracy, wantA[i])
		}
		if task.Priority != wantP[i] {
			t.Fatalf("task %d priority %v, want %v", i, task.Priority, wantP[i])
		}
		wantL := int64(200+100*i) * 1e6
		if task.MaxLatency.Nanoseconds() != wantL {
			t.Fatalf("task %d latency %v", i, task.MaxLatency)
		}
		if len(task.Paths) != 15 { // |D|=3 × |Π|=5
			t.Fatalf("task %d has %d paths, want 15", i, len(task.Paths))
		}
		if task.InputBits != 350e3 {
			t.Fatalf("task %d β = %v, want 350 Kb", i, task.InputBits)
		}
	}
	if _, err := SmallScenario(0); err == nil {
		t.Fatal("0 tasks should be rejected")
	}
	if _, err := SmallScenario(6); err == nil {
		t.Fatal("6 tasks should be rejected")
	}
}

func TestLargeScenarioMatchesTableIV(t *testing.T) {
	in, err := LargeScenario(LoadMedium)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Tasks) != 20 {
		t.Fatalf("%d tasks, want 20", len(in.Tasks))
	}
	if in.Res.RBs != 100 || in.Res.ComputeSeconds != 10 || in.Res.MemoryGB != 16 {
		t.Fatalf("resources %+v do not match Table IV", in.Res)
	}
	for i, task := range in.Tasks {
		tau := float64(i + 1)
		if task.Rate != 5 {
			t.Fatalf("task %d rate %v at medium load", i, task.Rate)
		}
		if want := 1 - 0.05*(tau-1); task.Priority != want {
			t.Fatalf("task %d priority %v, want %v", i, task.Priority, want)
		}
		if want := 0.8 - 0.015*tau; task.MinAccuracy != want {
			t.Fatalf("task %d accuracy %v, want %v", i, task.MinAccuracy, want)
		}
		if len(task.Paths) != 1250 { // |D|=125 × |Π|=10
			t.Fatalf("task %d has %d paths, want 1250", i, len(task.Paths))
		}
	}
	low, _ := LargeScenario(LoadLow)
	high, _ := LargeScenario(LoadHigh)
	if low.Tasks[0].Rate != 2.5 || high.Tasks[0].Rate != 7.5 {
		t.Fatalf("load rates: low %v, high %v", low.Tasks[0].Rate, high.Tasks[0].Rate)
	}
	if _, err := LargeScenario(Load(9)); err == nil {
		t.Fatal("unknown load should error")
	}
}

func TestCatalogBlockSharingAcrossTasks(t *testing.T) {
	in, err := SmallScenario(3)
	if err != nil {
		t.Fatal(err)
	}
	// Base blocks are shared across tasks: the catalog should contain one
	// base block per stage (plus pruned variants), not per task.
	baseCount := 0
	ftByTask := map[string]int{}
	for id := range in.Blocks {
		switch {
		case len(id) >= 4 && id[:4] == "base":
			baseCount++
		case len(id) >= 2 && id[:2] == "ft":
			ftByTask[id[3:9]]++ // "ft/task-N" prefix region
		}
	}
	if baseCount == 0 || baseCount > 8 {
		t.Fatalf("base block count %d, want 1..8 (4 stages × ≤2 variants)", baseCount)
	}
	if len(ftByTask) == 0 {
		t.Fatal("no task-specific fine-tuned blocks generated")
	}
}

func TestCatalogPrunedCheaper(t *testing.T) {
	in, err := SmallScenario(1)
	if err != nil {
		t.Fatal(err)
	}
	for stage := 1; stage <= 4; stage++ {
		full, okF := in.Blocks[SmallCatalogParams().baseBlockID(stage, false)]
		pruned, okP := in.Blocks[SmallCatalogParams().baseBlockID(stage, true)]
		if !okF || !okP {
			continue
		}
		if pruned.ComputeSeconds >= full.ComputeSeconds {
			t.Fatalf("stage %d pruned compute %v >= full %v", stage, pruned.ComputeSeconds, full.ComputeSeconds)
		}
		if pruned.MemoryGB >= full.MemoryGB {
			t.Fatalf("stage %d pruned memory %v >= full %v", stage, pruned.MemoryGB, full.MemoryGB)
		}
	}
}

func TestCatalogAccuracyStructure(t *testing.T) {
	p := SmallCatalogParams()
	// Fully fine-tuned unpruned ≈ base accuracy.
	top := p.accuracy(0, 0, 0, pathShape{})
	if top < p.baseAccuracy-0.011 || top > p.baseAccuracy+0.011 {
		t.Fatalf("full path accuracy %v, want ≈ %v", top, p.baseAccuracy)
	}
	// A path whose final stage is shared loses the big penalty.
	generic := p.accuracy(0, 0, 0, pathShape{sharedPrefix: 4})
	if generic > p.baseAccuracy-p.sharedStage4Penalty+0.05 {
		t.Fatalf("generic-final-stage accuracy %v too high", generic)
	}
	// Pruning monotonically reduces accuracy.
	pr := p.accuracy(0, 0, 0, pathShape{ftPruned: true})
	if pr >= top+0.021 {
		t.Fatalf("pruned accuracy %v not below full %v (beyond jitter)", pr, top)
	}
}

func TestScenarioDeterminism(t *testing.T) {
	a, err := SmallScenario(3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SmallScenario(3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Tasks {
		for j := range a.Tasks[i].Paths {
			if a.Tasks[i].Paths[j].Accuracy != b.Tasks[i].Paths[j].Accuracy {
				t.Fatal("scenario generation is not deterministic")
			}
		}
	}
}

func TestSmallScenarioSolvesWithFullAdmission(t *testing.T) {
	// Paper Fig. 8: all five tasks are fully admitted in the small scenario.
	in, err := SmallScenario(5)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := core.SolveOffloaDNN(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Check(sol.Assignments); err != nil {
		t.Fatal(err)
	}
	for _, a := range sol.Assignments {
		if a.Z < 1-1e-6 {
			t.Fatalf("task %s admitted at z = %v, want 1", a.TaskID, a.Z)
		}
	}
	// Fig. 7: memory usage stays well below the budget (paper: ≤ 64%).
	if sol.Breakdown.MemoryGB > 0.64*in.Res.MemoryGB {
		t.Fatalf("memory %v exceeds 64%% of %v", sol.Breakdown.MemoryGB, in.Res.MemoryGB)
	}
}

func TestHeterogeneousScenarioTwoFamilies(t *testing.T) {
	in, err := HeterogeneousScenario(LoadMedium)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Tasks) != 20 {
		t.Fatalf("%d tasks, want 20", len(in.Tasks))
	}
	// 85 ResNet + 40 lite DNNs × 10 paths each.
	if got := len(in.Tasks[0].Paths); got != 1250 {
		t.Fatalf("task has %d paths, want 1250", got)
	}
	families := map[string]bool{}
	for _, p := range in.Tasks[0].Paths {
		if len(p.DNN) >= 5 && p.DNN[:5] == "lite-" {
			families["lite"] = true
		} else {
			families["resnet"] = true
		}
	}
	if !families["lite"] || !families["resnet"] {
		t.Fatalf("catalog families %v, want both", families)
	}
	sol, err := core.SolveOffloaDNN(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Check(sol.Assignments); err != nil {
		t.Fatal(err)
	}
	// The lite family clears every accuracy floor here, so the heuristic
	// must exploit it for at least some tasks and beat the ResNet-only
	// catalog on compute.
	single, err := LargeScenario(LoadMedium)
	if err != nil {
		t.Fatal(err)
	}
	base, err := core.SolveOffloaDNN(single)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Breakdown.ComputeUsage >= base.Breakdown.ComputeUsage {
		t.Fatalf("hetero compute %v not below resnet-only %v",
			sol.Breakdown.ComputeUsage, base.Breakdown.ComputeUsage)
	}
}

func TestHeterogeneousAccuracyFloorPinsToResNet(t *testing.T) {
	in, err := HeterogeneousScenario(LoadLow)
	if err != nil {
		t.Fatal(err)
	}
	// Raise task 1's floor above the lite ceiling (0.89): it must be
	// served by a ResNet path or rejected, never by a lite path.
	in.Tasks[0].MinAccuracy = 0.9
	sol, err := core.SolveOffloaDNN(in)
	if err != nil {
		t.Fatal(err)
	}
	a := sol.Assignments[0]
	if a.Admitted() && len(a.Path.DNN) >= 5 && a.Path.DNN[:5] == "lite-" {
		t.Fatalf("accuracy-0.9 task served by lite path %s (acc %v)", a.Path.DNN, a.Path.Accuracy)
	}
}
