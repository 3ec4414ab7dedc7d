package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"offloadnn/internal/radio"
)

// testInstance builds a deterministic DOT instance with nTasks tasks and
// nPaths candidate paths each. Paths share a pool of base blocks and add
// task-specific variants, exercising the sharing machinery.
func testInstance(nTasks, nPaths int, seed int64) *Instance {
	rng := rand.New(rand.NewSource(seed))
	in := &Instance{
		Blocks: make(map[string]BlockSpec),
		Res: Resources{
			RBs:                50,
			ComputeSeconds:     2.5,
			MemoryGB:           8,
			TrainBudgetSeconds: 1000,
			Capacity:           radio.PaperRate(),
		},
		Alpha: 0.5,
	}
	// Shared base blocks (pre-trained: no training cost).
	for s := 1; s <= 4; s++ {
		id := fmt.Sprintf("base/stage%d", s)
		in.Blocks[id] = BlockSpec{
			ID:             id,
			ComputeSeconds: 0.002 * float64(s),
			MemoryGB:       0.15 * float64(s),
		}
	}
	for t := 0; t < nTasks; t++ {
		task := Task{
			ID:          fmt.Sprintf("task-%d", t),
			Priority:    0.8 - 0.1*float64(t%5),
			Rate:        5,
			MinAccuracy: 0.5 + 0.08*float64(t%5),
			MaxLatency:  time.Duration(200+100*(t%5)) * time.Millisecond,
			InputBits:   350e3,
			SNRdB:       10,
		}
		for p := 0; p < nPaths; p++ {
			// Every path reuses the shared base stages 1–3 and ends in a
			// task-specific (fine-tuned) stage-4 variant at increasing
			// prune level: later paths are cheaper but less accurate —
			// the structure of the paper's catalog.
			pruneLevel := float64(p) / float64(nPaths)
			blocks := []string{"base/stage1", "base/stage2", "base/stage3"}
			id := fmt.Sprintf("task%d/stage4/v%d", t, p)
			if _, ok := in.Blocks[id]; !ok {
				in.Blocks[id] = BlockSpec{
					ID:             id,
					ComputeSeconds: 0.008 * (1 - 0.8*pruneLevel),
					MemoryGB:       0.6 * (1 - 0.8*pruneLevel),
					TrainSeconds:   70 * (1 - 0.3*pruneLevel),
				}
			}
			blocks = append(blocks, id)
			task.Paths = append(task.Paths, PathSpec{
				ID:       fmt.Sprintf("π%d", p),
				DNN:      fmt.Sprintf("dnn-%d", p%3),
				Blocks:   blocks,
				Accuracy: 0.95 - 0.3*pruneLevel - 0.02*rng.Float64(),
			})
		}
		in.Tasks = append(in.Tasks, task)
	}
	return in
}

func TestValidateCatchesModelErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Instance)
	}{
		{"no tasks", func(in *Instance) { in.Tasks = nil }},
		{"bad alpha", func(in *Instance) { in.Alpha = 1.5 }},
		{"nil capacity", func(in *Instance) { in.Res.Capacity = nil }},
		{"zero train budget", func(in *Instance) { in.Res.TrainBudgetSeconds = 0 }},
		{"duplicate IDs", func(in *Instance) { in.Tasks[1].ID = in.Tasks[0].ID }},
		{"bad priority", func(in *Instance) { in.Tasks[0].Priority = 2 }},
		{"zero rate", func(in *Instance) { in.Tasks[0].Rate = 0 }},
		{"zero latency", func(in *Instance) { in.Tasks[0].MaxLatency = 0 }},
		{"zero bits", func(in *Instance) { in.Tasks[0].InputBits = 0 }},
		{"unknown block", func(in *Instance) { in.Tasks[0].Paths[0].Blocks = []string{"ghost"} }},
		{"empty path", func(in *Instance) { in.Tasks[0].Paths[0].Blocks = nil }},
		{"negative capacity", func(in *Instance) { in.Res.MemoryGB = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := testInstance(3, 3, 1)
			tc.mutate(in)
			if err := in.Validate(); !errors.Is(err, errModel) {
				t.Fatalf("Validate = %v, want ErrModel", err)
			}
		})
	}
	if err := testInstance(3, 3, 1).Validate(); err != nil {
		t.Fatalf("valid instance rejected: %v", err)
	}
}

func TestEvaluateHandComputed(t *testing.T) {
	in := &Instance{
		Blocks: map[string]BlockSpec{
			"b1": {ID: "b1", ComputeSeconds: 0.01, MemoryGB: 1, TrainSeconds: 100},
			"b2": {ID: "b2", ComputeSeconds: 0.02, MemoryGB: 2, TrainSeconds: 0},
		},
		Res: Resources{
			RBs: 10, ComputeSeconds: 1, MemoryGB: 10, TrainBudgetSeconds: 1000,
			Capacity: radio.FixedRate{Rate: 1e6},
		},
		Alpha: 0.5,
		Tasks: []Task{
			{ID: "t1", Priority: 0.8, Rate: 4, MaxLatency: time.Second, InputBits: 1e5,
				Paths: []PathSpec{{ID: "p", DNN: "d", Blocks: []string{"b1", "b2"}, Accuracy: 0.9}}},
			{ID: "t2", Priority: 0.5, Rate: 2, MaxLatency: time.Second, InputBits: 1e5,
				Paths: []PathSpec{{ID: "p", DNN: "d", Blocks: []string{"b2"}, Accuracy: 0.9}}},
		},
	}
	asg := []Assignment{
		{TaskID: "t1", Path: &in.Tasks[0].Paths[0], Z: 1, RBs: 2},
		{TaskID: "t2", Path: nil, Z: 0},
	}
	bd, err := in.evaluate(asg)
	if err != nil {
		t.Fatal(err)
	}
	// Admission: 0.5·(0·0.8 + 1·0.5) = 0.25.
	if math.Abs(bd.AdmissionTerm-0.25) > 1e-12 {
		t.Fatalf("admission term %v, want 0.25", bd.AdmissionTerm)
	}
	// Train: 0.5·100/1000 = 0.05 (only b1 carries cost; b2 is base).
	if math.Abs(bd.TrainTerm-0.05) > 1e-12 {
		t.Fatalf("train term %v, want 0.05", bd.TrainTerm)
	}
	// Radio: 0.5·1·2/10 = 0.1 (allocated-RB fraction, not rate-scaled).
	if math.Abs(bd.RadioTerm-0.1) > 1e-12 {
		t.Fatalf("radio term %v, want 0.1", bd.RadioTerm)
	}
	// Inference: 0.5·1·4·0.03/1 = 0.06.
	if math.Abs(bd.InferTerm-0.06) > 1e-12 {
		t.Fatalf("infer term %v, want 0.06", bd.InferTerm)
	}
	if math.Abs(bd.MemoryGB-3) > 1e-12 {
		t.Fatalf("memory %v, want 3 (b1+b2 once)", bd.MemoryGB)
	}
	if bd.AdmittedTasks != 1 || bd.fullyAdmittedTasks != 1 {
		t.Fatalf("admitted counts %d/%d, want 1/1", bd.AdmittedTasks, bd.fullyAdmittedTasks)
	}
	if math.Abs(bd.costValue()-(0.25+0.05+0.1+0.06)) > 1e-12 {
		t.Fatalf("cost %v", bd.costValue())
	}
}

func TestCheckDetectsViolations(t *testing.T) {
	in := testInstance(2, 2, 3)
	sol, err := SolveOffloaDNN(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Check(sol.Assignments); err != nil {
		t.Fatalf("solver produced infeasible solution: %v", err)
	}
	// Violate (1e): shrink the slice below the admitted rate need.
	bad := append([]Assignment(nil), sol.Assignments...)
	for i := range bad {
		if bad[i].Admitted() {
			bad[i].RBs = 0
			break
		}
	}
	if err := in.Check(bad); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("Check = %v, want ErrInfeasible for starved slice", err)
	}
	// Violate (1f): lower the path accuracy below the requirement.
	bad2 := append([]Assignment(nil), sol.Assignments...)
	for i := range bad2 {
		if bad2[i].Admitted() {
			p := *bad2[i].Path
			p.Accuracy = 0
			bad2[i].Path = &p
			break
		}
	}
	if err := in.Check(bad2); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("Check = %v, want ErrInfeasible for bad accuracy", err)
	}
	// Violate z range.
	bad3 := append([]Assignment(nil), sol.Assignments...)
	bad3[0].Z = 1.5
	if err := in.Check(bad3); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("Check = %v, want ErrInfeasible for z out of range", err)
	}
}

func TestBuildTreeOrdersAndFilters(t *testing.T) {
	in := testInstance(5, 4, 4)
	tree, err := BuildTree(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Layers) != 5 {
		t.Fatalf("%d layers, want 5", len(tree.Layers))
	}
	// Layers in descending priority.
	prev := 2.0
	for _, l := range tree.Layers {
		p := in.Tasks[l.TaskIndex].Priority
		if p > prev {
			t.Fatalf("layers not in descending priority: %v after %v", p, prev)
		}
		prev = p
	}
	for li, l := range tree.Layers {
		task := &in.Tasks[l.TaskIndex]
		if !l.Vertices[len(l.Vertices)-1].reject() {
			t.Fatalf("layer %d missing trailing reject vertex", li)
		}
		prevC := -1.0
		for _, v := range l.Vertices[:len(l.Vertices)-1] {
			if v.path.Accuracy < task.MinAccuracy {
				t.Fatalf("layer %d kept accuracy-infeasible vertex", li)
			}
			if time.Duration(v.compute*float64(time.Second)) > task.MaxLatency {
				t.Fatalf("layer %d kept latency-infeasible vertex", li)
			}
			if v.compute < prevC {
				t.Fatalf("layer %d vertices not sorted by compute", li)
			}
			prevC = v.compute
		}
	}
	if tree.NumBranches() <= 1 {
		t.Fatalf("NumBranches = %v", tree.NumBranches())
	}
}

func TestTreeFiltersAllPathsWhenAccuracyImpossible(t *testing.T) {
	in := testInstance(2, 3, 5)
	in.Tasks[0].MinAccuracy = 0.999 // nothing attains this
	tree, err := BuildTree(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range tree.Layers {
		if in.Tasks[l.TaskIndex].ID == "task-0" {
			if len(l.Vertices) != 1 || !l.Vertices[0].reject() {
				t.Fatalf("expected only the reject vertex, got %d vertices", len(l.Vertices))
			}
		}
	}
	// The heuristic must still solve, rejecting task-0.
	sol, err := SolveOffloaDNN(in)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range sol.Assignments {
		if in.Tasks[i].ID == "task-0" && a.Admitted() {
			t.Fatal("accuracy-impossible task was admitted")
		}
	}
}

func TestAllocatorAdmitsAllUnderAmpleResources(t *testing.T) {
	in := testInstance(3, 3, 6)
	sol, err := SolveOffloaDNN(in)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range sol.Assignments {
		if !a.Admitted() || a.Z < 0.999 {
			t.Fatalf("task %s admitted z=%v, want 1 under ample resources", in.Tasks[i].ID, a.Z)
		}
		if a.RBs <= 0 {
			t.Fatalf("admitted task %s has no RBs", in.Tasks[i].ID)
		}
	}
}

func TestAllocatorShedsLoadUnderRBPressure(t *testing.T) {
	in := testInstance(5, 3, 7)
	in.Res.RBs = 12 // five tasks at 5 req/s need ~5 RBs each
	sol, err := SolveOffloaDNN(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Check(sol.Assignments); err != nil {
		t.Fatalf("infeasible under pressure: %v", err)
	}
	full := 0
	for _, a := range sol.Assignments {
		if a.Z > 0.999 {
			full++
		}
	}
	if full == len(sol.Assignments) {
		t.Fatal("RB pressure did not reduce any admission")
	}
	// Higher-priority tasks should not be starved while lower-priority
	// ones are fully admitted (priority-guided shedding).
	if sol.Breakdown.WeightedAdmission <= 0 {
		t.Fatal("everything was rejected")
	}
}

func TestAllocatorRejectsLatencyImpossibleTask(t *testing.T) {
	in := testInstance(2, 2, 8)
	in.Tasks[0].MaxLatency = 25 * time.Millisecond // c_path ~20ms leaves ~5ms for 350Kb: needs 200 RBs > R
	sol, err := SolveOffloaDNN(in)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range sol.Assignments {
		if in.Tasks[i].ID == "task-0" && a.Admitted() {
			lat, _ := in.EndToEndLatency(&in.Tasks[i], a)
			t.Fatalf("latency-impossible task admitted (lat=%v)", lat)
		}
	}
}

func TestOptimalNeverWorseThanHeuristic(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		in := testInstance(3, 3, seed)
		h, err := SolveOffloaDNN(in)
		if err != nil {
			t.Fatal(err)
		}
		o, stats, err := SolveOptimal(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		if o.Cost > h.Cost+1e-9 {
			t.Fatalf("seed %d: optimal cost %v > heuristic %v", seed, o.Cost, h.Cost)
		}
		if err := in.Check(o.Assignments); err != nil {
			t.Fatalf("optimal solution infeasible: %v", err)
		}
		if stats.BranchesExplored < 1 {
			t.Fatal("optimal explored no branches")
		}
	}
}

func TestHeuristicCloseToOptimalOnSmallInstances(t *testing.T) {
	// Fig. 7: OffloaDNN matches the optimum very closely.
	worst := 0.0
	for seed := int64(1); seed <= 8; seed++ {
		in := testInstance(3, 4, seed+100)
		h, err := SolveOffloaDNN(in)
		if err != nil {
			t.Fatal(err)
		}
		o, _, err := SolveOptimal(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		if o.Cost <= 0 {
			continue
		}
		gap := (h.Cost - o.Cost) / o.Cost
		if gap > worst {
			worst = gap
		}
	}
	if worst > 0.25 {
		t.Fatalf("worst heuristic/optimal gap %.1f%% exceeds 25%%", worst*100)
	}
}

func TestMemoryPressureForcesSharing(t *testing.T) {
	in := testInstance(4, 3, 9)
	// Tight memory: only heavily shared/pruned paths can coexist.
	in.Res.MemoryGB = 2.2
	sol, err := SolveOffloaDNN(in)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Breakdown.MemoryGB > in.Res.MemoryGB {
		t.Fatalf("memory %v exceeds budget %v", sol.Breakdown.MemoryGB, in.Res.MemoryGB)
	}
	if sol.Breakdown.AdmittedTasks == 0 {
		t.Fatal("tight memory rejected everything; expected sharing to save some tasks")
	}
}

func TestPredeployedBlocksAreFree(t *testing.T) {
	in := testInstance(2, 2, 10)
	sol, err := SolveOffloaDNN(in)
	if err != nil {
		t.Fatal(err)
	}
	// Mark every active block as predeployed and re-solve: memory and
	// training terms must vanish.
	in2 := testInstance(2, 2, 10)
	in2.Predeployed = make(map[string]bool)
	for _, id := range sol.Breakdown.ActiveBlocks {
		in2.Predeployed[id] = true
	}
	sol2, err := SolveOffloaDNN(in2)
	if err != nil {
		t.Fatal(err)
	}
	if sol2.Breakdown.MemoryGB > sol.Breakdown.MemoryGB {
		t.Fatal("predeployment did not reduce memory")
	}
	if sol2.Breakdown.TrainTerm > sol.Breakdown.TrainTerm {
		t.Fatal("predeployment did not reduce training cost")
	}
}

func TestHeuristicRuntimeFarBelowOptimal(t *testing.T) {
	in := testInstance(4, 4, 11)
	h, err := SolveOffloaDNN(in)
	if err != nil {
		t.Fatal(err)
	}
	o, _, err := SolveOptimal(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if h.Runtime*2 > o.Runtime {
		t.Fatalf("heuristic %v not clearly faster than optimal %v", h.Runtime, o.Runtime)
	}
}

// Property: both solvers always produce feasible solutions and the optimum
// never costs more than the heuristic.
func TestQuickSolversFeasibleAndOrdered(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nTasks := 1 + rng.Intn(3)
		nPaths := 1 + rng.Intn(3)
		in := testInstance(nTasks, nPaths, seed)
		// Random resource pressure.
		in.Res.RBs = 5 + rng.Intn(50)
		in.Res.ComputeSeconds = 0.2 + rng.Float64()*3
		in.Res.MemoryGB = 0.5 + rng.Float64()*8
		h, err := SolveOffloaDNN(in)
		if err != nil {
			return false
		}
		if err := in.Check(h.Assignments); err != nil {
			return false
		}
		o, _, err := SolveOptimal(context.Background(), in)
		if err != nil {
			return false
		}
		if err := in.Check(o.Assignments); err != nil {
			return false
		}
		return o.Cost <= h.Cost+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestReductionKnapsackToDOT(t *testing.T) {
	items := []KnapsackItem{
		{Value: 0.6, Weight: 3},
		{Value: 0.5, Weight: 2},
		{Value: 0.4, Weight: 2},
		{Value: 0.3, Weight: 1},
	}
	const capacity = 4.0
	in, err := FromKnapsack(items, capacity)
	if err != nil {
		t.Fatal(err)
	}
	sol, _, err := SolveOptimal(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	got := KnapsackValue(items, sol)
	want := SolveKnapsackDP(items, capacity, 1) // weights already integral
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("DOT knapsack value %v, want DP optimum %v", got, want)
	}
	if err := in.Check(sol.Assignments); err != nil {
		t.Fatalf("reduced solution infeasible: %v", err)
	}
}

// Property: the reduction preserves optima on random knapsack instances.
func TestQuickReductionMatchesDP(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		items := make([]KnapsackItem, n)
		total := 0.0
		for i := range items {
			items[i] = KnapsackItem{
				Value:  0.1 + 0.9*rng.Float64(),
				Weight: float64(1 + rng.Intn(5)),
			}
			total += items[i].Weight
		}
		capacity := math.Floor(total * (0.3 + 0.4*rng.Float64()))
		if capacity < 1 {
			capacity = 1
		}
		in, err := FromKnapsack(items, capacity)
		if err != nil {
			return false
		}
		sol, _, err := SolveOptimal(context.Background(), in)
		if err != nil {
			return false
		}
		got := KnapsackValue(items, sol)
		want := SolveKnapsackDP(items, capacity, 1)
		return math.Abs(got-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestFromKnapsackValidation(t *testing.T) {
	if _, err := FromKnapsack(nil, 1); !errors.Is(err, errModel) {
		t.Fatalf("empty items err = %v", err)
	}
	if _, err := FromKnapsack([]KnapsackItem{{Value: 2, Weight: 1}}, 1); !errors.Is(err, errModel) {
		t.Fatalf("value > 1 err = %v", err)
	}
	if _, err := FromKnapsack([]KnapsackItem{{Value: 0.5, Weight: -1}}, 1); !errors.Is(err, errModel) {
		t.Fatalf("negative weight err = %v", err)
	}
}
