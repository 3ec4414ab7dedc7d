package offloadnn_test

import (
	"context"
	"fmt"
	"slices"
	"time"

	"offloadnn"
)

// ExampleSolve solves a hand-built single-task instance and prints the
// admission decision.
func ExampleSolve() {
	blocks := map[string]offloadnn.BlockSpec{
		"backbone": {ID: "backbone", ComputeSeconds: 0.004, MemoryGB: 0.5},
		"head":     {ID: "head", ComputeSeconds: 0.002, MemoryGB: 0.3, TrainSeconds: 50},
	}
	in := &offloadnn.Instance{
		Blocks: blocks,
		Res: offloadnn.Resources{
			RBs: 20, ComputeSeconds: 1, MemoryGB: 4, TrainBudgetSeconds: 500,
			Capacity: offloadnn.PaperCapacity(),
		},
		Alpha: 0.5,
		Tasks: []offloadnn.Task{{
			ID: "detect-cars", Priority: 0.9, Rate: 4, MinAccuracy: 0.7,
			MaxLatency: 400 * time.Millisecond, InputBits: 350e3, SNRdB: 15,
			Paths: []offloadnn.PathSpec{{
				ID: "full", DNN: "resnet18", Blocks: []string{"backbone", "head"}, Accuracy: 0.85,
			}},
		}},
	}
	sol, err := offloadnn.Solve(context.Background(), in)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	a := sol.Assignments[0]
	fmt.Printf("%s: z=%.1f r=%d path=%s\n", a.TaskID, a.Z, a.RBs, a.Path.ID)
	// Output:
	// detect-cars: z=1.0 r=4 path=full
}

// ExampleSmallScenario builds the paper's Table-IV small-scale instance.
func ExampleSmallScenario() {
	in, err := offloadnn.SmallScenario(5)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("tasks=%d paths/task=%d R=%d C=%.1f M=%.0f\n",
		len(in.Tasks), len(in.Tasks[0].Paths),
		in.Res.RBs, in.Res.ComputeSeconds, in.Res.MemoryGB)
	// Output:
	// tasks=5 paths/task=15 R=50 C=2.5 M=8
}

// ExampleSolveSEMORAN contrasts the baseline's binary admission with
// OffloaDNN on the large medium-load scenario.
func ExampleSolveSEMORAN() {
	in, err := offloadnn.LargeScenario(offloadnn.LoadMedium)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	ours, err := offloadnn.Solve(context.Background(), in)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	baseline, err := offloadnn.SolveSEMORAN(in, offloadnn.DefaultSEMORANConfig())
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("OffloaDNN admits %d tasks; SEM-O-RAN admits %d\n",
		ours.Breakdown.AdmittedTasks, baseline.AdmittedTasks)
	// Output:
	// OffloaDNN admits 19 tasks; SEM-O-RAN admits 15
}

// ExampleBuildTree inspects the weighted tree of the small scenario.
func ExampleBuildTree() {
	in, err := offloadnn.SmallScenario(2)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	tree, err := offloadnn.BuildTree(in)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for i, layer := range tree.Layers {
		fmt.Printf("layer %d: task %s, %d vertices\n",
			i, in.Tasks[layer.TaskIndex].ID, len(layer.Vertices))
	}
	// Output:
	// layer 0: task task-1, 4 vertices
	// layer 1: task task-2, 13 vertices
}

// ExampleCheck demonstrates constraint verification catching a violation.
func ExampleCheck() {
	in, err := offloadnn.SmallScenario(1)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	sol, err := offloadnn.Solve(context.Background(), in)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("solver output feasible:", offloadnn.Check(in, sol.Assignments) == nil)
	sol.Assignments[0].RBs = 0 // starve the slice
	fmt.Println("starved slice feasible:", offloadnn.Check(in, sol.Assignments) == nil)
	// Output:
	// solver output feasible: true
	// starved slice feasible: false
}

// stagedNet is a DNN family whose tasks share a three-stage pre-trained
// backbone and fine-tune their own final stage, full or 80 %-pruned.
type stagedNet struct {
	blocks, dnn        string // backbone block prefix, DNN name
	trainSeconds, snr  float64
	fullAcc, prunedAcc float64
}

// task registers a task's final stages and any backbone stage still
// missing in catalog, and returns the task with its two candidate paths.
func (n stagedNet) task(catalog map[string]offloadnn.BlockSpec, id string, priority, rate, minAcc float64,
	latency time.Duration) offloadnn.Task {
	stageCompute := []float64{0.0012, 0.0017, 0.0024}
	stageMemory := []float64{0.10, 0.16, 0.28}
	prefix := make([]string, 3)
	for s := range prefix {
		prefix[s] = fmt.Sprintf("%s/s%d", n.blocks, s+1)
		catalog[prefix[s]] = offloadnn.BlockSpec{ID: prefix[s], ComputeSeconds: stageCompute[s], MemoryGB: stageMemory[s]}
	}
	full := "ft/" + id + "/s4"
	pruned := full + "/p80"
	catalog[full] = offloadnn.BlockSpec{ID: full, ComputeSeconds: 0.0032, MemoryGB: 0.52, TrainSeconds: n.trainSeconds}
	catalog[pruned] = offloadnn.BlockSpec{ID: pruned, ComputeSeconds: 0.0008, MemoryGB: 0.10, TrainSeconds: n.trainSeconds}
	return offloadnn.Task{
		ID: id, Priority: priority, Rate: rate, MinAccuracy: minAcc, MaxLatency: latency,
		InputBits: 350e3, SNRdB: n.snr,
		Paths: []offloadnn.PathSpec{
			{ID: "full", DNN: n.dnn, Blocks: append(slices.Clone(prefix), full), Accuracy: n.fullAcc},
			{ID: "pruned-80", DNN: n.dnn + "-p80", Blocks: append(slices.Clone(prefix), pruned), Accuracy: n.prunedAcc},
		},
	}
}

// ExampleSolve_quickstart builds a three-task instance by hand, solves it
// with the OffloaDNN heuristic and prints each decision.
func ExampleSolve_quickstart() {
	// The block catalog: the experimentally characterized c(s), µ(s) and
	// ct(s) of a shared backbone and each task's own final stages.
	blocks := map[string]offloadnn.BlockSpec{}
	net := stagedNet{blocks: "base", dnn: "resnet18", trainSeconds: 120, snr: 20, fullAcc: 0.92, prunedAcc: 0.86}
	in := &offloadnn.Instance{
		Tasks: []offloadnn.Task{
			net.task(blocks, "plate-reader", 0.9, 4, 0.85, 250*time.Millisecond),
			net.task(blocks, "pedestrians", 0.8, 6, 0.75, 300*time.Millisecond),
			net.task(blocks, "litter-watch", 0.4, 2, 0.60, 600*time.Millisecond),
		},
		Blocks: blocks,
		Res: offloadnn.Resources{
			RBs: 50, ComputeSeconds: 2.5, MemoryGB: 8, TrainBudgetSeconds: 1000,
			Capacity: offloadnn.PaperCapacity(), // 0.35 Mb/s per RB
		},
		Alpha: 0.5,
	}
	sol, err := offloadnn.Solve(context.Background(), in)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	if err := offloadnn.Check(in, sol.Assignments); err != nil {
		fmt.Println("verification:", err)
		return
	}
	fmt.Printf("DOT cost %.4f\n", sol.Cost)
	fmt.Printf("memory %.2f/%.0f GB | compute %.3f/%.1f s/s | RBs %.0f/%d\n",
		sol.Breakdown.MemoryGB, in.Res.MemoryGB,
		sol.Breakdown.ComputeUsage, in.Res.ComputeSeconds,
		sol.Breakdown.RBsAllocated, in.Res.RBs)
	for _, a := range sol.Assignments {
		if !a.Admitted() {
			fmt.Printf("%-14s rejected\n", a.TaskID)
			continue
		}
		fmt.Printf("%-14s admitted z=%.2f  slice=%d RBs  path=%s (accuracy %.2f)\n",
			a.TaskID, a.Z, a.RBs, a.Path.ID, a.Path.Accuracy)
	}
	// Output:
	// DOT cost 0.3246
	// memory 0.84/8 GB | compute 0.073/2.5 s/s | RBs 13/50
	// plate-reader   admitted z=1.00  slice=5 RBs  path=pruned-80 (accuracy 0.86)
	// pedestrians    admitted z=1.00  slice=6 RBs  path=pruned-80 (accuracy 0.86)
	// litter-watch   admitted z=1.00  slice=2 RBs  path=pruned-80 (accuracy 0.86)
}

// ExampleSolve_trafficMonitor admits a smart intersection's tasks in two
// rounds, the dynamic scenario of Sec. III-B: the second round sees the
// first round's blocks as predeployed (no memory or training cost) and
// only the capacity the first round left, so it pays for the increment.
func ExampleSolve_trafficMonitor() {
	catalog := map[string]offloadnn.BlockSpec{}
	net := stagedNet{blocks: "roadnet", dnn: "roadnet", trainSeconds: 110, snr: 18, fullAcc: 0.91, prunedAcc: 0.85}
	res := offloadnn.Resources{
		RBs: 100, ComputeSeconds: 5, MemoryGB: 12, TrainBudgetSeconds: 1000,
		Capacity: offloadnn.PaperCapacity(),
	}
	round := func(name string, in *offloadnn.Instance) *offloadnn.Solution {
		sol, err := offloadnn.Solve(context.Background(), in)
		if err == nil {
			err = offloadnn.Check(in, sol.Assignments)
		}
		if err != nil {
			fmt.Printf("%s: %v\n", name, err)
			return nil
		}
		fmt.Printf("== %s ==\n", name)
		fmt.Printf("cost %.4f | +memory %.2f GB | +compute %.3f s/s | +RBs %.0f | +training %.0f s\n",
			sol.Cost, sol.Breakdown.MemoryGB, sol.Breakdown.ComputeUsage,
			sol.Breakdown.RBsAllocated, sol.Breakdown.TrainSeconds)
		for _, a := range sol.Assignments {
			fmt.Printf("  %-16s z=%.2f r=%d path=%s\n", a.TaskID, a.Z, a.RBs, a.Path.ID)
		}
		return sol
	}

	// Morning shift: two permanent monitoring tasks.
	morning := round("morning round", &offloadnn.Instance{
		Tasks: []offloadnn.Task{
			net.task(catalog, "count-vehicles", 0.9, 5, 0.75, 300*time.Millisecond),
			net.task(catalog, "detect-jams", 0.8, 2.5, 0.70, 500*time.Millisecond),
		},
		Blocks: catalog, Res: res, Alpha: 0.5,
	})
	if morning == nil {
		return
	}

	// Rush hour: two urgent tasks arrive.
	deployed := map[string]bool{}
	for _, id := range morning.Breakdown.ActiveBlocks {
		deployed[id] = true
	}
	left := res
	left.MemoryGB -= morning.Breakdown.MemoryGB
	left.ComputeSeconds -= morning.Breakdown.ComputeUsage
	left.RBs -= int(morning.Breakdown.RBsAllocated + 0.5)
	rush := round("rush-hour round (incremental)", &offloadnn.Instance{
		Tasks: []offloadnn.Task{
			net.task(catalog, "emergency-lane", 1.0, 7.5, 0.80, 250*time.Millisecond),
			net.task(catalog, "red-light-cam", 0.6, 5, 0.65, 400*time.Millisecond),
		},
		Blocks: catalog, Res: left, Alpha: 0.5, Predeployed: deployed,
	})
	if rush == nil {
		return
	}
	reused := 0
	for _, id := range rush.Breakdown.ActiveBlocks {
		if deployed[id] {
			reused++
		}
	}
	fmt.Println("blocks reused at zero cost from the morning deployment:", reused)
	// Output:
	// == morning round ==
	// cost 0.1546 | +memory 0.74 GB | +compute 0.046 s/s | +RBs 8 | +training 220 s
	//   count-vehicles   z=1.00 r=5 path=pruned-80
	//   detect-jams      z=1.00 r=3 path=pruned-80
	// == rush-hour round (incremental) ==
	// cost 0.1883 | +memory 0.20 GB | +compute 0.076 s/s | +RBs 13 | +training 220 s
	//   emergency-lane   z=1.00 r=8 path=pruned-80
	//   red-light-cam    z=1.00 r=5 path=pruned-80
	// blocks reused at zero cost from the morning deployment: 3
}

// ExampleSolveSEMORAN_smartFactory puts accuracy-critical inspection
// beside latency-critical safety monitoring on one server: OffloaDNN
// shapes each task's DNN differently (the full path for inspection, the
// pruned one for safety) over one shared backbone, while the SEM-O-RAN
// baseline deploys a full private DNN per task.
func ExampleSolveSEMORAN_smartFactory() {
	catalog := map[string]offloadnn.BlockSpec{}
	net := stagedNet{blocks: "factorynet", dnn: "factorynet", trainSeconds: 120, snr: 22, fullAcc: 0.93, prunedAcc: 0.84}
	in := &offloadnn.Instance{
		Tasks: []offloadnn.Task{
			// Defect inspection: a high accuracy bar, relaxed latency.
			net.task(catalog, "qa-inspect", 0.95, 3, 0.90, 800*time.Millisecond),
			// Worker safety: latency-critical, modest accuracy.
			net.task(catalog, "safety-zone", 1.0, 10, 0.65, 150*time.Millisecond),
			// Inventory tracking: best effort.
			net.task(catalog, "pallet-count", 0.3, 1, 0.60, time.Second),
		},
		Blocks: catalog,
		Res: offloadnn.Resources{
			RBs: 80, ComputeSeconds: 3, MemoryGB: 6, TrainBudgetSeconds: 1000,
			Capacity: offloadnn.PaperCapacity(),
		},
		Alpha: 0.5,
	}
	sol, err := offloadnn.Solve(context.Background(), in)
	if err == nil {
		err = offloadnn.Check(in, sol.Assignments)
	}
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("== OffloaDNN (DNN shaping + sharing + fractional admission) ==")
	for i, a := range sol.Assignments {
		task := &in.Tasks[i]
		lat, err := in.EndToEndLatency(task, a)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Printf("  %-13s z=%.2f r=%-3d path=%-10s acc=%.2f (floor %.2f)  latency %v (bound %v)\n",
			a.TaskID, a.Z, a.RBs, a.Path.ID, a.Path.Accuracy, task.MinAccuracy,
			lat.Round(time.Millisecond), task.MaxLatency)
	}
	fmt.Printf("  memory %.2f GB | inference compute %.4f s/s | training %.0f s\n",
		sol.Breakdown.MemoryGB, sol.Breakdown.ComputeUsage, sol.Breakdown.TrainSeconds)

	rep, err := offloadnn.SolveSEMORAN(in, offloadnn.DefaultSEMORANConfig())
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("== SEM-O-RAN baseline (full unshared DNNs, binary admission) ==")
	for _, d := range rep.Decisions {
		if d.Admitted {
			fmt.Printf("  %-13s admitted r=%d (private %.2f GB)\n", d.TaskID, d.RBs, d.MemoryGB)
		} else {
			fmt.Printf("  %-13s rejected\n", d.TaskID)
		}
	}
	fmt.Printf("  memory %.2f GB | inference compute %.4f s/s\n", rep.MemoryGB, rep.ComputeUsage)
	fmt.Printf("sharing + shaping saves %.0f%% memory and %.0f%% inference compute here\n",
		(1-sol.Breakdown.MemoryGB/rep.MemoryGB)*100,
		(1-sol.Breakdown.ComputeUsage/rep.ComputeUsage)*100)
	// Output:
	// == OffloaDNN (DNN shaping + sharing + fractional admission) ==
	//   qa-inspect    z=1.00 r=3   path=full       acc=0.93 (floor 0.90)  latency 342ms (bound 800ms)
	//   safety-zone   z=1.00 r=10  path=pruned-80  acc=0.84 (floor 0.65)  latency 106ms (bound 150ms)
	//   pallet-count  z=1.00 r=2   path=pruned-80  acc=0.84 (floor 0.60)  latency 506ms (bound 1s)
	//   memory 1.26 GB | inference compute 0.0926 s/s | training 360 s
	// == SEM-O-RAN baseline (full unshared DNNs, binary admission) ==
	//   qa-inspect    admitted r=3 (private 1.06 GB)
	//   safety-zone   admitted r=10 (private 1.06 GB)
	//   pallet-count  admitted r=2 (private 1.06 GB)
	//   memory 3.18 GB | inference compute 0.1190 s/s
	// sharing + shaping saves 60% memory and 22% inference compute here
}

// ExampleWithHeuristic_droneSwarm has aerial-survey tasks share a cell
// whose radio is the scarce resource. Each task may send frames at full,
// 720p-class or 480p-class quality (the DOT formulation's Q_τ): OffloaDNN
// picks the quality jointly with the path and the slice, and a
// binary-admission ablation runs on the same instance.
func ExampleWithHeuristic_droneSwarm() {
	catalog := map[string]offloadnn.BlockSpec{}
	net := stagedNet{blocks: "aerialnet", dnn: "aerialnet", trainSeconds: 110, snr: 17, fullAcc: 0.92, prunedAcc: 0.85}
	in := &offloadnn.Instance{
		Blocks: catalog,
		Res: offloadnn.Resources{
			RBs: 30, ComputeSeconds: 4, MemoryGB: 8, TrainBudgetSeconds: 1000, // tight radio
			Capacity: offloadnn.PaperCapacity(),
		},
		Alpha: 0.5,
	}
	for _, t := range []struct {
		id                     string
		priority, rate, minAcc float64
		latency                time.Duration
	}{
		{"crop-health", 0.9, 6, 0.82, 400 * time.Millisecond},
		{"fence-breach", 1.0, 8, 0.70, 250 * time.Millisecond},
		{"herd-count", 0.6, 4, 0.60, 600 * time.Millisecond},
		{"fire-watch", 0.8, 5, 0.65, 300 * time.Millisecond},
	} {
		task := net.task(catalog, t.id, t.priority, t.rate, t.minAcc, t.latency)
		task.Qualities = []offloadnn.QualityLevel{
			{ID: "q720", Bits: 230e3, AccuracyDelta: 0.015},
			{ID: "q480", Bits: 140e3, AccuracyDelta: 0.05},
		}
		in.Tasks = append(in.Tasks, task)
	}
	sol, err := offloadnn.Solve(context.Background(), in)
	if err == nil {
		err = offloadnn.Check(in, sol.Assignments)
	}
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("== OffloaDNN with per-task quality selection ==")
	for i, a := range sol.Assignments {
		task := &in.Tasks[i]
		quality := "full"
		if a.Quality != nil {
			quality = a.Quality.ID
		}
		fmt.Printf("  %-13s z=%.2f r=%-2d quality=%-5s β=%.0fKb acc=%.2f (floor %.2f) path=%s\n",
			a.TaskID, a.Z, a.RBs, quality, a.Bits(task)/1e3, a.Accuracy(), task.MinAccuracy, a.Path.ID)
	}
	fmt.Printf("  RBs %.0f/%d | memory %.2f GB | weighted admission %.2f\n",
		sol.Breakdown.RBsAllocated, in.Res.RBs, sol.Breakdown.MemoryGB, sol.Breakdown.WeightedAdmission)

	binary, err := offloadnn.Solve(context.Background(), in,
		offloadnn.WithHeuristic(offloadnn.HeuristicConfig{BinaryAdmission: true}))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("binary-admission ablation: %d tasks admitted (weighted %.2f) vs %d (weighted %.2f) fractional\n",
		binary.Breakdown.AdmittedTasks, binary.Breakdown.WeightedAdmission,
		sol.Breakdown.AdmittedTasks, sol.Breakdown.WeightedAdmission)
	// Output:
	// == OffloaDNN with per-task quality selection ==
	//   crop-health   z=1.00 r=4  quality=q720  β=230Kb acc=0.83 (floor 0.82) path=pruned-80
	//   fence-breach  z=1.00 r=4  quality=q480  β=140Kb acc=0.80 (floor 0.70) path=pruned-80
	//   herd-count    z=1.00 r=2  quality=q480  β=140Kb acc=0.80 (floor 0.60) path=pruned-80
	//   fire-watch    z=1.00 r=2  quality=q480  β=140Kb acc=0.80 (floor 0.65) path=pruned-80
	//   RBs 12/30 | memory 0.94 GB | weighted admission 3.30
	// binary-admission ablation: 4 tasks admitted (weighted 3.30) vs 4 (weighted 3.30) fractional
}
