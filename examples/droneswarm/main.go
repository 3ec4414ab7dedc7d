// Drone swarm: aerial survey tasks offload video frames over a shared
// cell whose radio is the scarce resource. The example exercises the DOT
// formulation's input-quality levels Q_τ: each task may transmit frames
// at full, 720p-class or 480p-class quality, trading bits per frame
// against accuracy. OffloaDNN picks per-task quality jointly with the DNN
// path and slice size — reduced quality where the accuracy floor allows,
// full quality where it does not — and a binary-admission ablation shows
// what fractional admission buys on the same instance.
//
//	go run ./examples/droneswarm
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"offloadnn"
)

func main() {
	catalog := map[string]offloadnn.BlockSpec{}
	tasks := []offloadnn.Task{
		droneTask(catalog, "crop-health", 0.9, 6, 0.82, 400*time.Millisecond),
		droneTask(catalog, "fence-breach", 1.0, 8, 0.70, 250*time.Millisecond),
		droneTask(catalog, "herd-count", 0.6, 4, 0.60, 600*time.Millisecond),
		droneTask(catalog, "fire-watch", 0.8, 5, 0.65, 300*time.Millisecond),
	}
	in := &offloadnn.Instance{
		Tasks:  tasks,
		Blocks: catalog,
		Res: offloadnn.Resources{
			RBs:                30, // tight radio: quality adaptation matters
			ComputeSeconds:     4,
			MemoryGB:           8,
			TrainBudgetSeconds: 1000,
			Capacity:           offloadnn.PaperCapacity(),
		},
		Alpha: 0.5,
	}

	sol, err := offloadnn.Solve(context.Background(), in)
	if err != nil {
		log.Fatalf("solve: %v", err)
	}
	if err := offloadnn.Check(in, sol.Assignments); err != nil {
		log.Fatalf("verification: %v", err)
	}

	fmt.Println("== OffloaDNN with per-task quality selection ==")
	for i, a := range sol.Assignments {
		task := in.Tasks[i]
		if !a.Admitted() {
			fmt.Printf("  %-13s rejected\n", a.TaskID)
			continue
		}
		quality := "full"
		if a.Quality != nil {
			quality = a.Quality.ID
		}
		fmt.Printf("  %-13s z=%.2f r=%-2d quality=%-5s β=%.0fKb acc=%.2f (floor %.2f) path=%s\n",
			a.TaskID, a.Z, a.RBs, quality, a.Bits(&task)/1e3,
			a.Accuracy(), task.MinAccuracy, a.Path.ID)
	}
	fmt.Printf("  RBs %.0f/%d | memory %.2f GB | weighted admission %.2f\n\n",
		sol.Breakdown.RBsAllocated, in.Res.RBs, sol.Breakdown.MemoryGB,
		sol.Breakdown.WeightedAdmission)

	// Ablation on the same instance: all-or-nothing admission.
	binary, err := offloadnn.Solve(context.Background(), in,
		offloadnn.WithHeuristic(offloadnn.HeuristicConfig{BinaryAdmission: true}))
	if err != nil {
		log.Fatalf("binary variant: %v", err)
	}
	fmt.Printf("binary-admission ablation: %d tasks admitted (weighted %.2f) vs %d (weighted %.2f) fractional\n",
		binary.Breakdown.AdmittedTasks, binary.Breakdown.WeightedAdmission,
		sol.Breakdown.AdmittedTasks, sol.Breakdown.WeightedAdmission)
}

func droneTask(catalog map[string]offloadnn.BlockSpec, id string, priority, rate, minAcc float64,
	latency time.Duration) offloadnn.Task {
	stageCompute := []float64{0.0012, 0.0017, 0.0024}
	stageMemory := []float64{0.10, 0.16, 0.28}
	prefix := make([]string, 3)
	for s := 0; s < 3; s++ {
		bid := fmt.Sprintf("aerialnet/s%d", s+1)
		if _, ok := catalog[bid]; !ok {
			catalog[bid] = offloadnn.BlockSpec{ID: bid, ComputeSeconds: stageCompute[s], MemoryGB: stageMemory[s]}
		}
		prefix[s] = bid
	}
	full := "ft/" + id + "/s4"
	pruned := full + "/p80"
	catalog[full] = offloadnn.BlockSpec{ID: full, ComputeSeconds: 0.0032, MemoryGB: 0.52, TrainSeconds: 110}
	catalog[pruned] = offloadnn.BlockSpec{ID: pruned, ComputeSeconds: 0.0008, MemoryGB: 0.10, TrainSeconds: 110}
	return offloadnn.Task{
		ID:          id,
		Priority:    priority,
		Rate:        rate,
		MinAccuracy: minAcc,
		MaxLatency:  latency,
		InputBits:   350e3,
		SNRdB:       17,
		Qualities: []offloadnn.QualityLevel{
			{ID: "q720", Bits: 230e3, AccuracyDelta: 0.015},
			{ID: "q480", Bits: 140e3, AccuracyDelta: 0.05},
		},
		Paths: []offloadnn.PathSpec{
			{ID: "full", DNN: "aerialnet",
				Blocks: append(append([]string{}, prefix...), full), Accuracy: 0.92},
			{ID: "pruned-80", DNN: "aerialnet-p80",
				Blocks: append(append([]string{}, prefix...), pruned), Accuracy: 0.85},
		},
	}
}
