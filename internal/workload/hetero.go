package workload

import (
	"fmt"
	"time"

	"offloadnn/internal/core"
	"offloadnn/internal/radio"
)

// HeterogeneousScenario is an extension beyond the paper's Table-IV
// setup: the 20-task large scenario served by a catalog spanning *two*
// architecture families — the ResNet-18-derived blocks the paper uses and
// a MobileNetV2-class "lite" family (the alternative the paper's
// introduction cites: ~8.7× fewer parameters at a few points lower
// accuracy). It exercises cross-family selection: accuracy-hungry tasks
// stay on ResNet paths while relaxed tasks migrate to lite blocks.
func HeterogeneousScenario(load Load) (*core.Instance, error) {
	rate, err := load.rate()
	if err != nil {
		return nil, err
	}
	resnet := LargeCatalogParams()
	resnet.NumDNNs = 85

	lite := LargeCatalogParams()
	lite.family = "lite"
	lite.NumDNNs = 40
	lite.baseAccuracy = 0.89 // MobileNet-class ceiling
	for s := range lite.stageComputeSeconds {
		lite.stageComputeSeconds[s] *= 0.4
		lite.stageMemoryGB[s] *= 0.35
	}
	lite.ftTrainPerStage *= 0.6
	lite.seed = 3

	in := &core.Instance{
		Blocks: make(map[string]core.BlockSpec),
		Res: core.Resources{
			RBs:                100,
			ComputeSeconds:     10,
			MemoryGB:           16,
			TrainBudgetSeconds: 1000,
			Capacity:           radio.PaperRate(),
		},
		Alpha: 0.5,
	}
	const tasks = 20
	for t := 1; t <= tasks; t++ {
		id := fmt.Sprintf("task-%d", t)
		paths := resnet.BuildPaths(in.Blocks, id, t-1)
		paths = append(paths, lite.BuildPaths(in.Blocks, id, t-1)...)
		in.Tasks = append(in.Tasks, core.Task{
			ID:          id,
			Priority:    1 - 0.05*float64(t-1),
			Rate:        rate,
			MinAccuracy: 0.8 - 0.015*float64(t),
			MaxLatency:  time.Duration(200+20*t) * time.Millisecond,
			InputBits:   350e3,
			SNRdB:       20,
			Paths:       paths,
		})
	}
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("workload: heterogeneous scenario: %w", err)
	}
	return in, nil
}
