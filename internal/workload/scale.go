package workload

import (
	"fmt"
	"time"

	"offloadnn/internal/core"
	"offloadnn/internal/radio"
)

// ScaleScenario builds a T-task instance for the 1k–10k solver-scale
// experiments: the small catalog's 3-DNN × 5-path grid per task, with
// deterministically jittered request-side fields (λ ∈ [1,3) req/s,
// A ∈ [0.30,0.45), L ∈ [250,600) ms, p ∈ [0.2,1)) and a resource pool
// that grows linearly with the task count — R = 3T RBs, C = 0.006T s/s,
// M = 8 + 0.05T GB, Ct = 1000 s — so contention stays meaningful at
// every scale: radio and compute admit most but not all of the load,
// and the accuracy floors keep the fully-shared pruned paths feasible,
// exercising cross-task block sharing instead of exploding the deployed
// memory. Everything is a pure function of T.
func ScaleScenario(tasks int) (*core.Instance, error) {
	if tasks < 1 {
		return nil, fmt.Errorf("workload: scale scenario needs at least 1 task, got %d", tasks)
	}
	params := SmallCatalogParams()
	params.seed = 7
	in := &core.Instance{
		Blocks: make(map[string]core.BlockSpec, 8*tasks+16),
		Res: core.Resources{
			RBs:                3 * tasks,
			ComputeSeconds:     0.006 * float64(tasks),
			MemoryGB:           8 + 0.05*float64(tasks),
			TrainBudgetSeconds: 1000,
			Capacity:           radio.PaperRate(),
		},
		Alpha: 0.5,
	}
	in.Tasks = make([]core.Task, 0, tasks)
	for t := 0; t < tasks; t++ {
		id := fmt.Sprintf("task-%d", t+1)
		in.Tasks = append(in.Tasks, core.Task{
			ID:          id,
			Priority:    0.2 + 0.8*hash64(params.seed, 11, int64(t)),
			Rate:        1 + 2*hash64(params.seed, 12, int64(t)),
			MinAccuracy: 0.30 + 0.15*hash64(params.seed, 13, int64(t)),
			MaxLatency:  time.Duration((250 + 350*hash64(params.seed, 14, int64(t))) * float64(time.Millisecond)),
			InputBits:   350e3,
			SNRdB:       20,
			Paths:       params.BuildPaths(in.Blocks, id, t),
		})
	}
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("workload: scale scenario: %w", err)
	}
	return in, nil
}
