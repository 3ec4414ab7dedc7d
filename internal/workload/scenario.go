package workload

import (
	"fmt"
	"time"

	"offloadnn/internal/core"
	"offloadnn/internal/radio"
)

// Load is the task-request load level of the large scenario.
type Load int

// Load levels (Table IV: λ = 2.5, 5, 7.5 req/s for every task).
const (
	LoadLow Load = iota + 1
	LoadMedium
	LoadHigh
)

// String implements fmt.Stringer.
func (l Load) String() string {
	switch l {
	case LoadLow:
		return "low"
	case LoadMedium:
		return "medium"
	case LoadHigh:
		return "high"
	default:
		return fmt.Sprintf("load(%d)", int(l))
	}
}

// rate returns the per-task request rate of the load level.
func (l Load) rate() (float64, error) {
	switch l {
	case LoadLow:
		return 2.5, nil
	case LoadMedium:
		return 5, nil
	case LoadHigh:
		return 7.5, nil
	default:
		return 0, fmt.Errorf("workload: unknown load %d", int(l))
	}
}

// SmallTask returns the Table-IV small-scenario task τ = t (1-based,
// t ∈ 1..5) without candidate paths: λ = 5 req/s, A_τ ∈ [0.9..0.5],
// L_τ ∈ [200..600] ms, p_τ ∈ [0.8..0.4], β = 350 Kb, σ = 20 dB. These
// are the request-side fields a UE submits to the serving daemon, which
// builds the candidate paths from its own DNN catalog.
func SmallTask(t int) (core.Task, error) {
	if t < 1 || t > 5 {
		return core.Task{}, fmt.Errorf("workload: small task index %d outside 1..5", t)
	}
	accuracies := []float64{0.9, 0.8, 0.7, 0.6, 0.5}
	latencies := []time.Duration{200, 300, 400, 500, 600}
	priorities := []float64{0.8, 0.7, 0.6, 0.5, 0.4}
	return core.Task{
		ID:          fmt.Sprintf("task-%d", t),
		Priority:    priorities[t-1],
		Rate:        5,
		MinAccuracy: accuracies[t-1],
		MaxLatency:  latencies[t-1] * time.Millisecond,
		InputBits:   350e3,
		SNRdB:       20,
	}, nil
}

// SmallScenario builds the Table-IV small-scale instance with the first T
// of the five tasks (T ∈ 1..5): λ = 5 req/s, A = [0.9, 0.8, 0.7, 0.6,
// 0.5], L = [200..600] ms, p = [0.8..0.4], R = 50 RBs, C = 2.5 s, M = 8
// GB, Ct = 1000 s, β = 350 Kb, B = 0.35 Mb/s, α = 0.5.
func SmallScenario(tasks int) (*core.Instance, error) {
	if tasks < 1 || tasks > 5 {
		return nil, fmt.Errorf("workload: small scenario supports 1..5 tasks, got %d", tasks)
	}
	params := SmallCatalogParams()
	in := &core.Instance{
		Blocks: make(map[string]core.BlockSpec),
		Res: core.Resources{
			RBs:                50,
			ComputeSeconds:     2.5,
			MemoryGB:           8,
			TrainBudgetSeconds: 1000,
			Capacity:           radio.PaperRate(),
		},
		Alpha: 0.5,
	}
	for t := 0; t < tasks; t++ {
		task, err := SmallTask(t + 1)
		if err != nil {
			return nil, err
		}
		task.Paths = params.BuildPaths(in.Blocks, task.ID, t)
		in.Tasks = append(in.Tasks, task)
	}
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("workload: small scenario: %w", err)
	}
	return in, nil
}

// LargeScenario builds the Table-IV large-scale instance: 20 tasks with
// p_τ = 1 − 0.05(τ−1), A_τ = 0.8 − 0.015τ, L_τ = 200 + 20τ ms, the given
// load's request rate, R = 100 RBs, C = 10 s, M = 16 GB, Ct = 1000 s.
func LargeScenario(load Load) (*core.Instance, error) {
	rate, err := load.rate()
	if err != nil {
		return nil, err
	}
	params := LargeCatalogParams()
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
		in.Tasks = append(in.Tasks, core.Task{
			ID:          id,
			Priority:    1 - 0.05*float64(t-1),
			Rate:        rate,
			MinAccuracy: 0.8 - 0.015*float64(t),
			MaxLatency:  time.Duration(200+20*t) * time.Millisecond,
			InputBits:   350e3,
			SNRdB:       20,
			Paths:       params.BuildPaths(in.Blocks, id, t-1),
		})
	}
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("workload: large scenario: %w", err)
	}
	return in, nil
}
