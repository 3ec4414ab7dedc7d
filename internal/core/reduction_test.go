package core

import (
	"fmt"
	"time"

	"offloadnn/internal/radio"
)

// KnapsackItem is one item of a 0/1 knapsack instance.
type KnapsackItem struct {
	// Value gained by selecting the item (must be in (0,1] so it can map
	// onto a task priority).
	Value float64
	// Weight consumed from the capacity.
	Weight float64
}

// FromKnapsack encodes a 0/1 knapsack instance as a DOT instance,
// following the polynomial reduction behind Proposition 1 (the paper
// reduces from the binary *multi-dimensional* knapsack; the
// single-dimension case exercised here is already NP-hard).
//
// Item i becomes task τ_i with priority v_i, a single path using one
// exclusive block of memory w_i and zero compute/training cost. Because
// memory is charged per *activated* block — any admission ratio z > 0
// activates it (constraints (1h)/(1i)) — the continuous relaxation of z
// collapses to a binary choice: the optimal solution admits (z = 1) the
// value-maximal subset of items whose weights fit the memory budget M.
// Minimizing Σ α(1−z)v is then exactly maximizing Σ v over that subset.
func FromKnapsack(items []KnapsackItem, capacity float64) (*Instance, error) {
	if len(items) == 0 {
		return nil, fmt.Errorf("%w: no knapsack items", errModel)
	}
	in := &Instance{
		Blocks: make(map[string]BlockSpec, len(items)),
		Res: Resources{
			RBs:                len(items), // one RB per task suffices (zero latency pressure)
			ComputeSeconds:     1,
			MemoryGB:           capacity,
			TrainBudgetSeconds: 1,
			Capacity:           radio.FixedRate{Rate: 1e12},
		},
		Alpha: 1, // pure admission objective: resource cost terms vanish
	}
	for i, it := range items {
		if it.Value <= 0 || it.Value > 1 {
			return nil, fmt.Errorf("%w: item %d value %v outside (0,1]", errModel, i, it.Value)
		}
		if it.Weight < 0 {
			return nil, fmt.Errorf("%w: item %d has negative weight", errModel, i)
		}
		blockID := fmt.Sprintf("item-%d", i)
		in.Blocks[blockID] = BlockSpec{ID: blockID, MemoryGB: it.Weight}
		in.Tasks = append(in.Tasks, Task{
			ID:          fmt.Sprintf("task-%d", i),
			Priority:    it.Value,
			Rate:        1,
			MinAccuracy: 0,
			MaxLatency:  time.Second,
			InputBits:   1,
			Paths: []PathSpec{{
				ID:       "only",
				DNN:      blockID,
				Blocks:   []string{blockID},
				Accuracy: 1,
			}},
		})
	}
	return in, nil
}

// KnapsackValue extracts Σ v_i over admitted tasks from a DOT solution of
// a FromKnapsack instance.
func KnapsackValue(items []KnapsackItem, sol *Solution) float64 {
	v := 0.0
	for i, a := range sol.Assignments {
		if a.Admitted() {
			v += items[i].Value * a.Z
		}
	}
	return v
}

// SolveKnapsackDP solves 0/1 knapsack exactly by dynamic programming over
// integer-scaled weights (weights are multiplied by scale and truncated;
// use a scale that makes them integral). It is the reference the
// reduction tests compare against.
func SolveKnapsackDP(items []KnapsackItem, capacity float64, scale float64) float64 {
	cw := int(capacity * scale)
	best := make([]float64, cw+1)
	for _, it := range items {
		w := int(it.Weight * scale)
		for c := cw; c >= w; c-- {
			if cand := best[c-w] + it.Value; cand > best[c] {
				best[c] = cand
			}
		}
	}
	return best[cw]
}
