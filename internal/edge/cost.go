package edge

import (
	"time"

	"offloadnn/internal/core"
)

// TaskCost is the planned per-frame cost of one admitted task under a
// deployment: slice transmission at B(σ)·r plus path compute Σ c(s).
// It is the single cost model behind the resolver's predicted latency,
// the Fig. 11 emulator and the simulated execution backend — refactored
// out so those three can never drift apart.
type TaskCost struct {
	// tx is the slice transmission time of one frame.
	tx time.Duration
	// Proc is the path compute time Σ c(s).
	Proc time.Duration
}

// Total is the end-to-end per-frame cost tx + Proc.
func (c TaskCost) Total() time.Duration { return c.tx + c.Proc }

// PlanCosts evaluates the deployment's per-task cost model. tasks must be
// the task order dep.Solution.Assignments is parallel to. linkRateFactor
// scales the delivered per-RB rate against the conservative planning
// value B(σ) (≤ 0 means 1.0: the link delivers exactly the planning
// rate). Non-admitted tasks are absent from the result.
func PlanCosts(tasks []core.Task, blocks map[string]core.BlockSpec, res core.Resources,
	dep *Deployment, linkRateFactor float64) map[string]TaskCost {
	out := make(map[string]TaskCost)
	if dep == nil || dep.Solution == nil {
		return out
	}
	for i, a := range dep.Solution.Assignments {
		if !a.Admitted() || i >= len(tasks) {
			continue
		}
		task := &tasks[i]
		perRB := res.Capacity.BitsPerRBPerSecond(task.SNRdB)
		if linkRateFactor > 0 {
			perRB *= linkRateFactor
		}
		tx := 0.0
		if perRB > 0 && a.RBs > 0 {
			tx = a.Bits(task) / (perRB * float64(a.RBs))
		}
		proc := 0.0
		for _, id := range a.Path.Blocks {
			proc += blocks[id].ComputeSeconds
		}
		out[a.TaskID] = TaskCost{
			tx:   time.Duration(tx * float64(time.Second)),
			Proc: time.Duration(proc * float64(time.Second)),
		}
	}
	return out
}
