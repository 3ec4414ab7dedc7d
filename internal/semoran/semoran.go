// Package semoran reimplements the SEM-O-RAN baseline [5] from its
// description in the OffloaDNN paper (Secs. V and VI), as the comparator
// for the large-scale evaluation:
//
//   - it maximizes the total number of admitted tasks weighted by their
//     value (the priority in our scenarios);
//   - task admission is binary — all requests of a task are admitted or
//     all are rejected (no fractional z);
//   - task input images undergo semantic compression, reducing the bits
//     per image at a small accuracy cost;
//   - edge resources of different types are allocated in a balanced
//     manner to avoid starving any one dimension;
//   - it does not share DNN blocks, optimize DNN structure, fine-tune or
//     prune: every admitted task deploys its own full-accuracy DNN, and
//     memory is charged per task.
package semoran

import (
	"fmt"
	"math"
	"sort"
	"time"

	"offloadnn/internal/core"
)

// compressionLevel is one semantic-compression option.
type compressionLevel struct {
	// Ratio multiplies the task's input bits (1 = uncompressed).
	Ratio float64
	// AccuracyDelta is subtracted from the path accuracy.
	AccuracyDelta float64
}

// Config parameterizes the baseline.
type Config struct {
	// compression levels tried in order; the solver uses the first level
	// that keeps the task accuracy- and latency-feasible, preferring less
	// compression (higher fidelity) first.
	compression []compressionLevel
}

// DefaultConfig returns the compression ladder used in the experiments:
// none, moderate (30% fewer bits, −1% accuracy) and aggressive semantic
// compression (50% fewer bits, −3% accuracy).
func DefaultConfig() Config {
	return Config{compression: []compressionLevel{
		{Ratio: 1.0, AccuracyDelta: 0},
		{Ratio: 0.7, AccuracyDelta: 0.01},
		{Ratio: 0.5, AccuracyDelta: 0.03},
	}}
}

// Decision is the per-task outcome.
type Decision struct {
	TaskID string
	// Admitted is the binary admission decision.
	Admitted bool
	// path is the full-DNN execution used when admitted.
	path *core.PathSpec
	// RBs allocated to the task slice.
	RBs int
	// compression selected for the task input.
	compression compressionLevel
	// MemoryGB deployed for this task (full DNN, unshared).
	MemoryGB float64
}

// Report is a SEM-O-RAN solution in the same vocabulary as the OffloaDNN
// breakdown, for side-by-side comparison in Figs. 9 and 10.
type Report struct {
	Decisions []Decision
	// value is Σ priority over admitted tasks (the SEM-O-RAN objective).
	value float64
	// WeightedAdmission equals value (binary admission) — kept for
	// symmetry with core.Breakdown.
	WeightedAdmission float64
	// MemoryGB sums per-task full-DNN deployments (no sharing).
	MemoryGB float64
	// ComputeUsage is Σ λ·c(π) of admitted tasks in s/s.
	ComputeUsage float64
	// RBsAllocated is Σ r over admitted tasks.
	RBsAllocated float64
	// AdmittedTasks counts admitted tasks.
	AdmittedTasks int
}

// Solve runs the SEM-O-RAN admission on a DOT instance. The instance's
// path catalog is reused, but only each task's highest-accuracy path is
// considered (the full DNN — the baseline does not shape DNNs), and the
// memory of its blocks is charged privately to the task.
func Solve(in *core.Instance, cfg Config) (*Report, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.compression) == 0 {
		cfg = DefaultConfig()
	}

	type candidate struct {
		taskIdx  int
		path     *core.PathSpec
		level    compressionLevel
		rbs      int
		memoryGB float64
		compute  float64 // λ·c(π)
	}

	candidates := make([]*candidate, 0, len(in.Tasks))
	for ti := range in.Tasks {
		task := &in.Tasks[ti]
		path := fullestPath(task)
		if path == nil {
			continue // no path at all: task silently unservable
		}
		b := in.Res.Capacity.BitsPerRBPerSecond(task.SNRdB)
		if b <= 0 {
			continue
		}
		cPath := in.PathCompute(path)
		slack := task.MaxLatency.Seconds() - cPath
		if slack <= 0 {
			continue
		}
		var chosen *candidate
		for _, lvl := range cfg.compression {
			if path.Accuracy-lvl.AccuracyDelta < task.MinAccuracy {
				continue
			}
			bits := task.InputBits * lvl.Ratio
			rLat := int(math.Ceil(bits / (b * slack)))
			rRate := int(math.Ceil(bits * task.Rate / b))
			rbs := rLat
			if rRate > rbs {
				rbs = rRate
			}
			if rbs < 1 {
				rbs = 1
			}
			if rbs > in.Res.RBs {
				continue
			}
			mem := 0.0
			for _, id := range path.Blocks {
				mem += in.Blocks[id].MemoryGB // unshared: full price per task
			}
			chosen = &candidate{
				taskIdx: ti, path: path, level: lvl, rbs: rbs,
				memoryGB: mem, compute: task.Rate * cPath,
			}
			break // least compression that fits
		}
		if chosen != nil {
			candidates = append(candidates, chosen)
		}
	}

	// Greedy by task value; ties broken by balanced resource pressure
	// (smaller maximum normalized demand first), the baseline's
	// starvation-avoidance rule.
	sort.SliceStable(candidates, func(a, b int) bool {
		pa := in.Tasks[candidates[a].taskIdx].Priority
		pb := in.Tasks[candidates[b].taskIdx].Priority
		if pa != pb {
			return pa > pb
		}
		return dominantShare(in, candidates[a].memoryGB, candidates[a].compute, candidates[a].rbs) <
			dominantShare(in, candidates[b].memoryGB, candidates[b].compute, candidates[b].rbs)
	})

	rep := &Report{Decisions: make([]Decision, len(in.Tasks))}
	for ti := range in.Tasks {
		rep.Decisions[ti] = Decision{TaskID: in.Tasks[ti].ID}
	}
	var usedMem, usedCompute float64
	usedRBs := 0
	for _, c := range candidates {
		if usedMem+c.memoryGB > in.Res.MemoryGB ||
			usedCompute+c.compute > in.Res.ComputeSeconds ||
			usedRBs+c.rbs > in.Res.RBs {
			continue // binary: skip entirely
		}
		usedMem += c.memoryGB
		usedCompute += c.compute
		usedRBs += c.rbs
		task := &in.Tasks[c.taskIdx]
		rep.Decisions[c.taskIdx] = Decision{
			TaskID:      task.ID,
			Admitted:    true,
			path:        c.path,
			RBs:         c.rbs,
			compression: c.level,
			MemoryGB:    c.memoryGB,
		}
		rep.value += task.Priority
		rep.AdmittedTasks++
	}
	rep.WeightedAdmission = rep.value
	rep.MemoryGB = usedMem
	rep.ComputeUsage = usedCompute
	rep.RBsAllocated = float64(usedRBs)
	return rep, nil
}

// Check verifies the SEM-O-RAN report against the instance's constraints
// (with per-task, unshared memory accounting).
func Check(in *core.Instance, rep *Report) error {
	var mem, comp float64
	rbs := 0
	for ti, d := range rep.Decisions {
		if !d.Admitted {
			continue
		}
		task := &in.Tasks[ti]
		mem += d.MemoryGB
		comp += task.Rate * in.PathCompute(d.path)
		rbs += d.RBs
		if d.path.Accuracy-d.compression.AccuracyDelta < task.MinAccuracy-1e-9 {
			return fmt.Errorf("semoran: task %s accuracy violated", task.ID)
		}
		b := in.Res.Capacity.BitsPerRBPerSecond(task.SNRdB)
		bits := task.InputBits * d.compression.Ratio
		lat := bits/(b*float64(d.RBs)) + in.PathCompute(d.path)
		if time.Duration(lat*float64(time.Second)) > task.MaxLatency+time.Millisecond/10 {
			return fmt.Errorf("semoran: task %s latency violated", task.ID)
		}
		if bits*task.Rate > b*float64(d.RBs)+1e-6 {
			return fmt.Errorf("semoran: task %s slice under-provisioned", task.ID)
		}
	}
	if mem > in.Res.MemoryGB+1e-9 {
		return fmt.Errorf("semoran: memory %v exceeds %v", mem, in.Res.MemoryGB)
	}
	if comp > in.Res.ComputeSeconds+1e-9 {
		return fmt.Errorf("semoran: compute %v exceeds %v", comp, in.Res.ComputeSeconds)
	}
	if rbs > in.Res.RBs {
		return fmt.Errorf("semoran: RBs %d exceed %d", rbs, in.Res.RBs)
	}
	return nil
}

// fullestPath returns the task's highest-accuracy path (the unshaped full
// DNN), or nil when the task has none.
func fullestPath(task *core.Task) *core.PathSpec {
	var best *core.PathSpec
	for i := range task.Paths {
		p := &task.Paths[i]
		if best == nil || p.Accuracy > best.Accuracy {
			best = p
		}
	}
	return best
}

// dominantShare is the maximum normalized resource demand of a candidate.
func dominantShare(in *core.Instance, mem, compute float64, rbs int) float64 {
	s := 0.0
	if in.Res.MemoryGB > 0 {
		s = math.Max(s, mem/in.Res.MemoryGB)
	}
	if in.Res.ComputeSeconds > 0 {
		s = math.Max(s, compute/in.Res.ComputeSeconds)
	}
	if in.Res.RBs > 0 {
		s = math.Max(s, float64(rbs)/float64(in.Res.RBs))
	}
	return s
}
