package core

import (
	"context"
	"fmt"
	"sort"
	"time"
)

// CliqueOrder selects how vertices are ordered within each clique — the
// design choice behind OffloaDNN's first-branch rule. OrderCompute is the
// paper's design; the others exist for the ablation study.
type CliqueOrder int

// Clique orderings.
const (
	// OrderCompute sorts by ascending inference compute time (paper
	// design), with train/memory/bits tie-breaks.
	OrderCompute CliqueOrder = iota + 1
	// OrderMemory sorts by ascending path memory footprint.
	OrderMemory
	// OrderAccuracy sorts by descending attained accuracy (a
	// quality-first strawman).
	OrderAccuracy
	// OrderNone keeps catalog order (no sorting).
	OrderNone
)

// String implements fmt.Stringer.
func (o CliqueOrder) String() string {
	switch o {
	case OrderCompute:
		return "compute"
	case OrderMemory:
		return "memory"
	case OrderAccuracy:
		return "accuracy"
	case OrderNone:
		return "none"
	default:
		return fmt.Sprintf("order(%d)", int(o))
	}
}

// HeuristicConfig parameterizes OffloaDNN variants for ablation.
type HeuristicConfig struct {
	// Order is the clique ordering (default OrderCompute).
	Order CliqueOrder
	// BinaryAdmission restricts z to {0,1}: greedy full admission in
	// priority order, skipping tasks that do not fit — an OffloaDNN
	// variant with SEM-O-RAN-style all-or-nothing admission.
	BinaryAdmission bool
}

// solveOffloaDNNConfiguredCtx runs the OffloaDNN heuristic under an
// ablation configuration, with cancellation checked between tree layers
// of the first-branch walk. SolveOffloaDNN is equivalent to the
// zero-value default (compute ordering, fractional admission).
func solveOffloaDNNConfiguredCtx(ctx context.Context, in *Instance, cfg HeuristicConfig) (*Solution, error) {
	start := time.Now()
	if cfg.Order == 0 {
		cfg.Order = OrderCompute
	}
	tree, err := buildTreeCtx(ctx, in)
	if err != nil {
		return nil, err
	}
	reorderCliques(tree, cfg.Order)

	assignments, err := tree.firstBranch(ctx)
	if err != nil {
		return nil, err
	}
	if cfg.BinaryAdmission {
		err = in.optimizeBinaryAllocation(assignments)
	} else {
		err = in.optimizeAllocation(ctx, assignments)
	}
	if err != nil {
		return nil, err
	}
	sol, err := in.newSolution(assignments, time.Since(start))
	if err != nil {
		return nil, err
	}
	sol.Tier = TierHeuristic
	return sol, nil
}

// reorderCliques re-sorts each clique per the requested order, keeping
// the reject vertex last.
func reorderCliques(t *Tree, order CliqueOrder) {
	if order == OrderCompute {
		return // BuildTree's default
	}
	for li := range t.Layers {
		vs := t.Layers[li].Vertices
		real := vs[:len(vs)-1] // trailing reject vertex stays last
		switch order {
		case OrderMemory:
			sort.SliceStable(real, func(a, b int) bool {
				if real[a].memory != real[b].memory {
					return real[a].memory < real[b].memory
				}
				return real[a].compute < real[b].compute
			})
		case OrderAccuracy:
			sort.SliceStable(real, func(a, b int) bool {
				accA := real[a].path.Accuracy
				accB := real[b].path.Accuracy
				if real[a].quality != nil {
					accA -= real[a].quality.AccuracyDelta
				}
				if real[b].quality != nil {
					accB -= real[b].quality.AccuracyDelta
				}
				return accA > accB
			})
		case OrderNone:
			// Undo BuildTree's sort: restore catalog order (path index,
			// then quality index). Paths are compared by pointer position
			// within the task's slice.
			ti := t.Layers[li].TaskIndex
			task := &t.inst.Tasks[ti]
			pos := make(map[*PathSpec]int, len(task.Paths))
			for pi := range task.Paths {
				pos[&task.Paths[pi]] = pi
			}
			sort.SliceStable(real, func(a, b int) bool {
				return pos[real[a].path] < pos[real[b].path]
			})
		}
	}
}

// optimizeBinaryAllocation is the all-or-nothing allocator: tasks are
// considered in descending priority; each is admitted at z = 1 with its
// minimal feasible slice if the remaining compute and RB budgets allow,
// else rejected outright.
func (in *Instance) optimizeBinaryAllocation(assignments []Assignment) error {
	order := make([]int, len(assignments))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return in.Tasks[order[a]].Priority > in.Tasks[order[b]].Priority
	})
	remainingCompute := in.Res.ComputeSeconds
	remainingRBs := in.Res.RBs
	for _, i := range order {
		a := &assignments[i]
		a.Z = 0
		a.RBs = 0
		if a.Path == nil {
			continue
		}
		task := &in.Tasks[i]
		b := in.Res.Capacity.BitsPerRBPerSecond(task.SNRdB)
		if b <= 0 {
			continue
		}
		cPath := in.PathCompute(a.Path)
		slack := task.MaxLatency.Seconds() - cPath
		if slack <= 0 {
			continue
		}
		rLat, rFull := MinSlices(a.Bits(task), b, slack, task.Rate)
		r := max(rLat, rFull)
		demand := task.Rate * cPath
		if r > remainingRBs || demand > remainingCompute {
			continue
		}
		remainingRBs -= r
		remainingCompute -= demand
		a.Z = 1
		a.RBs = r
	}
	return nil
}

// PrivatizeBlocks returns a copy of the instance in which every task's
// paths reference task-private copies of their blocks, disabling all
// cross-task sharing — the ablation quantifying what block sharing buys.
// Costs are unchanged; only the sharing structure differs.
func PrivatizeBlocks(in *Instance) *Instance {
	out := &Instance{
		Res:   in.Res,
		Alpha: in.Alpha,
		Tasks: make([]Task, len(in.Tasks)),
	}
	out.Blocks = make(map[string]BlockSpec, len(in.Blocks)*len(in.Tasks))
	if in.Predeployed != nil {
		out.Predeployed = make(map[string]bool, len(in.Predeployed))
	}
	for ti, task := range in.Tasks {
		t := task
		t.Paths = make([]PathSpec, len(task.Paths))
		for pi, p := range task.Paths {
			np := p
			np.Blocks = make([]string, len(p.Blocks))
			for bi, id := range p.Blocks {
				priv := fmt.Sprintf("%s::%s", id, task.ID)
				if _, ok := out.Blocks[priv]; !ok {
					spec := in.Blocks[id]
					spec.ID = priv
					out.Blocks[priv] = spec
					if in.Predeployed[id] {
						out.Predeployed[priv] = true
					}
				}
				np.Blocks[bi] = priv
			}
			t.Paths[pi] = np
		}
		out.Tasks[ti] = t
	}
	return out
}
