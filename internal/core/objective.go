package core

import (
	"fmt"
	"maps"
	"math"
	"sort"
	"time"
)

// zEps is the threshold below which an admission ratio counts as zero,
// matching the indicator 1_{z>0} of constraints (1f)–(1i).
const zEps = 1e-9

// checkTol is the slack Check and Reserve allow a capacity constraint.
const checkTol = 1e-6

// evaluate computes the DOT objective (1a) and its breakdown for a
// candidate solution. It does not check feasibility; use Check for that.
func (in *Instance) evaluate(assignments []Assignment) (Breakdown, error) {
	if len(assignments) != len(in.Tasks) {
		return Breakdown{}, fmt.Errorf("%w: %d assignments for %d tasks", errModel, len(assignments), len(in.Tasks))
	}
	var bd Breakdown
	active := make(map[string]bool)
	for i, a := range assignments {
		task := &in.Tasks[i]
		if a.TaskID != task.ID {
			return Breakdown{}, fmt.Errorf("%w: assignment %d is for %q, want %q", errModel, i, a.TaskID, task.ID)
		}
		z := a.Z
		if z < zEps || a.Path == nil {
			z = 0
		}
		bd.AdmissionTerm += in.Alpha * (1 - z) * task.Priority
		bd.WeightedAdmission += z * task.Priority
		if z == 0 {
			continue
		}
		bd.AdmittedTasks++
		if z > 1-1e-6 {
			bd.fullyAdmittedTasks++
		}
		cPath := in.PathCompute(a.Path)
		bd.ComputeUsage += z * task.Rate * cPath
		bd.RBsAllocated += z * float64(a.RBs)
		// Radio term: the fraction of total radio resources allocated to
		// admitted tasks (Sec. III-B item (ii)) — z·r/R, not scaled by the
		// request rate (a slice of r RBs is allocated once per task).
		if rNorm := in.Res.priceRBs(); rNorm > 0 {
			bd.RadioTerm += (1 - in.Alpha) * z * float64(a.RBs) / float64(rNorm)
		}
		if cNorm := in.Res.priceComputeSeconds(); cNorm > 0 {
			bd.InferTerm += (1 - in.Alpha) * z * task.Rate * cPath / cNorm
		}
		for _, bID := range a.Path.Blocks {
			active[bID] = true
		}
	}
	ids := make([]string, 0, len(active))
	for id := range active {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	bd.ActiveBlocks = ids
	for _, id := range ids {
		bd.MemoryGB += in.BlockMemoryGB(id)
		bd.TrainSeconds += in.blockTrainSeconds(id)
	}
	bd.TrainTerm = (1 - in.Alpha) * bd.TrainSeconds / in.Res.priceTrainBudgetSeconds()
	return bd, nil
}

// Cost returns the scalar objective from a breakdown.
func (bd Breakdown) costValue() float64 {
	return bd.AdmissionTerm + bd.TrainTerm + bd.RadioTerm + bd.InferTerm
}

// Check verifies every DOT constraint (1b)–(1g) for the assignments and
// returns a descriptive error for the first violation found.
func (in *Instance) Check(assignments []Assignment) error {
	bd, err := in.evaluate(assignments)
	if err != nil {
		return err
	}
	if bd.MemoryGB > in.Res.MemoryGB+checkTol {
		return fmt.Errorf("%w: memory %v GB exceeds M=%v (1b)", ErrOverCapacity, bd.MemoryGB, in.Res.MemoryGB)
	}
	if bd.ComputeUsage > in.Res.ComputeSeconds+checkTol {
		return fmt.Errorf("%w: compute %v s/s exceeds C=%v (1c)", ErrOverCapacity, bd.ComputeUsage, in.Res.ComputeSeconds)
	}
	if bd.RBsAllocated > float64(in.Res.RBs)+checkTol {
		return fmt.Errorf("%w: RB usage %v exceeds R=%d (1d)", ErrOverCapacity, bd.RBsAllocated, in.Res.RBs)
	}
	for i, a := range assignments {
		task := &in.Tasks[i]
		if a.Z < -checkTol || a.Z > 1+checkTol {
			return fmt.Errorf("%w: task %s admission ratio %v outside [0,1]", ErrInfeasible, task.ID, a.Z)
		}
		if a.Z < zEps || a.Path == nil {
			continue
		}
		b := in.Res.Capacity.BitsPerRBPerSecond(task.SNRdB)
		bits := a.Bits(task)
		if a.Z*task.Rate*bits > b*float64(a.RBs)+checkTol {
			return fmt.Errorf("%w: task %s rate %v×%v bits exceeds slice capacity %v×%d (1e)",
				ErrOverCapacity, task.ID, a.Z*task.Rate, bits, b, a.RBs)
		}
		if a.Accuracy() < task.MinAccuracy-checkTol {
			return fmt.Errorf("%w: task %s accuracy %v below A=%v (1f)",
				ErrInfeasible, task.ID, a.Accuracy(), task.MinAccuracy)
		}
		lat, err := in.EndToEndLatency(task, a)
		if err != nil {
			return fmt.Errorf("%w: task %s latency: %v", ErrInfeasible, task.ID, err)
		}
		if lat > task.MaxLatency+time.Millisecond/10 {
			return fmt.Errorf("%w: task %s latency %v exceeds L=%v (1g)",
				ErrInfeasible, task.ID, lat, task.MaxLatency)
		}
	}
	return nil
}

// EndToEndLatency computes l_τ = β(q)/(B(σ)·r) + Σ c(s) for a task under
// an assignment's path, quality level and RB slice.
func (in *Instance) EndToEndLatency(task *Task, a Assignment) (time.Duration, error) {
	if a.Path == nil {
		return 0, fmt.Errorf("%w: task %s has no path", ErrInfeasible, task.ID)
	}
	if a.RBs <= 0 {
		return 0, fmt.Errorf("%w: task %s has no RBs", ErrInfeasible, task.ID)
	}
	b := in.Res.Capacity.BitsPerRBPerSecond(task.SNRdB)
	if b <= 0 {
		return 0, fmt.Errorf("%w: task %s has zero link capacity", ErrInfeasible, task.ID)
	}
	network := a.Bits(task) / (b * float64(a.RBs))
	processing := in.PathCompute(a.Path)
	return time.Duration((network + processing) * float64(time.Second)), nil
}

// newSolution packages assignments into a Solution with cost and runtime.
func (in *Instance) newSolution(assignments []Assignment, runtime time.Duration) (*Solution, error) {
	bd, err := in.evaluate(assignments)
	if err != nil {
		return nil, err
	}
	return &Solution{
		Assignments: assignments,
		Cost:        bd.costValue(),
		Breakdown:   bd,
		Runtime:     runtime,
	}, nil
}

// Reservation is capacity committed on an instance before it is solved:
// a block range kept resident and served at a fixed request rate through
// a fixed radio slice. A split-path segment placed on a node is one.
type Reservation struct {
	// Blocks are the IDs of the reserved blocks.
	Blocks []string
	// Rate is the request rate the blocks serve, in requests per second.
	Rate float64
	// RBs is the radio slice the reservation holds whole.
	RBs int
}

// Reserve charges reservations to the instance's budgets as (1b)–(1d)
// would charge them in a solve. Their blocks become resident: memory is
// charged once against M and the blocks join Predeployed (cloned first),
// so a path sharing them pays nothing more. Rate·Σc(s) comes off C and
// RBs off R. A reservation changes budgets, never prices: a nil Res.Norm
// is first pinned to the budgets as they were. Reserve refuses without
// mutating anything — errModel for an unknown block, a negative rate or
// RB count or a charge that is not finite, ErrOverCapacity naming (1b),
// (1c) or (1d) when a budget would go negative.
func (in *Instance) Reserve(rs ...Reservation) error {
	if len(rs) == 0 {
		return nil
	}
	resident := make(map[string]bool, len(in.Predeployed))
	maps.Copy(resident, in.Predeployed)
	var mem, comp, rbs float64
	for _, r := range rs {
		if !(r.Rate >= 0) || r.RBs < 0 {
			return fmt.Errorf("%w: reservation at rate %v with %d RBs", errModel, r.Rate, r.RBs)
		}
		for _, id := range r.Blocks {
			b, ok := in.Blocks[id]
			if !ok {
				return fmt.Errorf("%w: reservation references unknown block %q", errModel, id)
			}
			comp += r.Rate * b.ComputeSeconds
			if !resident[id] {
				resident[id] = true
				mem += b.MemoryGB
			}
		}
		rbs += float64(r.RBs)
	}
	switch {
	case math.IsInf(mem+comp, 0) || math.IsNaN(mem+comp):
		return fmt.Errorf("%w: reservation charges memory %v GB, compute %v s/s", errModel, mem, comp)
	case mem > in.Res.MemoryGB+checkTol:
		return fmt.Errorf("%w: reserved memory %v GB exceeds M=%v (1b)", ErrOverCapacity, mem, in.Res.MemoryGB)
	case comp > in.Res.ComputeSeconds+checkTol:
		return fmt.Errorf("%w: reserved compute %v s/s exceeds C=%v (1c)", ErrOverCapacity, comp, in.Res.ComputeSeconds)
	case rbs > float64(in.Res.RBs):
		return fmt.Errorf("%w: reserved %v RBs exceed R=%d (1d)", ErrOverCapacity, rbs, in.Res.RBs)
	}
	if in.Res.Norm == nil {
		norm := in.Res
		in.Res.Norm = &norm
	}
	in.Res.MemoryGB = max(0, in.Res.MemoryGB-mem)
	in.Res.ComputeSeconds = max(0, in.Res.ComputeSeconds-comp)
	in.Res.RBs -= int(rbs)
	in.Predeployed = resident
	return nil
}
