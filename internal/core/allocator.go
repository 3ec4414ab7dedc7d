package core

import (
	"context"
	"fmt"
	"math"
)

// allocMaxIters bounds the r/z alternation of the per-branch allocator.
const allocMaxIters = 8

// allocState is the per-task working state of the allocator.
type allocState struct {
	idx   int     // index into assignments / in.Tasks
	bits  float64 // β(q) of the selected quality level
	cPath float64 // Σ c(s)
	bRate float64 // B(σ)
	rLat  int     // minimal RBs satisfying latency
	r     int     // current RB allocation
	z     float64 // current admission
}

// ceilRB rounds an RB demand up to whole blocks. The 1e-12 forgives a
// demand that is integral up to float noise (λ = 0.1·3, β = 1e6, B = 1e5
// is 3.0000000000000004 RBs, not 4).
func ceilRB(x float64) int { return int(math.Ceil(x - 1e-12)) }

// MinSlices is the minimal-RB rule of constraints (1g) and (1e) for one
// (path × quality) decision, the only place it is written: rLat is the
// smallest slice (at least one RB) that moves bits over a bRate-per-RB
// link inside the latency slack left after processing, rFull the
// smallest that carries the request rate (zero at rate 0). bRate and
// slack must be positive.
func MinSlices(bits, bRate, slack, rate float64) (rLat, rFull int) {
	return max(1, ceilRB(bits/(bRate*slack))), ceilRB(rate * bits / bRate)
}

// OptimizeAllocation solves the per-branch convex problem of Sec. IV-B:
// with the paths fixed (xd, yπ given), choose the admission ratios z and
// RB allocations r minimizing the DOT objective under constraints
// (1c)–(1e) and (1g). Memory (1b) and accuracy (1f) were honored during
// tree construction/traversal.
//
// The method alternates two exact steps and keeps the best feasible pair:
// given z, the optimal r is the smallest integer satisfying the rate (1e)
// and latency (1g) constraints (the objective strictly increases in r);
// given r, the problem is a linear program in z with two coupling rows,
// solved by solveZStep. Every iterate is feasible, so the
// best-of-iterates is feasible; the loop stops when r reaches a fixed
// point or after allocMaxIters rounds.
//
// Assignments must carry the chosen Path per task (nil = rejected); Z and
// RBs are filled in place.
func (in *Instance) OptimizeAllocation(assignments []Assignment) error {
	return in.optimizeAllocation(context.Background(), assignments)
}

// allocStates zeroes every assignment's Z and RBs and returns the working
// state of the tasks that can be admitted at all — a path, link capacity,
// latency slack after processing, and a latency slice within the pool —
// at the alternation's analytic starting point r = max(rLat, ceil(λβ/B)),
// z = 1.
func (in *Instance) allocStates(assignments []Assignment) []allocState {
	var active []allocState
	for i := range assignments {
		a := &assignments[i]
		a.Z = 0
		a.RBs = 0
		if a.Path == nil {
			continue
		}
		task := &in.Tasks[i]
		st := allocState{idx: i, bits: a.Bits(task), cPath: in.PathCompute(a.Path), z: 1}
		st.bRate = in.Res.Capacity.BitsPerRBPerSecond(task.SNRdB)
		if st.bRate <= 0 {
			continue // no link capacity: task cannot be admitted
		}
		slack := task.MaxLatency.Seconds() - st.cPath
		if slack <= 0 {
			continue // processing alone exceeds the latency bound
		}
		var rFull int
		st.rLat, rFull = MinSlices(st.bits, st.bRate, slack, task.Rate)
		if st.rLat > in.Res.RBs {
			continue // even the full pool cannot meet the latency bound
		}
		st.r = max(st.rLat, rFull)
		active = append(active, st)
	}
	return active
}

// optimizeAllocation is OptimizeAllocation with cancellation checked
// between alternation rounds and on every pass of the z-step.
func (in *Instance) optimizeAllocation(ctx context.Context, assignments []Assignment) error {
	active := in.allocStates(assignments)
	if len(active) == 0 {
		return nil
	}

	bestCost := math.Inf(1)
	bestZ := make([]float64, len(active))
	bestR := make([]int, len(active))
	cols := make([]zColumn, len(active))
	z := make([]float64, len(active))

	evalCurrent := func() error {
		for i := range active {
			st := &active[i]
			assignments[st.idx].Z = st.z
			assignments[st.idx].RBs = st.r
		}
		bd, err := in.evaluate(assignments)
		if err != nil {
			return err
		}
		if c := bd.costValue(); c < bestCost {
			bestCost = c
			for i := range active {
				bestZ[i] = active[i].z
				bestR[i] = active[i].r
			}
		}
		return nil
	}

	for iter := 0; iter < allocMaxIters; iter++ {
		if err := ctxErr(ctx); err != nil {
			return err
		}
		if err := in.zStep(ctx, active, cols, z); err != nil {
			return err
		}
		if err := evalCurrent(); err != nil {
			return err
		}
		if !in.updateSlices(active) {
			break
		}
	}

	if math.IsInf(bestCost, 1) {
		return fmt.Errorf("%w: allocator found no feasible allocation", ErrInfeasible)
	}
	for i := range active {
		a := &assignments[active[i].idx]
		switch z := bestZ[i]; {
		case z < zEps:
			a.Z = 0
			a.RBs = 0
		case z > 1-1e-9:
			a.Z = 1
			a.RBs = bestR[i]
		default:
			a.Z = z
			a.RBs = bestR[i]
		}
	}
	return nil
}

// updateSlices is the r-step: with z fixed every task takes the smallest
// slice that still carries z·λ and meets its latency bound. It reports
// whether any slice changed.
func (in *Instance) updateSlices(active []allocState) bool {
	changed := false
	for i := range active {
		st := &active[i]
		r := max(st.rLat, ceilRB(st.z*in.Tasks[st.idx].Rate*st.bits/st.bRate))
		if r != st.r {
			st.r = r
			changed = true
		}
	}
	return changed
}

// zColumns writes the z-step columns for the states' current slices into
// cols (parallel to active). Prices come from the (possibly fleet-wide)
// normalizers, the row coefficients are against the pool's own budgets.
func (in *Instance) zColumns(active []allocState, cols []zColumn) {
	rNorm, cNorm := float64(in.Res.priceRBs()), in.Res.priceComputeSeconds()
	for i := range active {
		st := &active[i]
		task := &in.Tasks[st.idx]
		col := zColumn{
			v: in.Alpha * task.Priority,
			a: task.Rate * st.cPath,
			b: float64(st.r),
			u: math.Min(1, st.bRate*float64(st.r)/(task.Rate*st.bits)),
		}
		if rNorm > 0 {
			col.v -= (1 - in.Alpha) * col.b / rNorm
		}
		if cNorm > 0 {
			col.v -= (1 - in.Alpha) * col.a / cNorm
		}
		cols[i] = col
	}
}

// zStep solves the z-subproblem with the slices fixed,
//
//	max Σ vᵢzᵢ,  vᵢ = α pᵢ − (1−α)(rᵢ/R̂ + λᵢcᵢ/Ĉ)
//	s.t. Σ z λ c ≤ C, Σ z r ≤ R, 0 ≤ zᵢ ≤ min(1, B rᵢ/(λᵢ βᵢ)),
//
// and writes the solution into the states' z fields; cols and z are
// scratch parallel to active. The context is checked on every pricing
// pass of the solve, not only between alternation rounds.
func (in *Instance) zStep(ctx context.Context, active []allocState, cols []zColumn, z []float64) error {
	in.zColumns(active, cols)
	if err := solveZStep(ctx, cols, in.Res.ComputeSeconds, float64(in.Res.RBs), z); err != nil {
		return fmt.Errorf("core: allocator z-step: %w", err)
	}
	for i := range active {
		active[i].z = z[i]
	}
	return nil
}
