package core

import (
	"context"
	"fmt"
	"math"

	"offloadnn/internal/lp"
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

// OptimizeAllocation solves the per-branch convex problem of Sec. IV-B:
// with the paths fixed (xd, yπ given), choose the admission ratios z and
// RB allocations r minimizing the DOT objective under constraints
// (1c)–(1e) and (1g). Memory (1b) and accuracy (1f) were honored during
// tree construction/traversal.
//
// The method alternates two exact steps and keeps the best feasible pair:
// given z, the optimal r is the smallest integer satisfying the rate (1e)
// and latency (1g) constraints (the objective strictly increases in r);
// given r, the problem is a linear program in z solved by simplex. Every
// iterate is feasible, so the best-of-iterates is feasible; the loop stops
// when r reaches a fixed point or after allocMaxIters rounds.
//
// Assignments must carry the chosen Path per task (nil = rejected); Z and
// RBs are filled in place.
func (in *Instance) OptimizeAllocation(assignments []Assignment) error {
	return in.optimizeAllocation(context.Background(), assignments)
}

// optimizeAllocation is OptimizeAllocation with cancellation checked
// between alternation rounds. The alternation starts from the analytic
// point r = max(rLat, ceil(λβ/B)), z = 1.
func (in *Instance) optimizeAllocation(ctx context.Context, assignments []Assignment) error {
	var active []*allocState
	for i := range assignments {
		a := &assignments[i]
		a.Z = 0
		a.RBs = 0
		if a.Path == nil {
			continue
		}
		task := &in.Tasks[i]
		st := &allocState{idx: i, bits: a.Bits(task), cPath: in.PathCompute(a.Path)}
		st.bRate = in.Res.Capacity.BitsPerRBPerSecond(task.SNRdB)
		if st.bRate <= 0 {
			continue // no link capacity: task cannot be admitted
		}
		slack := task.MaxLatency.Seconds() - st.cPath
		if slack <= 0 {
			continue // processing alone exceeds the latency bound
		}
		st.rLat = int(math.Ceil(a.Bits(task)/(st.bRate*slack) - 1e-12))
		if st.rLat < 1 {
			st.rLat = 1
		}
		if st.rLat > in.Res.RBs {
			continue // even the full pool cannot meet the latency bound
		}
		rFull := int(math.Ceil(task.Rate*a.Bits(task)/st.bRate - 1e-12))
		st.r = st.rLat
		if rFull > st.r {
			st.r = rFull
		}
		st.z = 1
		active = append(active, st)
	}
	if len(active) == 0 {
		return nil
	}

	bestCost := math.Inf(1)
	bestZ := make([]float64, len(active))
	bestR := make([]int, len(active))

	evalCurrent := func() error {
		for _, st := range active {
			assignments[st.idx].Z = st.z
			assignments[st.idx].RBs = st.r
		}
		bd, err := in.Evaluate(assignments)
		if err != nil {
			return err
		}
		if c := bd.CostValue(); c < bestCost {
			bestCost = c
			for i, st := range active {
				bestZ[i] = st.z
				bestR[i] = st.r
			}
		}
		return nil
	}

	for iter := 0; iter < allocMaxIters; iter++ {
		if err := ctxErr(ctx); err != nil {
			return err
		}
		if err := in.solveZLP(ctx, active); err != nil {
			return fmt.Errorf("core: allocator LP: %w", err)
		}
		if err := evalCurrent(); err != nil {
			return err
		}
		changed := false
		for _, st := range active {
			task := &in.Tasks[st.idx]
			r := st.rLat
			if need := int(math.Ceil(st.z*task.Rate*st.bits/st.bRate - 1e-12)); need > r {
				r = need
			}
			if r != st.r {
				st.r = r
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	if math.IsInf(bestCost, 1) {
		return fmt.Errorf("%w: allocator found no feasible allocation", ErrInfeasible)
	}
	for i, st := range active {
		z := bestZ[i]
		switch {
		case z < zEps:
			assignments[st.idx].Z = 0
			assignments[st.idx].RBs = 0
		case z > 1-1e-9:
			assignments[st.idx].Z = 1
			assignments[st.idx].RBs = bestR[i]
		default:
			assignments[st.idx].Z = z
			assignments[st.idx].RBs = bestR[i]
		}
	}
	return nil
}

// solveZLP solves the z-subproblem with RBs fixed:
//
//	min Σ k_i z_i,  k_i = (1−α)λ_i(r_i/R + c_i/C) − α p_i
//	s.t. Σ z λ c ≤ C, Σ z r ≤ R, 0 ≤ z_i ≤ min(1, B r_i/(λ_i β_i)).
//
// It writes the solution into the states' z fields. The context bounds
// the simplex run itself — at thousands of active tasks one LP call can
// outlast any deadline by orders of magnitude, so cancellation between
// alternation rounds alone would come far too late.
func (in *Instance) solveZLP(ctx context.Context, active []*allocState) error {
	n := len(active)
	p := lp.Problem{C: make([]float64, n)}
	computeRow := make([]float64, n)
	rbRow := make([]float64, n)
	for i, st := range active {
		task := &in.Tasks[st.idx]
		// Prices come from the (possibly fleet-wide) normalizers, the
		// capacity rows below from the pool's own budgets.
		k := -in.Alpha * task.Priority
		if rNorm := in.Res.PriceRBs(); rNorm > 0 {
			k += (1 - in.Alpha) * float64(st.r) / float64(rNorm)
		}
		if cNorm := in.Res.PriceComputeSeconds(); cNorm > 0 {
			k += (1 - in.Alpha) * task.Rate * st.cPath / cNorm
		}
		p.C[i] = k
		computeRow[i] = task.Rate * st.cPath
		rbRow[i] = float64(st.r)
	}
	p.A = append(p.A, computeRow)
	p.B = append(p.B, in.Res.ComputeSeconds)
	p.A = append(p.A, rbRow)
	p.B = append(p.B, float64(in.Res.RBs))
	for i, st := range active {
		task := &in.Tasks[st.idx]
		ub := 1.0
		if lim := st.bRate * float64(st.r) / (task.Rate * st.bits); lim < ub {
			ub = lim
		}
		row := make([]float64, n)
		row[i] = 1
		p.A = append(p.A, row)
		p.B = append(p.B, ub)
	}
	sol, err := lp.SolveCtx(ctx, p)
	if err != nil {
		return err
	}
	for i, st := range active {
		z := sol.X[i]
		if z < 0 {
			z = 0
		}
		if z > 1 {
			z = 1
		}
		st.z = z
	}
	return nil
}
