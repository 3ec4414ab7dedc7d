package core

import (
	"context"
	"time"

	"offloadnn/internal/tensor"
)

// approxShortlistK bounds the per-task candidate shortlist of the
// approximate tier: only the K best-ranked (path × quality) decisions
// survive to the packing pass.
const approxShortlistK = 6

// approxCand is one shortlisted decision with its precomputed minimal
// slice: enough RBs for the latency bound and the full request rate.
type approxCand struct {
	v Vertex
	r int
}

// solveApproxCtx is the approximate admission tier: score-based path
// ranking followed by greedy budget packing. It replaces the per-branch
// (z, r) alternation with two linear passes —
//
//  1. Shortlist (parallel over tasks on the tensor pool): each task's
//     feasible (path × quality) decisions are ranked by the same
//     multi-key resource score that orders the exact tier's cliques —
//     inference compute first, then training cost, memory and input
//     bits (buildCliqueVertices) — with latency-infeasible decisions
//     (no slack, or a minimal slice beyond the whole pool) dropped, and
//     the K best kept.
//  2. Packing (sequential, descending priority): each task takes its
//     best-ranked shortlisted decision that fits the remaining memory
//     and admits a positive ratio, with z clamped by the same
//     constraints the exact allocator's z-step encodes: z ≤ remC/(λc),
//     z ≤ B·r/(λβ) and z·r ≤ remRB. A decision is rejected when its
//     marginal objective change is non-negative —
//     (1−α)·(z·r/R + z·λc/C + Δct/Ct) − α·p·z ≥ 0, where Δct counts
//     only blocks not already activated by higher-priority tasks — the
//     greedy, sharing-aware mirror of the z-step pricing a z_i out of the
//     basis.
//
// Every admitted assignment satisfies (1b)–(1g) by construction, so the
// result always passes Instance.Check. Complexity is O(T·paths) — no
// z-step, no alternation.
func solveApproxCtx(ctx context.Context, in *Instance) (*Solution, error) {
	start := time.Now()
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	order := priorityOrder(in)
	rPrice := float64(in.Res.priceRBs())
	cPrice := in.Res.priceComputeSeconds()
	ctPrice := in.Res.priceTrainBudgetSeconds()

	// Pass 1: per-task shortlists, fanned over the tensor pool. Each
	// slot is written by exactly one goroutine and depends only on that
	// task and the read-only catalog, so the result is deterministic at
	// any worker count.
	cands := make([][]approxCand, len(order))
	tensor.ParallelFor(len(order), 16, 0, func(lo, hi int) {
		for oi := lo; oi < hi; oi++ {
			ti := order[oi]
			task := &in.Tasks[ti]
			bRate := in.Res.Capacity.BitsPerRBPerSecond(task.SNRdB)
			if bRate <= 0 {
				continue
			}
			list := make([]approxCand, 0, approxShortlistK)
			for _, v := range buildCliqueVertices(in, ti) {
				if v.reject() {
					continue
				}
				slack := task.MaxLatency.Seconds() - v.compute
				if slack <= 0 {
					continue
				}
				rLat, rFull := MinSlices(v.bits, bRate, slack, task.Rate)
				if rLat > in.Res.RBs {
					continue
				}
				list = append(list, approxCand{v: v, r: max(rLat, rFull)})
				if len(list) == approxShortlistK {
					break
				}
			}
			cands[oi] = list
		}
	})
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}

	// Pass 2: greedy packing in descending priority with shared-block
	// memory and training accounting.
	state := newBranchState(in)
	assignments := in.unassigned()
	remC := in.Res.ComputeSeconds
	remRB := float64(in.Res.RBs)
	for oi, ti := range order {
		if oi&1023 == 0 {
			if err := ctxErr(ctx); err != nil {
				return nil, err
			}
		}
		task := &in.Tasks[ti]
		bRate := in.Res.Capacity.BitsPerRBPerSecond(task.SNRdB)
		for _, c := range cands[oi] {
			// Marginal deployment cost: only blocks no higher-ranked
			// task has already activated.
			var addMem, addCt float64
			if c.v.path != nil {
				for _, id := range c.v.path.Blocks {
					if !state.active[id] {
						addMem += in.BlockMemoryGB(id)
						addCt += in.blockTrainSeconds(id)
					}
				}
			}
			if state.memoryGB+addMem > in.Res.MemoryGB+1e-12 {
				continue
			}
			r := c.r
			z := 1.0
			if demand := task.Rate * c.v.compute; demand > 0 && remC < demand {
				z = remC / demand
			}
			if lim := bRate * float64(r) / (task.Rate * c.v.bits); lim < z {
				z = lim
			}
			if remRB < z*float64(r) {
				z = remRB / float64(r)
			}
			if z < zEps {
				continue
			}
			if z > 1-1e-9 {
				z = 1
			}
			net := -in.Alpha * task.Priority * z
			if rPrice > 0 {
				net += (1 - in.Alpha) * z * float64(r) / rPrice
			}
			if cPrice > 0 {
				net += (1 - in.Alpha) * z * task.Rate * c.v.compute / cPrice
			}
			if ctPrice > 0 {
				net += (1 - in.Alpha) * addCt / ctPrice
			}
			if net >= 0 {
				continue
			}
			state.push(c.v) // blocks stay active for later tasks
			assignments[ti].Path = c.v.path
			assignments[ti].Quality = c.v.quality
			assignments[ti].Z = z
			assignments[ti].RBs = r
			remC -= z * task.Rate * c.v.compute
			remRB -= z * float64(r)
			if remC < 0 {
				remC = 0
			}
			if remRB < 0 {
				remRB = 0
			}
			break
		}
	}
	sol, err := in.newSolution(assignments, time.Since(start))
	if err != nil {
		return nil, err
	}
	sol.Tier = TierApprox
	return sol, nil
}
