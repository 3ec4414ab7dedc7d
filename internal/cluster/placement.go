package cluster

import (
	"context"
	"fmt"
	"sort"

	"offloadnn/internal/core"
	"offloadnn/internal/serve"
)

// nodePlan is one node's slice of a cluster placement: the (bandwidth-
// adjusted) tasks assigned to it, the blocks their paths reference, and
// the per-node DOT solution the assignment was derived from.
type nodePlan struct {
	// Node the subset is destined for.
	Node Node
	// Tasks assigned to the node, in assignment order and parallel to
	// Solution.Assignments. A task may appear here with z = 0 (the node's
	// solver rejected it and it had no node left to try, so it stays on
	// the last one); the member's own epoch reaches the same verdict.
	Tasks []core.Task
	// Blocks is the catalog subset the tasks' paths reference.
	Blocks map[string]core.BlockSpec
	// Solution is the node's DOT solution, nil when no task landed here.
	Solution *core.Solution
	// Admitted maps each admitted task to its admitted rate z·λ.
	Admitted map[string]float64
}

// Placement is one cluster-wide assignment of tasks to nodes.
type Placement struct {
	// plans is parallel to the node list PlaceWith was given.
	plans []nodePlan
	// route maps each admitted task to the ID of the node serving it.
	route map[string]string
	// unplaced lists tasks no node admits (sorted) — whole or split.
	unplaced []string
	// Splits lists the pipelined multi-node plans the split-placement
	// pass found for tasks whole-path placement spilled (splitplace.go);
	// their tasks appear in Route keyed to the head node.
	Splits []SplitPath
	// weightedAdmission is Σ over nodes of Σ z·p — the cluster-wide
	// counterpart of the single-server Breakdown.WeightedAdmission.
	weightedAdmission float64
	// errors records per-node failures — a solve that errored or whose
	// solution failed Instance.Check, alone or beside the node's segments.
	// Such a node gets no plan, or no segments, and those tasks are
	// unplaced; the rest of the placement is still valid.
	errors []string
	// norm holds the fleet-wide capacity totals every per-node solve was
	// priced against (core.Resources.Norm); pushes carry it so members
	// reprice identically.
	norm *core.Resources
}

// fleetNorm sums the nodes' budgets into the objective normalizer shared
// by every per-node solve: R and C add up across the fleet, while Ct —
// which each node keeps in full — takes the largest value so the train
// term matches the single-server pricing.
func fleetNorm(nodes []Node) *core.Resources {
	norm := &core.Resources{}
	for _, n := range nodes {
		norm.RBs += n.Res.RBs
		norm.ComputeSeconds += n.Res.ComputeSeconds
		norm.MemoryGB += n.Res.MemoryGB
		if n.Res.TrainBudgetSeconds > norm.TrainBudgetSeconds {
			norm.TrainBudgetSeconds = n.Res.TrainBudgetSeconds
		}
	}
	return norm
}

// PlaceConfig parameterizes a placement run.
type PlaceConfig struct {
	// Alpha weights admission against resource cost in every per-node
	// solve.
	Alpha float64
	// Split, when non-nil, enables the cross-node split-placement pass:
	// tasks whole-path placement leaves unplaced are offered pipelined
	// multi-node plans (splitplace.go).
	Split *SplitConfig
}

// PlaceWith assigns every task to at most one node in three steps, the
// same at every fleet size:
//
//  1. Partition. Tasks are walked in descending priority (ties keep
//     registration order) and each goes to the node with the most compute
//     headroom per unit of assigned demand (λ as the demand proxy), among
//     the nodes it has not tried whose link forward delay leaves its
//     latency budget any slack (Node.adjustTask).
//  2. Solve. Every node whose subset changed gets one DOT solve of that
//     subset — latency budgets shrunk by the node's link, priced at the
//     fleet-wide normalizers — and the solution is checked against the
//     node's own budgets before it enters the placement.
//  3. Retry. A task its node's solve left at z = 0 comes off that node
//     and goes round again from step 1: a link can leave latency slack yet
//     too little for any path, and a budget can bind on one node while
//     another has room. Each task tries each node at most once, so the
//     loop ends within len(nodes) rounds; a task rejected by every node it
//     could try stays listed, at z = 0, on the last one.
//
// The returned placement carries each node's final solution; members
// re-solve the same per-node instance locally after the push. Tasks still
// unplaced are then offered split plans when cfg.Split is set, and every
// node's solution is checked again with its segments reserved.
func PlaceWith(ctx context.Context, tasks []core.Task, blocks map[string]core.BlockSpec, nodes []Node, cfg PlaceConfig) *Placement {
	norm := fleetNorm(nodes)
	p := &Placement{plans: make([]nodePlan, len(nodes)), norm: norm}
	subsets := make([]nodeSubset, len(nodes))
	for i, n := range nodes {
		n.Res.Norm = norm // price at fleet-wide rates, constrain at node budgets
		p.plans[i].Node = n
	}

	order := byPriority(tasks)
	pending := make([]bool, len(tasks)) // tasks waiting for a node this round
	for i := range pending {
		pending[i] = true
	}
	// tried(ti)[ni]: task ti has been on node ni, or cannot go there (dead
	// link, failed node). The first partition pass visits every pair, so
	// from the first solve on an unset entry is a node to retry on.
	flat := make([]bool, len(tasks)*len(nodes))
	tried := func(ti int) []bool { return flat[ti*len(nodes) : (ti+1)*len(nodes)] }

	for more := true; more; {
		for _, ti := range order {
			if !pending[ti] {
				continue
			}
			pending[ti] = false
			t, row := &tasks[ti], tried(ti)
			best, bestScore := -1, -1.0
			for ni := range nodes {
				if row[ni] {
					continue
				}
				if _, ok := nodes[ni].adjustTask(*t); !ok {
					row[ni] = true // the link alone eats the latency budget
					continue
				}
				if score := nodes[ni].Res.ComputeSeconds / (subsets[ni].load + t.Rate); score > bestScore {
					best, bestScore = ni, score
				}
			}
			if best < 0 {
				continue // no node left to try: unplaced
			}
			row[best] = true
			ns := &subsets[best]
			ns.held = append(ns.held, ti)
			ns.load += t.Rate
			ns.changed = true
		}

		more = false
		for ni := range subsets {
			ns, plan := &subsets[ni], &p.plans[ni]
			if !ns.changed {
				continue
			}
			ns.changed = false
			plan.Tasks, plan.Blocks, plan.Solution = nil, nil, nil
			if len(ns.held) == 0 {
				continue // an empty instance is unsolvable by design
			}
			in := &core.Instance{Tasks: make([]core.Task, len(ns.held)), Res: plan.Node.Res, Alpha: cfg.Alpha}
			for i, ti := range ns.held {
				in.Tasks[i], _ = plan.Node.adjustTask(tasks[ti])
			}
			in.Blocks = referencedBlocks(in.Tasks, blocks)
			// The one solve site, and its post-condition: no route table is
			// ever built from a plan that was not checked on its node
			// (checkSplits re-checks it beside the node's segments).
			sol, err := core.SolveSpec(ctx, in, core.SolverSpec{})
			if err == nil {
				err = in.Check(sol.Assignments)
			}
			if err != nil {
				// The node is out for this run: no plan, its tasks unplaced,
				// and nothing retries onto it.
				p.errors = append(p.errors, fmt.Sprintf("node %s: %v", plan.Node.ID, err))
				ns.held = nil
				for ti := range tasks {
					tried(ti)[ni] = true
				}
				continue
			}
			plan.Tasks, plan.Blocks, plan.Solution = in.Tasks, in.Blocks, sol
			keep := ns.held[:0]
			for ai, ti := range ns.held {
				if sol.Assignments[ai].Admitted() || !hasUntried(tried(ti)) {
					keep = append(keep, ti)
					continue
				}
				pending[ti] = true
				ns.load -= tasks[ti].Rate
			}
			if len(keep) < len(ns.held) {
				ns.held, ns.changed, more = keep, true, true
			}
		}
	}

	p.assemble(tasks)
	splitPlace(p, tasks, blocks, cfg.Split)
	if len(p.Splits) > 0 {
		p.checkSplits()
		p.assemble(tasks)
	}
	return p
}

// nodeSubset is one node's side of a placement run.
type nodeSubset struct {
	held    []int   // indices into the fleet task list, in assignment order
	load    float64 // Σλ over held
	changed bool    // held differs from what the node's plan was solved over
}

func hasUntried(tried []bool) bool {
	for _, t := range tried {
		if !t {
			return true
		}
	}
	return false
}

// byPriority returns task indices in descending priority, stable so
// equal priorities keep registration order (the same tie-break the
// single-server solver applies).
func byPriority(tasks []core.Task) []int {
	order := make([]int, len(tasks))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return tasks[order[a]].Priority > tasks[order[b]].Priority
	})
	return order
}

// assemble reads the routing table, the admitted rates, the weighted
// admission and the sorted unplaced list off the nodes' final solutions
// and the split plans, which route to their head nodes.
func (p *Placement) assemble(tasks []core.Task) {
	p.route, p.unplaced, p.weightedAdmission = make(map[string]string), nil, 0
	for i := range p.plans {
		plan := &p.plans[i]
		plan.Admitted = make(map[string]float64)
		if plan.Solution == nil {
			continue
		}
		for ai, a := range plan.Solution.Assignments {
			if a.Admitted() {
				plan.Admitted[a.TaskID] = a.Z * plan.Tasks[ai].Rate
				p.route[a.TaskID] = plan.Node.ID
			}
		}
		p.weightedAdmission += plan.Solution.Breakdown.WeightedAdmission
	}
	if len(p.Splits) > 0 {
		priority := make(map[string]float64, len(tasks))
		for i := range tasks {
			priority[tasks[i].ID] = tasks[i].Priority
		}
		// A split admission carries the same z·p weight a whole-path
		// admission would have contributed through its node's solution.
		for _, sp := range p.Splits {
			p.route[sp.taskID] = sp.Segments[0].nodeID
			p.weightedAdmission += sp.z * priority[sp.taskID]
		}
	}
	for i := range tasks {
		if _, ok := p.route[tasks[i].ID]; !ok {
			p.unplaced = append(p.unplaced, tasks[i].ID)
		}
	}
	sort.Strings(p.unplaced)
}

// checkSplits is the post-condition on split plans: on every node, the
// wire segments the member will be pushed are reserved on its instance
// and its whole-path solution is Checked beside them, as the member does
// on receipt. A failing node is named in Errors and its splits dropped
// (assemble then unroutes them); dropping only frees capacity.
func (p *Placement) checkSplits() {
	wire := wireSegments(p.Splits)
	drop := make(map[string]bool)
	for i := range p.plans {
		plan := &p.plans[i]
		segs := wire[plan.Node.ID]
		if len(segs) == 0 {
			continue
		}
		in := &core.Instance{Tasks: plan.Tasks, Blocks: plan.Blocks, Res: plan.Node.Res}
		err := in.Reserve(serve.Reservations(segs)...)
		if err == nil && plan.Solution != nil {
			err = in.Check(plan.Solution.Assignments)
		}
		if err != nil {
			p.errors = append(p.errors, fmt.Sprintf("node %s with its segments: %v", plan.Node.ID, err))
			for _, seg := range segs {
				drop[seg.Task] = true
			}
		}
	}
	if len(drop) > 0 {
		keep := p.Splits[:0]
		for _, sp := range p.Splits {
			if !drop[sp.taskID] {
				keep = append(keep, sp)
			}
		}
		p.Splits = keep
	}
}

// wireSegments converts split plans into each node's wire segments,
// threading the relay coordinates (next hop, pipeline length, head budget
// and slice) through.
func wireSegments(splits []SplitPath) map[string][]wireSegment {
	out := make(map[string][]wireSegment)
	for i := range splits {
		sp := &splits[i]
		for si, seg := range sp.Segments {
			w := wireSegment{
				Task:   sp.taskID,
				Path:   sp.path.ID,
				DNN:    sp.path.DNN,
				Blocks: sp.path.Blocks,
				From:   seg.from,
				To:     seg.To,
				Rate:   sp.rate,
				Hop:    si,
				Hops:   len(sp.Segments),
			}
			if si == 0 {
				w.BudgetMS = sp.budgetMS
				w.RBs = sp.rbs
			}
			if si+1 < len(sp.Segments) {
				w.Next = sp.Segments[si+1].addr
				w.NextNode = sp.Segments[si+1].nodeID
			}
			out[seg.nodeID] = append(out[seg.nodeID], w)
		}
	}
	return out
}

// referencedBlocks gathers the catalog subset the tasks' paths (and
// their quality ladders) reference.
func referencedBlocks(tasks []core.Task, blocks map[string]core.BlockSpec) map[string]core.BlockSpec {
	out := make(map[string]core.BlockSpec)
	for i := range tasks {
		for _, p := range tasks[i].Paths {
			for _, id := range p.Blocks {
				if b, ok := blocks[id]; ok {
					out[id] = b
				}
			}
		}
	}
	return out
}
