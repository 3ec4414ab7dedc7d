package cluster

import (
	"context"
	"fmt"
	"sort"

	"offloadnn/internal/core"
)

// zFull is the admission ratio above which a task counts as fully
// admitted for placement purposes (matching the solver's own z≈1
// threshold).
const zFull = 1 - 1e-6

// NodePlan is one node's slice of a cluster placement: the (bandwidth-
// adjusted) tasks assigned to it, the blocks their paths reference, and
// the per-node DOT solution the assignment was derived from.
type NodePlan struct {
	// Node the subset is destined for.
	Node Node
	// Tasks assigned to the node, in the per-node session's order. A
	// task may appear here with z = 0 (it was tried on the node and the
	// node's solver rejected it without a better node existing); the
	// member's own epoch reaches the same verdict.
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
	// Plans is parallel to the node list Place was given.
	Plans []NodePlan
	// Route maps each admitted task to the ID of the node serving it.
	Route map[string]string
	// Unplaced lists tasks no node admits (sorted) — whole or split.
	Unplaced []string
	// Splits lists the pipelined multi-node plans the split-placement
	// pass found for tasks whole-path placement spilled (splitplace.go);
	// their tasks appear in Route keyed to the head node.
	Splits []SplitPath
	// WeightedAdmission is Σ over nodes of Σ z·p — the cluster-wide
	// counterpart of the single-server Breakdown.WeightedAdmission.
	WeightedAdmission float64
	// Errors records per-node solver failures survived by falling back
	// to other nodes (diagnostics; a placement with errors is still
	// valid).
	Errors []string
	// Norm holds the fleet-wide capacity totals every per-node solve was
	// priced against (core.Resources.Norm); pushes carry it so members
	// reprice identically.
	Norm *core.Resources
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

// nodeState is one node's evolving solver state during a placement run.
type nodeState struct {
	node  Node
	alpha float64
	// sess is the node's incremental DOT session, nil while no task has
	// landed on the node (an empty instance is unsolvable by design).
	sess *core.SolverSession
	sol  *core.Solution
	// placed are the adjusted tasks currently applied to the session,
	// kept for rebuild-from-scratch recovery.
	placed []core.Task
	// catalog is the full block catalog tasks draw on (shared, read-only).
	catalog map[string]core.BlockSpec
	// dead marks a node whose session failed unrecoverably this run; no
	// further task is tried on it.
	dead bool
}

// DefaultPlaceApproxAfter is the fleet-wide task count from which
// PlaceWith runs the approximate partition-and-pack placement instead
// of the exact per-node session bin-pack. The bin-pack offers every
// task to every node, one incremental solve each, plus the improve
// sweeps: 0.42–0.92 s at 512 tasks on 2–4 nodes and 2.7–5.0 s at 1 024,
// where the approximate placement takes 9–15 ms and admits within
// 0.25 % of the pooled-fleet solve (TestPlaceApproxAtScale bounds it
// at 1 %).
const DefaultPlaceApproxAfter = 512

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

// Place assigns every task to at most one node: greedy bin-pack by
// descending priority (ties keep registration order) over per-node
// incremental solver sessions. Each task is offered to the nodes in
// order — its latency budget shrunk by that node's link forward delay —
// and sticks to the first node whose DOT solve fully admits it; when no
// node does (a budget binds everywhere), it spills to the node that
// admitted the largest fraction z, and a task no node admits at all is
// left unplaced. Adding a spilled task never evicts an earlier, higher-
// priority placement: the per-node objective prefers shedding the
// cheaper newcomer, which is exactly the spill signal.
//
// From DefaultPlaceApproxAfter tasks the run switches to the approximate
// placement (see PlaceWith); Place is PlaceWith with the default
// configuration at the given alpha.
//
// The returned placement carries each node's final solution; members
// re-solve the same per-node instance locally after the push and reach
// the same assignments.
func Place(ctx context.Context, tasks []core.Task, blocks map[string]core.BlockSpec, nodes []Node, alpha float64) *Placement {
	return PlaceWith(ctx, tasks, blocks, nodes, PlaceConfig{Alpha: alpha})
}

// PlaceWith computes one cluster-wide placement under the given
// configuration: the exact per-node session bin-pack below
// DefaultPlaceApproxAfter tasks, the approximate partition-and-pack
// placement (capacity-proportional task partitioning, then one
// approximate admission solve per node) from there up.
func PlaceWith(ctx context.Context, tasks []core.Task, blocks map[string]core.BlockSpec, nodes []Node, cfg PlaceConfig) *Placement {
	var p *Placement
	if len(tasks) >= DefaultPlaceApproxAfter && len(nodes) > 0 {
		p = placeApprox(ctx, tasks, blocks, nodes, cfg.Alpha)
	} else {
		p = placeExact(ctx, tasks, blocks, nodes, cfg.Alpha)
	}
	splitPlace(p, tasks, blocks, cfg.Split)
	return p
}

// placeExact is the exact greedy bin-pack over per-node incremental
// solver sessions (see Place).
func placeExact(ctx context.Context, tasks []core.Task, blocks map[string]core.BlockSpec, nodes []Node, alpha float64) *Placement {
	norm := fleetNorm(nodes)
	states := make([]*nodeState, len(nodes))
	for i, n := range nodes {
		n.Res.Norm = norm // price at fleet-wide rates, constrain at node budgets
		states[i] = &nodeState{node: n, alpha: alpha, catalog: blocks}
	}
	p := &Placement{Route: make(map[string]string), Norm: norm}

	order := byPriority(tasks)
	for _, ti := range order {
		t := tasks[ti]
		bestNode, bestZ := -1, 0.0
		placedFull := false
		for ni, ns := range states {
			if ns.dead {
				continue
			}
			adj, ok := ns.node.AdjustTask(t)
			if !ok {
				continue // the link alone eats the latency budget
			}
			z, err := ns.tryAdd(ctx, adj, blocks)
			if err != nil {
				p.Errors = append(p.Errors, fmt.Sprintf("node %s: task %s: %v", ns.node.ID, t.ID, err))
				continue
			}
			if z >= zFull {
				placedFull = true
				break
			}
			// Budget binds here: roll back and keep looking, remembering
			// the best partial admission as the spill fallback.
			if rerr := ns.remove(ctx, adj.ID); rerr != nil {
				p.Errors = append(p.Errors, fmt.Sprintf("node %s: rollback %s: %v", ns.node.ID, t.ID, rerr))
			}
			if z > bestZ {
				bestZ, bestNode = z, ni
			}
		}
		if placedFull || bestNode < 0 {
			continue
		}
		// Spill: re-apply on the node that admitted the largest fraction.
		ns := states[bestNode]
		adj, _ := ns.node.AdjustTask(t)
		if _, err := ns.tryAdd(ctx, adj, blocks); err != nil {
			p.Errors = append(p.Errors, fmt.Sprintf("node %s: spill %s: %v", ns.node.ID, t.ID, err))
		}
	}

	improve(ctx, states, tasks, order, blocks)

	outcomes := make([]nodeOutcome, len(states))
	for i, ns := range states {
		outcomes[i].node = ns.node
		if ns.sess != nil && ns.sol != nil {
			placed := ns.sess.Tasks()
			outcomes[i].tasks, outcomes[i].blocks, outcomes[i].sol = placed, referencedBlocks(placed, blocks), ns.sol
		}
	}
	p.assemble(tasks, outcomes)
	return p
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

// nodeOutcome is what a placement pass leaves on one node: the tasks
// applied to it, the catalog subset they reference, and the node's final
// solution over them — all nil when nothing landed there or its solve
// failed.
type nodeOutcome struct {
	node   Node
	tasks  []core.Task
	blocks map[string]core.BlockSpec
	sol    *core.Solution
}

// assemble fills in the per-node plans, the routing table, the weighted
// admission and the sorted unplaced list. Route and admitted rates are
// read off the final solutions, so a task placed early but demoted to
// z = 0 by later arrivals on its node is unplaced, not routed.
func (p *Placement) assemble(tasks []core.Task, outcomes []nodeOutcome) {
	p.Plans = make([]NodePlan, len(outcomes))
	for i, o := range outcomes {
		plan := NodePlan{Node: o.node, Admitted: make(map[string]float64)}
		if o.sol != nil {
			plan.Tasks, plan.Blocks, plan.Solution = o.tasks, o.blocks, o.sol
			for ai, a := range o.sol.Assignments {
				if !a.Admitted() || ai >= len(o.tasks) {
					continue
				}
				plan.Admitted[a.TaskID] = a.Z * o.tasks[ai].Rate
				p.Route[a.TaskID] = o.node.ID
			}
			p.WeightedAdmission += o.sol.Breakdown.WeightedAdmission
		}
		p.Plans[i] = plan
	}
	for i := range tasks {
		if _, ok := p.Route[tasks[i].ID]; !ok {
			p.Unplaced = append(p.Unplaced, tasks[i].ID)
		}
	}
	sort.Strings(p.Unplaced)
}

// improveRounds bounds the local-search sweeps over not-fully-admitted
// tasks; in practice the search converges in one or two.
const improveRounds = 4

// improve runs a local search over the greedy placement: every task the
// greedy pass left below full admission (including unplaced ones) is
// tentatively moved to each other node, and the move is kept when it
// raises the cluster-wide weighted admission. The greedy pass is blind to
// tasks it has not seen yet — a high-priority, radio-hungry task placed
// early can end up partially admitted on a node whose LP later prefers a
// clutch of cheaper tasks, while the other node has the headroom to carry
// it whole — and this pass is what lets the spilled shape recover the
// single-server packing.
func improve(ctx context.Context, states []*nodeState, tasks []core.Task, order []int, blocks map[string]core.BlockSpec) {
	total := func() float64 {
		sum := 0.0
		for _, ns := range states {
			if ns.sol != nil {
				sum += ns.sol.Breakdown.WeightedAdmission
			}
		}
		return sum
	}
	for round := 0; round < improveRounds; round++ {
		improved := false
		for _, ti := range order {
			t := tasks[ti]
			cur := -1
			for i, ns := range states {
				if ns.holds(t.ID) {
					cur = i
					break
				}
			}
			if cur >= 0 && zOf(states[cur].sol, t.ID) >= zFull {
				continue
			}
			before := total()
			bestJ, bestGain := -1, 1e-9
			for j, ns := range states {
				if j == cur || ns.dead {
					continue
				}
				adj, ok := ns.node.AdjustTask(t)
				if !ok {
					continue
				}
				// Tentative move: off the current node, onto candidate j.
				if cur >= 0 {
					if err := states[cur].remove(ctx, t.ID); err != nil {
						break
					}
				}
				_, addErr := ns.tryAdd(ctx, adj, blocks)
				gain := total() - before
				// Revert; the commit below replays the winning move.
				if addErr == nil {
					if err := ns.remove(ctx, t.ID); err != nil {
						return
					}
				}
				if cur >= 0 {
					curAdj, _ := states[cur].node.AdjustTask(t)
					if _, err := states[cur].tryAdd(ctx, curAdj, blocks); err != nil {
						return
					}
				}
				if addErr == nil && gain > bestGain {
					bestJ, bestGain = j, gain
				}
			}
			if bestJ < 0 {
				continue
			}
			if cur >= 0 {
				if err := states[cur].remove(ctx, t.ID); err != nil {
					continue
				}
			}
			adj, _ := states[bestJ].node.AdjustTask(t)
			if _, err := states[bestJ].tryAdd(ctx, adj, blocks); err == nil {
				improved = true
			}
		}
		if !improved {
			break
		}
	}
}

// holds reports whether the task is currently applied to the node.
func (ns *nodeState) holds(id string) bool {
	for _, t := range ns.placed {
		if t.ID == id {
			return true
		}
	}
	return false
}

// tryAdd offers the (already bandwidth-adjusted) task to the node and
// returns the admission ratio z its solver granted. On a solver error
// the node's state is restored (rebuilding the session from scratch if
// the incremental rollback also fails) and the error returned.
func (ns *nodeState) tryAdd(ctx context.Context, adj core.Task, blocks map[string]core.BlockSpec) (float64, error) {
	if ns.sess == nil {
		sess, err := core.NewSolverSession(&core.Instance{
			Tasks:  []core.Task{adj},
			Blocks: referencedBlocks([]core.Task{adj}, blocks),
			Res:    ns.node.Res,
			Alpha:  ns.alpha,
		})
		if err != nil {
			return 0, err
		}
		sol, err := sess.Resolve(ctx, core.TaskDelta{})
		if err != nil {
			return 0, err
		}
		ns.sess, ns.sol = sess, sol
		ns.placed = append(ns.placed, adj)
		return zOf(sol, adj.ID), nil
	}
	delta := core.TaskDelta{Add: []core.Task{adj}}
	have := ns.sess.Instance().Blocks
	for id, b := range referencedBlocks([]core.Task{adj}, blocks) {
		if _, ok := have[id]; !ok {
			if delta.AddBlocks == nil {
				delta.AddBlocks = make(map[string]core.BlockSpec)
			}
			delta.AddBlocks[id] = b
		}
	}
	sol, err := ns.sess.Resolve(ctx, delta)
	if err != nil {
		// The delta may or may not have been applied; rebuild from the
		// last known-good placement.
		ns.rebuild(ctx)
		return 0, err
	}
	ns.sol = sol
	ns.placed = append(ns.placed, adj)
	return zOf(sol, adj.ID), nil
}

// remove rolls one task back off the node.
func (ns *nodeState) remove(ctx context.Context, id string) error {
	if ns.sess == nil {
		return nil
	}
	keep := ns.placed[:0]
	for _, t := range ns.placed {
		if t.ID != id {
			keep = append(keep, t)
		}
	}
	ns.placed = keep
	if len(ns.placed) == 0 {
		// Removing the last task would leave an unsolvable empty
		// instance; reset instead.
		ns.sess, ns.sol = nil, nil
		return nil
	}
	sol, err := ns.sess.Resolve(ctx, core.TaskDelta{Remove: []string{id}})
	if err != nil {
		ns.rebuild(ctx)
		return err
	}
	ns.sol = sol
	return nil
}

// rebuild reconstructs the node's session from its placed task list
// after an incremental failure; a node whose rebuild also fails is dead
// for the rest of the run.
func (ns *nodeState) rebuild(ctx context.Context) {
	ns.sess, ns.sol = nil, nil
	if len(ns.placed) == 0 {
		return
	}
	sess, err := core.NewSolverSession(&core.Instance{
		Tasks:  append([]core.Task(nil), ns.placed...),
		Blocks: referencedBlocks(ns.placed, ns.catalog),
		Res:    ns.node.Res,
		Alpha:  ns.alpha,
	})
	if err != nil {
		ns.dead = true
		return
	}
	sol, err := sess.Resolve(ctx, core.TaskDelta{})
	if err != nil {
		ns.dead = true
		return
	}
	ns.sess, ns.sol = sess, sol
}

// zOf returns the admitted fraction the solution grants a task.
func zOf(sol *core.Solution, id string) float64 {
	for _, a := range sol.Assignments {
		if a.TaskID == id {
			if !a.Admitted() {
				return 0
			}
			return a.Z
		}
	}
	return 0
}

// placeApprox is the approximate placement tier for fleet-wide task
// counts the exact session bin-pack is too slow for: every task costs
// the exact pass at least one incremental solve per node, so its total
// work is quadratic-plus in the task count, while this pass is two linear
// sweeps. Tasks are partitioned across the eligible nodes (link delay
// must leave latency slack) in descending priority, each to the node
// with the most remaining compute headroom per unit of assigned demand
// (λ as the demand proxy), and each node's subset is then packed by one
// approximate admission solve (core.TierApprox) priced at the
// fleet-wide normalizers — the same pricing the exact pass uses, so the
// two tiers' plans are comparable and members reprice identically.
func placeApprox(ctx context.Context, tasks []core.Task, blocks map[string]core.BlockSpec, nodes []Node, alpha float64) *Placement {
	norm := fleetNorm(nodes)
	p := &Placement{Route: make(map[string]string), Norm: norm}

	// Partition sweep: capacity-proportional balancing over the nodes
	// whose link leaves the task latency slack.
	perNode := make([][]core.Task, len(nodes))
	load := make([]float64, len(nodes)) // Σλ assigned so far
	for _, ti := range byPriority(tasks) {
		t := tasks[ti]
		best, bestScore := -1, -1.0
		var bestAdj core.Task
		for ni := range nodes {
			adj, ok := nodes[ni].AdjustTask(t)
			if !ok {
				continue
			}
			score := nodes[ni].Res.ComputeSeconds / (load[ni] + t.Rate)
			if score > bestScore {
				best, bestScore, bestAdj = ni, score, adj
			}
		}
		if best < 0 {
			continue // no node's link leaves latency slack: unplaced
		}
		perNode[best] = append(perNode[best], bestAdj)
		load[best] += t.Rate
	}

	// Packing sweep: one approximate admission solve per node.
	outcomes := make([]nodeOutcome, len(nodes))
	for i := range nodes {
		node := nodes[i]
		node.Res.Norm = norm // price at fleet-wide rates, constrain at node budgets
		outcomes[i].node = node
		if len(perNode[i]) == 0 {
			continue
		}
		in := &core.Instance{
			Tasks:  perNode[i],
			Blocks: referencedBlocks(perNode[i], blocks),
			Res:    node.Res,
			Alpha:  alpha,
		}
		sol, err := core.SolveSpec(ctx, in, core.SolverSpec{Tier: core.TierApprox})
		if err != nil {
			p.Errors = append(p.Errors, fmt.Sprintf("node %s: approx solve: %v", node.ID, err))
			continue
		}
		outcomes[i].tasks, outcomes[i].blocks, outcomes[i].sol = in.Tasks, in.Blocks, sol
	}
	p.assemble(tasks, outcomes)
	return p
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
