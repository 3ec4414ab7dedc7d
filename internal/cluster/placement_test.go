package cluster

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"offloadnn/internal/core"
	"offloadnn/internal/workload"
)

// singleSolve runs the single-server OffloaDNN heuristic on the scenario.
func singleSolve(t *testing.T, in *core.Instance) *core.Solution {
	t.Helper()
	sol, err := core.SolveOffloaDNN(in)
	if err != nil {
		t.Fatalf("single-server solve: %v", err)
	}
	return sol
}

// partitionResources splits one edge server's capacity pool into n
// per-node budgets for a cluster of edge nodes: compute C and memory M
// divide evenly, the R radio resource blocks split integrally with the
// remainder spread over the first nodes, and every node keeps the full
// training budget Ct (it normalizes the DOT objective's training term —
// shrinking it would inflate each node's train cost relative to the
// single-server objective) and the shared capacity model B(σ).
func partitionResources(res core.Resources, n int) []core.Resources {
	if n <= 0 {
		return nil
	}
	out := make([]core.Resources, n)
	base, extra := res.RBs/n, res.RBs%n
	for i := range out {
		out[i] = core.Resources{
			RBs:                base,
			ComputeSeconds:     res.ComputeSeconds / float64(n),
			MemoryGB:           res.MemoryGB / float64(n),
			TrainBudgetSeconds: res.TrainBudgetSeconds,
			Capacity:           res.Capacity,
		}
		if i < extra {
			out[i].RBs++
		}
	}
	return out
}

// clusterScenario is the 20-task large scenario at load for an n-node
// cluster: the full task set and catalog, and each node's
// partitionResources share of the Table-IV pool.
func clusterScenario(load workload.Load, n int) (*core.Instance, []core.Resources, error) {
	if n < 1 {
		return nil, nil, fmt.Errorf("cluster scenario needs at least 1 node, got %d", n)
	}
	in, err := workload.LargeScenario(load)
	if err != nil {
		return nil, nil, err
	}
	return in, partitionResources(in.Res, n), nil
}

func TestClusterScenarioShares(t *testing.T) {
	in, shares, err := clusterScenario(workload.LoadMedium, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(shares) != 3 {
		t.Fatalf("got %d shares, want 3", len(shares))
	}
	rbs := 0
	var compute, memory float64
	for i, s := range shares {
		rbs += s.RBs
		compute += s.ComputeSeconds
		memory += s.MemoryGB
		if s.TrainBudgetSeconds != in.Res.TrainBudgetSeconds {
			t.Errorf("share %d train budget %v, want the full %v per node", i, s.TrainBudgetSeconds, in.Res.TrainBudgetSeconds)
		}
		if s.Capacity == nil {
			t.Errorf("share %d lost the capacity model", i)
		}
	}
	if rbs != in.Res.RBs {
		t.Errorf("shares hold %d RBs total, pool has %d", rbs, in.Res.RBs)
	}
	if diff := compute - in.Res.ComputeSeconds; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("shares hold %v compute total, pool has %v", compute, in.Res.ComputeSeconds)
	}
	if diff := memory - in.Res.MemoryGB; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("shares hold %v GB total, pool has %v", memory, in.Res.MemoryGB)
	}
	if _, _, err := clusterScenario(workload.LoadMedium, 0); err == nil {
		t.Error("0-node cluster scenario did not error")
	}
}

func clusterNodes(res []core.Resources) []Node {
	nodes := make([]Node, len(res))
	for i, r := range res {
		// FloorMbps -1: these tests compare cluster placement against the
		// standalone solver, which models no coordinator→node link at all,
		// so the unmeasured-link floor must not charge the budget here.
		nodes[i] = Node{ID: string(rune('a' + i)), Res: r, FloorMbps: -1}
	}
	return nodes
}

// TestPlaceOneNodeMatchesSingleServer: a 1-node cluster with the full
// budget must reproduce the single-server solution exactly — same
// admitted set, paths and admission ratios.
func TestPlaceOneNodeMatchesSingleServer(t *testing.T) {
	in, err := workload.LargeScenario(workload.LoadMedium)
	if err != nil {
		t.Fatal(err)
	}
	want := singleSolve(t, in)
	p := PlaceWith(context.Background(), in.Tasks, in.Blocks, []Node{{ID: "solo", Res: in.Res, FloorMbps: -1}}, PlaceConfig{Alpha: in.Alpha})
	if len(p.errors) != 0 {
		t.Fatalf("placement errors: %v", p.errors)
	}
	got := p.plans[0].Solution
	if got == nil {
		t.Fatal("no solution on the only node")
	}
	// A task the solver rejects outright (z=0) stays out of the cluster
	// session — the coordinator answers not_admitted for unrouted tasks —
	// so the comparison is over admitted assignments.
	wantBy := make(map[string]core.Assignment)
	for _, a := range want.Assignments {
		if a.Admitted() {
			wantBy[a.TaskID] = a
		}
	}
	gotAdmitted := 0
	for _, a := range got.Assignments {
		if !a.Admitted() {
			continue
		}
		gotAdmitted++
		w, ok := wantBy[a.TaskID]
		if !ok {
			t.Errorf("task %s admitted by the cluster, rejected standalone", a.TaskID)
			continue
		}
		if a.Path.ID != w.Path.ID {
			t.Errorf("task %s: path %s want %s", a.TaskID, a.Path.ID, w.Path.ID)
		}
		if diff := a.Z - w.Z; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("task %s: z %v want %v", a.TaskID, a.Z, w.Z)
		}
		if a.RBs != w.RBs {
			t.Errorf("task %s: rbs %d want %d", a.TaskID, a.RBs, w.RBs)
		}
	}
	if gotAdmitted != len(wantBy) {
		t.Errorf("admitted count: got %d want %d", gotAdmitted, len(wantBy))
	}
	if diff := p.weightedAdmission - want.Breakdown.WeightedAdmission; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("weighted admission %v want %v", p.weightedAdmission, want.Breakdown.WeightedAdmission)
	}
}

// TestPlaceTwoHalfNodesAdmitNoLess is the PR's acceptance criterion: a
// 2-node cluster whose nodes each get half the single server's M/C/R
// budgets must admit at least as much total weighted priority as the one
// full-budget server on the 20-task scenario.
func TestPlaceTwoHalfNodesAdmitNoLess(t *testing.T) {
	for _, load := range []workload.Load{workload.LoadLow, workload.LoadMedium, workload.LoadHigh} {
		in, shares, err := clusterScenario(load, 2)
		if err != nil {
			t.Fatal(err)
		}
		single := singleSolve(t, in).Breakdown.WeightedAdmission
		nodes := clusterNodes(shares)
		p := PlaceWith(context.Background(), in.Tasks, in.Blocks, nodes, PlaceConfig{Alpha: in.Alpha})
		if len(p.errors) != 0 {
			t.Fatalf("load %v: placement errors: %v", load, p.errors)
		}
		if p.weightedAdmission < single-1e-9 {
			t.Errorf("load %v: 2x half-budget cluster admits %.4f weighted priority, single full-budget server %.4f",
				load, p.weightedAdmission, single)
		}
		t.Logf("load %v: cluster=%.4f single=%.4f unplaced=%d", load, p.weightedAdmission, single, len(p.unplaced))
	}
}

// TestPlaceSpillsAcrossNodes checks the placement shape: with per-node
// budgets sized so one node cannot hold everything, tasks spill onto the
// second node instead of being rejected.
func TestPlaceSpillsAcrossNodes(t *testing.T) {
	in, err := workload.LargeScenario(workload.LoadHigh)
	if err != nil {
		t.Fatal(err)
	}
	nodes := clusterNodes(partitionResources(in.Res, 2))
	p := PlaceWith(context.Background(), in.Tasks, in.Blocks, nodes, PlaceConfig{Alpha: in.Alpha})
	perNode := map[string]int{}
	for _, nid := range p.route {
		perNode[nid]++
	}
	if len(perNode) < 2 {
		t.Fatalf("expected tasks on both nodes, got %v (unplaced %v)", perNode, p.unplaced)
	}
	for id, nid := range p.route {
		found := false
		for _, plan := range p.plans {
			if plan.Node.ID != nid {
				continue
			}
			if _, ok := plan.Admitted[id]; ok {
				found = true
			}
		}
		if !found {
			t.Errorf("routed task %s missing from node %s admitted set", id, nid)
		}
	}
}

// TestPlaceAgainstPooledSolve is the placement's yardstick: the DOT on
// the pooled fleet (ΣM, ΣC, ΣR, no links) is a relaxation of every
// placement, so what the exact heuristic admits there bounds what a good
// placement can. Every row's per-node solutions must be feasible on their
// node instances, every task routed or unplaced exactly once, and Σz·p
// within 0.5 % of the pooled solve — 0.1 % from 512 tasks up, where one
// task is a small share of a node. (The bound is not 1: splitting integer
// radio blocks and shared block memory across nodes costs something the
// pooled relaxation does not pay, and both sides are heuristic, so a row
// can also land above it.)
func TestPlaceAgainstPooledSolve(t *testing.T) {
	type row struct {
		name  string
		in    *core.Instance
		nodes []Node
	}
	var rows []row
	for _, load := range []workload.Load{workload.LoadLow, workload.LoadMedium, workload.LoadHigh} {
		for _, n := range []int{2, 3, 4} {
			in, shares, err := clusterScenario(load, n)
			if err != nil {
				t.Fatal(err)
			}
			rows = append(rows, row{fmt.Sprintf("large-%v x%d", load, n), in, clusterNodes(shares)})
		}
	}
	for _, size := range []int{128, 511, 1024} {
		in, err := workload.ScaleScenario(size)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{2, 4} {
			rows = append(rows, row{fmt.Sprintf("scale-%d x%d", size, n), in, clusterNodes(partitionResources(in.Res, n))})
		}
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			in := r.in
			start := time.Now()
			p := PlaceWith(context.Background(), in.Tasks, in.Blocks, r.nodes, PlaceConfig{Alpha: in.Alpha})
			took := time.Since(start)
			if len(p.errors) != 0 {
				t.Fatalf("placement errors: %v", p.errors)
			}
			seen := make(map[string]int, len(in.Tasks))
			for _, plan := range p.plans {
				if plan.Solution == nil {
					continue // nothing landed here (no Errors, checked above)
				}
				nodeIn := &core.Instance{Tasks: plan.Tasks, Blocks: plan.Blocks, Res: plan.Node.Res, Alpha: in.Alpha}
				if err := nodeIn.Check(plan.Solution.Assignments); err != nil {
					t.Errorf("node %s: infeasible plan: %v", plan.Node.ID, err)
				}
				for id := range plan.Admitted {
					seen[id]++
					if p.route[id] != plan.Node.ID {
						t.Errorf("task %s admitted on %s but routed to %q", id, plan.Node.ID, p.route[id])
					}
				}
			}
			for _, id := range p.unplaced {
				seen[id]++
			}
			for _, task := range in.Tasks {
				if seen[task.ID] != 1 {
					t.Errorf("task %s appears %d times across routed and unplaced, want once", task.ID, seen[task.ID])
				}
			}
			if len(seen) != len(in.Tasks) || len(p.route)+len(p.unplaced) != len(in.Tasks) {
				t.Errorf("%d routed + %d unplaced over %d distinct IDs, want %d tasks", len(p.route), len(p.unplaced), len(seen), len(in.Tasks))
			}
			pooled := singleSolve(t, in).Breakdown.WeightedAdmission
			bound := 0.995
			if len(in.Tasks) >= 512 {
				bound = 0.999
			}
			t.Logf("Σz·p %.3f, pooled %.3f, ratio %.4f, unplaced %d, placed in %v",
				p.weightedAdmission, pooled, p.weightedAdmission/pooled, len(p.unplaced), took.Round(100*time.Microsecond))
			if p.weightedAdmission < bound*pooled {
				t.Errorf("placement admits Σz·p %.3f, under %.1f%% of the pooled solve's %.3f", p.weightedAdmission, 100*bound, pooled)
			}
		})
	}
}

// TestPlaceBandwidthShrinksLatencyBudget: a node behind a slow link must
// lose tight-latency tasks to a well-connected peer, and a link that
// eats the whole budget excludes the node entirely.
func TestPlaceBandwidthShrinksLatencyBudget(t *testing.T) {
	in, err := workload.SmallScenario(5)
	if err != nil {
		t.Fatal(err)
	}
	// task-1 has L=200ms, β=350Kb. A 2 Mb/s link forwards a frame in
	// 175ms, leaving 25ms — too tight for slice tx + compute — while a
	// 1000 Mb/s link costs 0.35ms.
	slow := Node{ID: "slow", Res: in.Res, BandwidthMbps: 2}
	fast := Node{ID: "fast", Res: in.Res, BandwidthMbps: 1000}
	p := PlaceWith(context.Background(), in.Tasks, in.Blocks, []Node{slow, fast}, PlaceConfig{Alpha: in.Alpha})
	if nid, ok := p.route["task-1"]; !ok || nid != "fast" {
		t.Errorf("task-1 (L=200ms) routed to %q, want the fast node (route %v, unplaced %v)", nid, p.route, p.unplaced)
	}

	// The retry walks every node the task has not tried, not just the
	// next-best one: two slow nodes with four times the fast node's compute
	// are the partition's first and second choice for task-1, and it is
	// rejected on both before it reaches the fast node.
	big := in.Res
	big.ComputeSeconds *= 4
	three := []Node{
		{ID: "slow", Res: big, BandwidthMbps: 2},
		{ID: "slow2", Res: big, BandwidthMbps: 2},
		fast,
	}
	p = PlaceWith(context.Background(), in.Tasks, in.Blocks, three, PlaceConfig{Alpha: in.Alpha})
	if nid, ok := p.route["task-1"]; !ok || nid != "fast" {
		t.Errorf("three nodes: task-1 routed to %q, want the fast node (route %v, unplaced %v)", nid, p.route, p.unplaced)
	}
	// Same input, same placement.
	again := PlaceWith(context.Background(), in.Tasks, in.Blocks, three, PlaceConfig{Alpha: in.Alpha})
	if !reflect.DeepEqual(p.route, again.route) || !reflect.DeepEqual(p.unplaced, again.unplaced) || p.weightedAdmission != again.weightedAdmission {
		t.Errorf("placement not deterministic: route %v / %v, unplaced %v / %v, Σz·p %v / %v",
			p.route, again.route, p.unplaced, again.unplaced, p.weightedAdmission, again.weightedAdmission)
	}

	// A link slower than the frame rate of any budget excludes the node.
	dead := Node{ID: "dead", Res: in.Res, BandwidthMbps: 0.1}
	p = PlaceWith(context.Background(), in.Tasks, in.Blocks, []Node{dead}, PlaceConfig{Alpha: in.Alpha})
	if len(p.route) != 0 {
		t.Errorf("0.1 Mb/s node admitted %v, want nothing", p.route)
	}
	if len(p.unplaced) != len(in.Tasks) {
		t.Errorf("unplaced %d want %d", len(p.unplaced), len(in.Tasks))
	}
}

// TestAdjustTask pins the bandwidth model arithmetic, including the
// unmeasured-link floor.
func TestAdjustTask(t *testing.T) {
	task := core.Task{ID: "t", MaxLatency: 200 * time.Millisecond, InputBits: 1e6}
	n := Node{BandwidthMbps: 10} // 1e6 bits / 10 Mb/s = 100 ms
	adj, ok := n.adjustTask(task)
	if !ok {
		t.Fatal("expected adjustable")
	}
	if adj.MaxLatency != 100*time.Millisecond {
		t.Errorf("adjusted latency %v want 100ms", adj.MaxLatency)
	}
	if _, ok := (Node{BandwidthMbps: 4}).adjustTask(task); ok {
		t.Error("250ms forward delay must exhaust a 200ms budget")
	}
	// An unmeasured link is priced at the conservative defaultFloorMbps
	// (1 Mb/s): a 1 Mb frame costs the whole 200 ms budget and more.
	if _, ok := (Node{}).adjustTask(task); ok {
		t.Error("unmeasured link must be priced at the floor, exhausting a 200ms budget")
	}
	if adj, ok := (Node{}).adjustTask(core.Task{ID: "t", MaxLatency: 1200 * time.Millisecond, InputBits: 1e6}); !ok || adj.MaxLatency != 200*time.Millisecond {
		t.Errorf("floor-priced link: adjusted latency %v (ok=%v), want 200ms", adj.MaxLatency, ok)
	}
	// A negative floor opts the node out of floor pricing entirely.
	if adj, ok := (Node{FloorMbps: -1}).adjustTask(task); !ok || adj.MaxLatency != task.MaxLatency {
		t.Errorf("floor opt-out must not charge the budget, got %v (ok=%v)", adj.MaxLatency, ok)
	}
	// A custom floor replaces the default.
	if adj, ok := (Node{FloorMbps: 10}).adjustTask(task); !ok || adj.MaxLatency != 100*time.Millisecond {
		t.Errorf("custom 10 Mb/s floor: adjusted latency %v (ok=%v), want 100ms", adj.MaxLatency, ok)
	}
}

// TestBandwidthFloor pins linkMbps and the pairwise slowerLinkMbps.
func TestBandwidthFloor(t *testing.T) {
	if got := (Node{}).linkMbps(); got != defaultFloorMbps {
		t.Errorf("unmeasured link rate %v, want default floor %v", got, defaultFloorMbps)
	}
	if got := (Node{BandwidthMbps: 25}).linkMbps(); got != 25 {
		t.Errorf("measured link rate %v, want 25", got)
	}
	if got := (Node{FloorMbps: 4}).linkMbps(); got != 4 {
		t.Errorf("configured floor rate %v, want 4", got)
	}
	if got := (Node{FloorMbps: -1}).linkMbps(); got != 0 {
		t.Errorf("opted-out link rate %v, want 0 (free)", got)
	}
	// Pairwise transfer is priced at the slower of the two links.
	a := Node{BandwidthMbps: 10}
	b := Node{BandwidthMbps: 2}
	if got := slowerLinkMbps(a, b); got != 2 {
		t.Errorf("10/2 Mb/s pair priced at %v Mb/s, want 2", got)
	}
	if got := slowerLinkMbps(a, Node{FloorMbps: -1}); got != 0 {
		t.Errorf("link to an opted-out node priced at %v Mb/s, want 0 (free)", got)
	}
	if got := (Node{}).forwardDelay(1e6); got != time.Second {
		t.Errorf("floor-priced forward of 1 Mb took %v, want 1s", got)
	}
	if got := (Node{}).forwardDelay(0); got != 0 {
		t.Errorf("zero-bit forward took %v, want 0", got)
	}
}

// TestPlaceSolveErrorLeavesNodeWithoutPlan: a node whose solve fails (here
// every node's, on a canceled context) is recorded in Errors and gets no
// plan, its tasks are unplaced, and nothing is routed off an unchecked
// solution.
func TestPlaceSolveErrorLeavesNodeWithoutPlan(t *testing.T) {
	in, err := workload.SmallScenario(5)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	nodes := clusterNodes(partitionResources(in.Res, 2))
	p := PlaceWith(ctx, in.Tasks, in.Blocks, nodes, PlaceConfig{Alpha: in.Alpha})
	if len(p.errors) != len(nodes) {
		t.Errorf("errors %v, want one per node", p.errors)
	}
	for _, plan := range p.plans {
		if plan.Solution != nil || len(plan.Tasks) != 0 {
			t.Errorf("node %s has a plan (%d tasks) after its solve failed", plan.Node.ID, len(plan.Tasks))
		}
	}
	if len(p.route) != 0 || len(p.unplaced) != len(in.Tasks) {
		t.Errorf("route %v, unplaced %v: want nothing routed, all %d tasks unplaced", p.route, p.unplaced, len(in.Tasks))
	}
}
