package cluster

import (
	"fmt"
	"sort"

	"offloadnn/internal/core"
	"offloadnn/internal/dnn"
)

// Split placement: when whole-path placement spills — a task no single
// node admits, typically because every candidate path's memory footprint
// exceeds every node's budget — the coordinator searches the paths' cut
// points for a pipelined multi-node plan: an ordered list of (node,
// stage-range) segments, the boundary activation shipped between
// consecutive nodes over the measured inter-node link. The search prices
// end-to-end latency analytically (coordinator→head forward + radio
// slice transmission + per-segment compute + per-cut activation
// transfer) against the task's L_τ.
//
// Segments are charged through core's cost model: the search fits them
// into a copy of each node's instance with its whole paths reserved
// (core.Instance.Reserve), and the placement's post-condition
// (Placement.checkSplits) and the member (serve.Server.ReplacePlan)
// reserve them on the node's own instance and Check its whole paths
// beside them. The search re-runs every placement, so node failure or
// drift re-plans splits exactly as it re-places whole paths.

// SplitSegment is one node's slice of a split path plan.
type SplitSegment struct {
	// nodeID and addr identify the member serving this stage range.
	nodeID string
	addr   string
	// from and To bound the stage range [from, To) into the path's
	// block list.
	from, To int
	// transferBits is the boundary activation size shipped to the next
	// hop (zero for the tail).
	transferBits float64
}

// SplitPath is one task's pipelined multi-node plan.
type SplitPath struct {
	// taskID names the task the plan serves.
	taskID string
	// path is the catalog path being split.
	path core.PathSpec
	// z is the admitted fraction; Rate is z·λ, the admitted request rate
	// the head gates at.
	z    float64
	rate float64
	// rbs is the head node's radio slice for frame intake.
	rbs int
	// Segments is the ordered pipeline; Segments[0] is the head.
	Segments []SplitSegment
	// latencyMS is the predicted end-to-end latency of one frame:
	// coordinator→head forward, radio transmission, every segment's
	// compute and every activation transfer.
	latencyMS float64
	// budgetMS is the task's latency bound minus the coordinator→head
	// forward delay — the budget the head starts the pipeline with.
	budgetMS float64
}

// The split search caps the pipeline length at maxSegments and draws
// node tuples from the candidateNodes nodes with the most residual
// memory.
const (
	maxSegments    = 4
	candidateNodes = 6
)

// SplitConfig parameterizes the split-placement search.
type SplitConfig struct {
	// Model is the geometry cut points are enumerated against; the zero
	// value applies dnn.DefaultResNetConfig.
	Model dnn.ResNetConfig
	// Input is the frame shape (C, H, W); zero applies (3, 8, 8).
	Input [3]int
	// link returns the planned a→b inter-node rate in Mbps; nil prices
	// conservatively at the slower of the two coordinator links (see
	// slowerLinkMbps). The coordinator wires its measured peer matrix in
	// here.
	link func(a, b Node) float64
}

// splitHost is one node as the split search sees it: a copy of its
// instance with everything placed on it so far reserved.
type splitHost struct {
	node Node
	in   *core.Instance
}

// splitHosts copies every planned node's instance over the fleet catalog,
// parallel to p.plans, and reserves its admitted whole paths, each as
// {path, z·λ, r}. Where z < 1, Σ r may pass R: the node then has no radio
// left for a head. A node whose solution does not reserve is left nil.
func splitHosts(p *Placement, blocks map[string]core.BlockSpec) []*splitHost {
	hosts := make([]*splitHost, len(p.plans))
	for i := range p.plans {
		plan := &p.plans[i]
		in := &core.Instance{Blocks: blocks, Res: plan.Node.Res}
		var rs []core.Reservation
		if plan.Solution != nil {
			left := in.Res.RBs
			for ai, a := range plan.Solution.Assignments {
				if a.Admitted() {
					rbs := min(a.RBs, left)
					left -= rbs
					rs = append(rs, core.Reservation{Blocks: a.Path.Blocks, Rate: a.Z * plan.Tasks[ai].Rate, RBs: rbs})
				}
			}
		}
		if in.Reserve(rs...) == nil {
			hosts[i] = &splitHost{node: plan.Node, in: in}
		}
	}
	return hosts
}

// splitPlace searches cut points and node tuples for every task the
// whole-path placement left unplaced, in descending priority, and appends
// accepted plans to p.Splits (assemble then routes their tasks to the
// head nodes). Each accepted plan is reserved on its hosts, so later
// tasks see what earlier splits consumed.
func splitPlace(p *Placement, tasks []core.Task, blocks map[string]core.BlockSpec, cfg *SplitConfig) {
	if cfg == nil || len(p.unplaced) == 0 || len(p.plans) < 2 {
		return
	}
	model := cfg.Model
	if model.BaseWidth == 0 {
		model = dnn.DefaultResNetConfig()
	}
	input := cfg.Input
	if input == [3]int{} {
		input = [3]int{3, 8, 8}
	}
	link := cfg.link
	if link == nil {
		link = slowerLinkMbps
	}

	hosts := splitHosts(p, blocks)
	unplaced := make(map[string]bool, len(p.unplaced))
	for _, id := range p.unplaced {
		unplaced[id] = true
	}
	order := make([]int, 0, len(p.unplaced))
	for i := range tasks {
		if unplaced[tasks[i].ID] {
			order = append(order, i)
		}
	}
	sort.SliceStable(order, func(a, b int) bool {
		return tasks[order[a]].Priority > tasks[order[b]].Priority
	})

	for _, ti := range order {
		t := tasks[ti]
		best := bestSplit(&t, hosts, model, input, link)
		if best == nil {
			continue
		}
		for si, seg := range best.Segments {
			for pi := range p.plans {
				if p.plans[pi].Node.ID != seg.nodeID {
					continue
				}
				// evalSplit priced this charge on this copy; a refusal
				// here fails the node in checkSplits as well.
				rsv := core.Reservation{Blocks: best.path.Blocks[seg.from:seg.To], Rate: best.rate}
				if si == 0 {
					rsv.RBs = best.rbs
				}
				if err := hosts[pi].in.Reserve(rsv); err != nil {
					p.errors = append(p.errors, fmt.Sprintf("node %s: split %s: %v", seg.nodeID, t.ID, err))
				}
				// The member's catalog must carry the specs of the blocks
				// its segment deploys (pushed inside its nodePlan).
				if p.plans[pi].Blocks == nil {
					p.plans[pi].Blocks = make(map[string]core.BlockSpec)
				}
				for _, id := range rsv.Blocks {
					if b, ok := blocks[id]; ok {
						p.plans[pi].Blocks[id] = b
					}
				}
			}
		}
		p.Splits = append(p.Splits, *best)
	}
}

// bestSplit searches one task's candidate paths, cut combinations and
// node tuples for the feasible plan with the highest admitted fraction,
// latency breaking ties.
func bestSplit(t *core.Task, hosts []*splitHost, model dnn.ResNetConfig, input [3]int, link func(a, b Node) float64) *SplitPath {
	// Candidate nodes: the most memory-headroom first, capped. The
	// enumeration below draws ordered tuples from this pool.
	pool := make([]*splitHost, 0, len(hosts))
	for _, h := range hosts {
		if h != nil {
			pool = append(pool, h)
		}
	}
	sort.SliceStable(pool, func(a, b int) bool { return pool[a].in.Res.MemoryGB > pool[b].in.Res.MemoryGB })
	if len(pool) > candidateNodes {
		pool = pool[:candidateNodes]
	}

	var best *SplitPath
	better := func(c *SplitPath) bool {
		if best == nil {
			return true
		}
		if c.z != best.z {
			return c.z > best.z
		}
		return c.latencyMS < best.latencyMS
	}

	for pi := range t.Paths {
		path := &t.Paths[pi]
		if path.Accuracy < t.MinAccuracy {
			continue
		}
		n := len(path.Blocks)
		if n < 2 {
			continue
		}
		cuts := dnn.EnumerateCutPoints(model, n, input)
		segMax := min(maxSegments, n, len(pool))
		for m := 2; m <= segMax; m++ {
			forEachPick(len(cuts), m-1, false, func(combo []int) {
				chosen := make([]dnn.CutPoint, len(combo))
				for i, ci := range combo {
					chosen[i] = cuts[ci]
				}
				forEachPick(len(pool), m, true, func(tuple []int) {
					nodes := make([]*splitHost, m)
					for i, idx := range tuple {
						nodes[i] = pool[idx]
					}
					if c := evalSplit(t, path, chosen, nodes, link); c != nil && better(c) {
						best = c
					}
				})
			})
		}
	}
	return best
}

// evalSplit prices one plan — the path cut at the chosen cut points,
// segment i on nodes[i] — against the hosts' reserved instances and
// returns it when feasible, nil otherwise. It adds to core's charges only
// the forward delay, the cut bytes over each link and the head's budget.
func evalSplit(t *core.Task, path *core.PathSpec, cuts []dnn.CutPoint, nodes []*splitHost, link func(a, b Node) float64) *SplitPath {
	segs := make([]SplitSegment, len(nodes))
	head := nodes[0]
	fixed := head.node.forwardDelay(t.InputBits).Seconds() // everything except radio transmission
	z := 1.0
	for i, h := range nodes {
		from, to := 0, len(path.Blocks)
		if i > 0 {
			from = cuts[i-1].After
		}
		if i < len(cuts) {
			to = cuts[i].After
		}
		seg := core.PathSpec{Blocks: path.Blocks[from:to]}
		mem := 0.0
		for _, id := range seg.Blocks {
			mem += h.in.BlockMemoryGB(id)
		}
		if mem > h.in.Res.MemoryGB+1e-12 {
			return nil
		}
		// The node's compute left caps the admitted fraction.
		comp := h.in.PathCompute(&seg)
		if comp > 0 {
			z = min(z, h.in.Res.ComputeSeconds/(t.Rate*comp))
		}
		fixed += comp
		segs[i] = SplitSegment{nodeID: h.node.ID, addr: h.node.Addr, from: from, To: to}
		if i < len(cuts) {
			// The cut after stage `to` ships its boundary activation to
			// the next hop; transfers are always raw f64 on the wire.
			segs[i].transferBits = float64(cuts[i].WireBytes) * 8
			if mbps := link(h.node, nodes[i+1].node); mbps > 0 {
				fixed += segs[i].transferBits / (mbps * 1e6)
			}
		}
	}
	if z <= 1e-9 {
		return nil
	}

	// Radio: the head's slice is core's minimal one for the admitted rate
	// and for one frame inside the latency left after compute and
	// transfers. When the head's residual RBs cannot carry that, z shrinks
	// to what they carry, as long as the latency-minimal slice fits.
	slack := t.MaxLatency.Seconds() - fixed
	b := head.in.Res.Capacity.BitsPerRBPerSecond(t.SNRdB)
	if slack <= 0 || b <= 0 {
		return nil
	}
	rLat, rFull := core.MinSlices(t.InputBits, b, slack, z*t.Rate)
	rbs := max(rLat, rFull)
	if left := head.in.Res.RBs; rbs > left {
		if rLat > left {
			return nil
		}
		rbs = left
		if z = min(z, float64(rbs)*b/(t.Rate*t.InputBits)); z <= 1e-9 {
			return nil
		}
	}
	total := fixed + t.InputBits/(b*float64(rbs))
	if total > t.MaxLatency.Seconds()+1e-12 {
		return nil
	}

	return &SplitPath{
		taskID:    t.ID,
		path:      *path,
		z:         z,
		rate:      z * t.Rate,
		rbs:       rbs,
		Segments:  segs,
		latencyMS: total * 1e3,
		budgetMS:  (t.MaxLatency - head.node.forwardDelay(t.InputBits)).Seconds() * 1e3,
	}
}

// forEachPick enumerates k distinct indices from {0..n-1} in
// lexicographic order: every ordering when ordered (node tuples: the head
// needs radio headroom, interior hops link bandwidth), else only the
// increasing ones (the cut indices of one pipeline, along the path).
func forEachPick(n, k int, ordered bool, fn func([]int)) {
	if k > n || k <= 0 {
		return
	}
	pick := make([]int, k)
	used := make([]bool, n)
	var rec func(depth, start int)
	rec = func(depth, start int) {
		if depth == k {
			fn(pick)
			return
		}
		for i := start; i < n; i++ {
			if used[i] {
				continue
			}
			used[i] = true
			pick[depth] = i
			if ordered {
				rec(depth+1, 0)
			} else {
				rec(depth+1, i+1)
			}
			used[i] = false
		}
	}
	rec(0, 0)
}
