package cluster

import (
	"fmt"
	"sort"
	"time"

	"offloadnn/internal/core"
	"offloadnn/internal/dnn"
	"offloadnn/internal/radio"
)

// Split placement: when whole-path placement spills — a task no single
// node admits, typically because every candidate path's memory footprint
// exceeds every node's budget — the coordinator searches the paths' cut
// points for a pipelined multi-node plan: an ordered list of (node,
// stage-range) segments, the boundary activation shipped between
// consecutive nodes over the measured inter-node link. The search prices
// end-to-end latency analytically (coordinator→head forward + radio
// slice transmission + per-segment compute + per-cut activation
// transfer) against the task's L_τ, and fits each segment into the
// node's residual capacity left over by the whole-path plans.
//
// Split admission rides outside the per-node DOT solve: a stage-range is
// not a catalog path, so members install segments directly through the
// serving layer rather than re-deriving them from a local solve. The
// coordinator deducts the residuals itself and re-runs the search every
// placement epoch, so node failure or drift re-plans splits exactly as
// it re-places whole paths.

// SplitSegment is one node's slice of a split path plan.
type SplitSegment struct {
	// NodeID and Addr identify the member serving this stage range.
	NodeID string
	Addr   string
	// From and To bound the stage range [From, To) into the path's
	// block list.
	From, To int
	// ComputeSeconds is the per-frame compute of the range.
	ComputeSeconds float64
	// TransferBits is the boundary activation size shipped to the next
	// hop (zero for the tail).
	TransferBits float64
	// TransferMS prices that shipment over the planned inter-node link.
	TransferMS float64
}

// SplitPath is one task's pipelined multi-node plan.
type SplitPath struct {
	// TaskID names the task the plan serves.
	TaskID string
	// Path is the catalog path being split.
	Path core.PathSpec
	// Z is the admitted fraction; Rate is z·λ, the admitted request rate
	// the head gates at.
	Z    float64
	Rate float64
	// RBs is the head node's radio slice for frame intake.
	RBs int
	// Segments is the ordered pipeline; Segments[0] is the head.
	Segments []SplitSegment
	// LatencyMS is the predicted end-to-end latency of one frame:
	// coordinator→head forward, radio transmission, every segment's
	// compute and every activation transfer.
	LatencyMS float64
	// BudgetMS is the task's latency bound minus the coordinator→head
	// forward delay — the budget the head starts the pipeline with.
	BudgetMS float64
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
	// Link returns the planned a→b inter-node rate in Mbps; nil prices
	// conservatively at the slower of the two coordinator links (see
	// slowerLinkMbps). The coordinator wires its measured peer matrix in
	// here.
	Link func(a, b Node) float64
}

// nodeResidual is a node's capacity left over after the whole-path plans
// (and previously accepted splits) are charged against it.
type nodeResidual struct {
	node     Node
	rbs      int
	compute  float64
	memory   float64
	train    float64
	deployed map[string]bool // block IDs already resident (memory/train charged)
}

// residuals computes each node's leftover capacity from its NodePlan.
func residuals(p *Placement) []*nodeResidual {
	out := make([]*nodeResidual, len(p.Plans))
	for i := range p.Plans {
		plan := &p.Plans[i]
		r := &nodeResidual{
			node:     plan.Node,
			rbs:      plan.Node.Res.RBs,
			compute:  plan.Node.Res.ComputeSeconds,
			memory:   plan.Node.Res.MemoryGB,
			train:    plan.Node.Res.TrainBudgetSeconds,
			deployed: make(map[string]bool),
		}
		if plan.Solution != nil {
			for ai, a := range plan.Solution.Assignments {
				if !a.Admitted() || a.Path == nil || ai >= len(plan.Tasks) {
					continue
				}
				r.rbs -= a.RBs
				rate := a.Z * plan.Tasks[ai].Rate
				for _, id := range a.Path.Blocks {
					b := plan.Blocks[id]
					r.compute -= rate * b.ComputeSeconds
					if !r.deployed[id] {
						r.deployed[id] = true
						r.memory -= b.MemoryGB
						r.train -= b.TrainSeconds
					}
				}
			}
		}
		out[i] = r
	}
	return out
}

// memoryNeeded is the additional footprint of deploying the given block
// range on the node (blocks already resident are free — the constraint
// (1b) sharing applies to segments too).
func (r *nodeResidual) memoryNeeded(blocks []string, catalog map[string]core.BlockSpec) (mem, train float64) {
	for _, id := range blocks {
		if r.deployed[id] {
			continue
		}
		b := catalog[id]
		mem += b.MemoryGB
		train += b.TrainSeconds
	}
	return mem, train
}

// charge deducts an accepted segment from the node's residuals.
func (r *nodeResidual) charge(blocks []string, catalog map[string]core.BlockSpec, rate float64, rbs int) {
	r.rbs -= rbs
	for _, id := range blocks {
		r.compute -= rate * catalog[id].ComputeSeconds
		if !r.deployed[id] {
			r.deployed[id] = true
			r.memory -= catalog[id].MemoryGB
			r.train -= catalog[id].TrainSeconds
		}
	}
}

// splitPlace searches cut points and node tuples for every task the
// whole-path placement left unplaced, in descending priority, appending
// accepted plans to p.Splits and rerouting the tasks to their head
// nodes. Residual capacity is deducted as plans are accepted, so later
// tasks see what earlier splits consumed.
func splitPlace(p *Placement, tasks []core.Task, blocks map[string]core.BlockSpec, cfg *SplitConfig) {
	if cfg == nil || len(p.Unplaced) == 0 || len(p.Plans) < 2 {
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
	link := cfg.Link
	if link == nil {
		link = slowerLinkMbps
	}

	res := residuals(p)
	unplaced := make(map[string]bool, len(p.Unplaced))
	for _, id := range p.Unplaced {
		unplaced[id] = true
	}
	order := make([]int, 0, len(p.Unplaced))
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
		best := bestSplit(&t, blocks, res, model, input, link)
		if best == nil {
			continue
		}
		for _, seg := range best.Segments {
			for _, r := range res {
				if r.node.ID != seg.NodeID {
					continue
				}
				rbs := 0
				if seg.From == 0 {
					rbs = best.RBs
				}
				r.charge(best.Path.Blocks[seg.From:seg.To], blocks, best.Rate, rbs)
			}
			// The member's catalog must carry the specs of the blocks its
			// segment deploys (pushed inside its NodePlan).
			for pi := range p.Plans {
				if p.Plans[pi].Node.ID != seg.NodeID {
					continue
				}
				if p.Plans[pi].Blocks == nil {
					p.Plans[pi].Blocks = make(map[string]core.BlockSpec)
				}
				for _, id := range best.Path.Blocks[seg.From:seg.To] {
					if b, ok := blocks[id]; ok {
						p.Plans[pi].Blocks[id] = b
					}
				}
			}
		}
		p.Splits = append(p.Splits, *best)
		p.Route[t.ID] = best.Segments[0].NodeID
		// A split admission carries the same z·p weight a whole-path
		// admission would have contributed through its node's solution.
		p.WeightedAdmission += best.Z * t.Priority
		keep := p.Unplaced[:0]
		for _, id := range p.Unplaced {
			if id != t.ID {
				keep = append(keep, id)
			}
		}
		p.Unplaced = keep
	}
}

// bestSplit searches one task's candidate paths, cut combinations and
// node tuples for the feasible plan with the highest admitted fraction,
// latency breaking ties.
func bestSplit(t *core.Task, blocks map[string]core.BlockSpec, res []*nodeResidual,
	model dnn.ResNetConfig, input [3]int, link func(a, b Node) float64) *SplitPath {

	// Candidate nodes: the most memory-headroom first, capped. The
	// enumeration below draws ordered tuples from this pool.
	pool := make([]*nodeResidual, 0, len(res))
	for _, r := range res {
		pool = append(pool, r)
	}
	sort.SliceStable(pool, func(a, b int) bool { return pool[a].memory > pool[b].memory })
	if len(pool) > candidateNodes {
		pool = pool[:candidateNodes]
	}

	var best *SplitPath
	better := func(c *SplitPath) bool {
		if best == nil {
			return true
		}
		if c.Z != best.Z {
			return c.Z > best.Z
		}
		return c.LatencyMS < best.LatencyMS
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
			forEachCutCombo(len(cuts), m-1, func(combo []int) {
				bounds := make([]int, 0, m+1)
				bounds = append(bounds, 0)
				for _, ci := range combo {
					bounds = append(bounds, cuts[ci].After)
				}
				bounds = append(bounds, n)
				forEachTuple(len(pool), m, func(tuple []int) {
					nodes := make([]*nodeResidual, m)
					for i, idx := range tuple {
						nodes[i] = pool[idx]
					}
					if c := evalSplit(t, path, blocks, cuts, bounds, nodes, link); c != nil && better(c) {
						best = c
					}
				})
			})
		}
	}
	return best
}

// evalSplit prices one concrete (path, bounds, node tuple) plan and
// returns it when feasible, nil otherwise.
func evalSplit(t *core.Task, path *core.PathSpec, blocks map[string]core.BlockSpec,
	cuts []dnn.CutPoint, bounds []int, nodes []*nodeResidual, link func(a, b Node) float64) *SplitPath {

	m := len(nodes)
	segs := make([]SplitSegment, m)
	fixed := 0.0 // seconds of everything except radio transmission
	z := 1.0

	head := nodes[0]
	fixed += head.node.ForwardDelay(t.InputBits).Seconds()

	for i := 0; i < m; i++ {
		r := nodes[i]
		from, to := bounds[i], bounds[i+1]
		ids := path.Blocks[from:to]
		mem, train := r.memoryNeeded(ids, blocks)
		if mem > r.memory+1e-12 || train > r.train+1e-12 {
			return nil
		}
		comp := 0.0
		for _, id := range ids {
			comp += blocks[id].ComputeSeconds
		}
		// Compute residual caps the admitted fraction on this node.
		if comp > 0 {
			if cap := r.compute / (t.Rate * comp); cap < z {
				z = cap
			}
		}
		fixed += comp
		segs[i] = SplitSegment{NodeID: r.node.ID, Addr: r.node.Addr, From: from, To: to, ComputeSeconds: comp}
		if i+1 < m {
			// The cut after stage `to` ships its boundary activation to
			// the next hop; transfers are always raw f64 on the wire.
			bits := float64(cuts[cutIndex(cuts, to)].WireBytes) * 8
			mbps := link(r.node, nodes[i+1].node)
			tr := 0.0
			if mbps > 0 {
				tr = bits / (mbps * 1e6)
			}
			fixed += tr
			segs[i].TransferBits = bits
			segs[i].TransferMS = tr * 1e3
		}
	}
	if z <= 1e-9 {
		return nil
	}
	if z > 1 {
		z = 1
	}

	// Radio: the head needs a slice big enough for both the admitted
	// throughput and the per-frame latency left after compute and
	// transfers.
	budget := t.MaxLatency.Seconds() - fixed
	if budget <= 0 {
		return nil
	}
	cm := head.node.Res.Capacity
	rbsTP, err := radio.MinRBsForThroughput(z*t.Rate, t.InputBits, cm, t.SNRdB)
	if err != nil {
		return nil
	}
	rbsLat, err := radio.MinRBsForLatency(t.InputBits, time.Duration(budget*float64(time.Second)), cm, t.SNRdB)
	if err != nil {
		return nil
	}
	rbs := rbsTP
	if rbsLat > rbs {
		rbs = rbsLat
	}
	if rbs > head.rbs {
		// Not enough radio for full z; shrink to what the throughput
		// constraint allows at the node's residual slice, as long as the
		// latency-minimal slice itself fits.
		if rbsLat > head.rbs {
			return nil
		}
		rbs = head.rbs
		b := cm.BitsPerRBPerSecond(t.SNRdB)
		if b <= 0 || t.Rate <= 0 {
			return nil
		}
		if cap := float64(rbs) * b / (t.Rate * t.InputBits); cap < z {
			z = cap
		}
		if z <= 1e-9 {
			return nil
		}
	}
	tx, err := radio.TransmissionTime(t.InputBits, rbs, cm, t.SNRdB)
	if err != nil {
		return nil
	}
	total := fixed + tx.Seconds()
	if total > t.MaxLatency.Seconds()+1e-12 {
		return nil
	}

	return &SplitPath{
		TaskID:    t.ID,
		Path:      *path,
		Z:         z,
		Rate:      z * t.Rate,
		RBs:       rbs,
		Segments:  segs,
		LatencyMS: total * 1e3,
		BudgetMS:  (t.MaxLatency - nodes[0].node.ForwardDelay(t.InputBits)).Seconds() * 1e3,
	}
}

// cutIndex finds the cut point after the given stage count.
func cutIndex(cuts []dnn.CutPoint, after int) int {
	for i := range cuts {
		if cuts[i].After == after {
			return i
		}
	}
	panic(fmt.Sprintf("cluster: no cut point after stage %d", after))
}

// forEachCutCombo enumerates the k-subsets of {0..n-1} in increasing
// order (the cut indices of one pipeline, ordered along the path).
func forEachCutCombo(n, k int, fn func([]int)) {
	if k > n || k <= 0 {
		return
	}
	combo := make([]int, k)
	var rec func(start, depth int)
	rec = func(start, depth int) {
		if depth == k {
			fn(combo)
			return
		}
		for i := start; i < n; i++ {
			combo[depth] = i
			rec(i+1, depth+1)
		}
	}
	rec(0, 0)
}

// forEachTuple enumerates ordered m-tuples of distinct indices from
// {0..n-1} (which node serves which segment matters: the head needs
// radio headroom, interior hops need link bandwidth).
func forEachTuple(n, m int, fn func([]int)) {
	if m > n || m <= 0 {
		return
	}
	tuple := make([]int, m)
	used := make([]bool, n)
	var rec func(depth int)
	rec = func(depth int) {
		if depth == m {
			fn(tuple)
			return
		}
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			used[i] = true
			tuple[depth] = i
			rec(depth + 1)
			used[i] = false
		}
	}
	rec(0)
}
