package cluster

import (
	"fmt"
	"time"

	"offloadnn/internal/core"
	"offloadnn/internal/serve"
)

// The wire types serialize the core model over the cluster-internal HTTP
// protocol. Unlike serve.TaskSpec (the request-side fields a UE submits,
// paths built server-side), a cluster push carries fully built tasks —
// candidate paths, quality ladders and the blocks they reference — so
// the member's DOT instance is byte-for-byte the per-node instance the
// coordinator placed with, whatever catalog the member was started with.

// wireBlock is core.BlockSpec on the wire.
type wireBlock struct {
	ID             string  `json:"id"`
	ComputeSeconds float64 `json:"compute_seconds"`
	MemoryGB       float64 `json:"memory_gb"`
	TrainSeconds   float64 `json:"train_seconds,omitempty"`
}

// wirePath is core.PathSpec on the wire.
type wirePath struct {
	ID       string   `json:"id"`
	DNN      string   `json:"dnn"`
	Blocks   []string `json:"blocks"`
	Accuracy float64  `json:"accuracy"`
}

// wireQuality is core.QualityLevel on the wire.
type wireQuality struct {
	ID            string  `json:"id"`
	Bits          float64 `json:"bits"`
	AccuracyDelta float64 `json:"accuracy_delta,omitempty"`
}

// wireTask is a fully built core.Task on the wire.
type wireTask struct {
	ID           string        `json:"id"`
	Priority     float64       `json:"priority"`
	Rate         float64       `json:"rate"`
	MinAccuracy  float64       `json:"min_accuracy"`
	MaxLatencyMS float64       `json:"max_latency_ms"`
	InputBits    float64       `json:"input_bits"`
	SNRdB        float64       `json:"snr_db"`
	Qualities    []wireQuality `json:"qualities,omitempty"`
	Paths        []wirePath    `json:"paths"`
}

// WireResources is core.Resources on the wire (the capacity model is
// configuration, not state: both sides must be started with the same
// B(σ) model, which every daemon here is — the Table-IV paper rate).
type WireResources struct {
	RBs                int     `json:"rbs"`
	ComputeSeconds     float64 `json:"compute_seconds"`
	MemoryGB           float64 `json:"memory_gb"`
	TrainBudgetSeconds float64 `json:"train_budget_seconds"`
	// Norm carries the fleet-wide objective normalizer of a pushed plan
	// (core.Resources.Norm): the member must price its solve against the
	// same fleet totals the coordinator placed with, or the two reach
	// different admission sets. Never nested.
	Norm *WireResources `json:"norm,omitempty"`
}

// RegisterRequest is the body of POST /v1/cluster/nodes: a member
// announcing itself with its serving address, budgets and link rate.
type RegisterRequest struct {
	Node          string        `json:"node"`
	Addr          string        `json:"addr"`
	Res           WireResources `json:"res"`
	BandwidthMbps float64       `json:"bandwidth_mbps,omitempty"`
	State         string        `json:"state,omitempty"`
	Epoch         uint64        `json:"epoch,omitempty"`
}

// heartbeatRequest is the body of POST /v1/cluster/nodes/{id}/heartbeat.
type heartbeatRequest struct {
	State         string  `json:"state"`
	Epoch         uint64  `json:"epoch"`
	BandwidthMbps float64 `json:"bandwidth_mbps,omitempty"`
	// Peers carries the member's measured node→peer link rates in Mbps
	// (peer node ID → rate), filling the coordinator's inter-node
	// bandwidth matrix one probe at a time.
	Peers map[string]float64 `json:"peers,omitempty"`
}

// heartbeatResponse is the coordinator's answer to a heartbeat: the
// current peer address book, which the member's agent round-robins its
// inter-node bandwidth probes over.
type heartbeatResponse struct {
	// Peers maps every other live node's ID to its base URL.
	Peers map[string]string `json:"peers,omitempty"`
}

// wireSegment is one node's slice of a split path on the wire: the full
// path block list with this node's [From, To) range, plus the relay
// coordinates — where the boundary activation goes next and what deadline
// budget the pipeline starts with. Pushed inside planPush alongside the
// whole-path task subset, and installed by the member as is.
type wireSegment = serve.SegmentSpec

// planPush is the body of PUT /v1/cluster/plan: one node's slice of a
// cluster placement. Placement is the coordinator's monotone placement
// sequence number; Res echoes the budgets the subset was solved against
// so the member can refuse a plan solved for capacities it doesn't have.
type planPush struct {
	Node      string               `json:"node"`
	Placement uint64               `json:"placement"`
	Alpha     float64              `json:"alpha"`
	Res       WireResources        `json:"res"`
	Tasks     []wireTask           `json:"tasks"`
	Blocks    map[string]wireBlock `json:"blocks,omitempty"`
	// Segments are the split-path stage ranges this node serves in
	// addition to its whole-path task subset.
	Segments []wireSegment `json:"segments,omitempty"`
}

// planAck is the member's response to a plan push.
type planAck struct {
	Node    string `json:"node"`
	Epoch   uint64 `json:"epoch"`
	Tasks   int    `json:"tasks"`
	Changed bool   `json:"changed"`
}

// toWireTask converts a built core.Task for the wire.
func toWireTask(t core.Task) wireTask {
	w := wireTask{
		ID:           t.ID,
		Priority:     t.Priority,
		Rate:         t.Rate,
		MinAccuracy:  t.MinAccuracy,
		MaxLatencyMS: float64(t.MaxLatency) / float64(time.Millisecond),
		InputBits:    t.InputBits,
		SNRdB:        t.SNRdB,
	}
	for _, q := range t.Qualities {
		w.Qualities = append(w.Qualities, wireQuality{ID: q.ID, Bits: q.Bits, AccuracyDelta: q.AccuracyDelta})
	}
	for _, p := range t.Paths {
		w.Paths = append(w.Paths, wirePath{ID: p.ID, DNN: p.DNN, Blocks: p.Blocks, Accuracy: p.Accuracy})
	}
	return w
}

// Task converts the wire form back into a core.Task.
func (w wireTask) Task() core.Task {
	t := core.Task{
		ID:          w.ID,
		Priority:    w.Priority,
		Rate:        w.Rate,
		MinAccuracy: w.MinAccuracy,
		MaxLatency:  time.Duration(w.MaxLatencyMS * float64(time.Millisecond)),
		InputBits:   w.InputBits,
		SNRdB:       w.SNRdB,
	}
	for _, q := range w.Qualities {
		t.Qualities = append(t.Qualities, core.QualityLevel{ID: q.ID, Bits: q.Bits, AccuracyDelta: q.AccuracyDelta})
	}
	for _, p := range w.Paths {
		t.Paths = append(t.Paths, core.PathSpec{ID: p.ID, DNN: p.DNN, Blocks: p.Blocks, Accuracy: p.Accuracy})
	}
	return t
}

// toWireBlocks converts a block catalog for the wire.
func toWireBlocks(blocks map[string]core.BlockSpec) map[string]wireBlock {
	if len(blocks) == 0 {
		return nil
	}
	out := make(map[string]wireBlock, len(blocks))
	for id, b := range blocks {
		out[id] = wireBlock{ID: b.ID, ComputeSeconds: b.ComputeSeconds, MemoryGB: b.MemoryGB, TrainSeconds: b.TrainSeconds}
	}
	return out
}

// fromWireBlocks converts a wire catalog back into core blocks.
func fromWireBlocks(blocks map[string]wireBlock) map[string]core.BlockSpec {
	out := make(map[string]core.BlockSpec, len(blocks))
	for id, b := range blocks {
		if b.ID == "" {
			b.ID = id
		}
		out[id] = core.BlockSpec{ID: b.ID, ComputeSeconds: b.ComputeSeconds, MemoryGB: b.MemoryGB, TrainSeconds: b.TrainSeconds}
	}
	return out
}

// ToWireResources converts a capacity pool for the wire.
func ToWireResources(r core.Resources) WireResources {
	w := WireResources{
		RBs:                r.RBs,
		ComputeSeconds:     r.ComputeSeconds,
		MemoryGB:           r.MemoryGB,
		TrainBudgetSeconds: r.TrainBudgetSeconds,
	}
	if r.Norm != nil {
		n := ToWireResources(*r.Norm)
		n.Norm = nil // never nested
		w.Norm = &n
	}
	return w
}

// budgets converts the wire budgets back, with no capacity model or norm.
func (w WireResources) budgets() core.Resources {
	return core.Resources{RBs: w.RBs, ComputeSeconds: w.ComputeSeconds, MemoryGB: w.MemoryGB, TrainBudgetSeconds: w.TrainBudgetSeconds}
}

// normResources converts the wire norm into the pricing override a member
// applies to its own pool, nil when the push carries none.
func (w WireResources) normResources() *core.Resources {
	if w.Norm == nil {
		return nil
	}
	norm := w.Norm.budgets()
	return &norm
}

// matches reports whether the wire budgets equal the given pool (the
// member-side check that a pushed plan was solved for its capacities).
// Budgets cross the wire as JSON, which round-trips a float64 exactly.
func (w WireResources) matches(r core.Resources) error {
	r.Capacity, r.Norm = nil, nil
	if got := w.budgets(); got != r {
		return fmt.Errorf("cluster: plan solved for R=%d, C=%gs, M=%g GB, Ct=%gs; node has R=%d, C=%gs, M=%g GB, Ct=%gs",
			got.RBs, got.ComputeSeconds, got.MemoryGB, got.TrainBudgetSeconds, r.RBs, r.ComputeSeconds, r.MemoryGB, r.TrainBudgetSeconds)
	}
	return nil
}
