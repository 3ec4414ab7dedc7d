// Package cluster grows the single-daemon OffloaDNN reproduction into a
// multi-node edge cluster: a coordinator that owns the task registry and
// partitions admitted work across a fleet of edgeserve members, each
// running its own DOT epoch loop against its own M/C/R budgets.
//
// The pieces map onto the SEIFER-style split (arXiv 2210.12218):
//
//	membership  → members register/heartbeat/leave over HTTP; the
//	              coordinator tracks each node with the serve health
//	              states and declares a node stale when beats stop
//	bandwidth   → each member measures its node-to-coordinator link
//	              (POSTing a probe payload) and reports it with every
//	              heartbeat; the link rate shrinks the latency budget a
//	              task has left once its frames are forwarded to the node
//	placement   → PlaceWith partitions tasks by compute headroom in
//	              descending priority, solves each node's subset once,
//	              and retries every rejected task on the nodes it has
//	              not tried (placement.go)
//	deployment  → the coordinator pushes each node's task subset and
//	              budgets (PUT /v1/cluster/plan); the member re-solves
//	              locally and installs through its exec backend as a
//	              standalone daemon would
//	routing     → the coordinator proxies /v1/offload to the owning node
//	              through an atomically swapped task→node table
//
// Join, leave, failure (heartbeat timeout or a failed proxy/push) and
// bandwidth drift all kick a debounced cluster-wide re-placement, so the
// routing table converges onto the surviving fleet the way a single
// daemon's epoch converges onto its registry.
package cluster

import (
	"time"

	"offloadnn/internal/core"
)

// Fault-injection points wired into the coordinator (see
// internal/faultinject; the suffix selects the failure mode).
const (
	// pointPushError fails a plan push to a member node after placement
	// (the node is treated as failed and the placement retried without
	// it).
	pointPushError = "cluster.push.error"
	// pointProxyError fails a proxied offload before it reaches the
	// owning node (answered 502, counted per node).
	pointProxyError = "cluster.proxy.error"
	// pointHeartbeatDrop makes the coordinator silently discard a
	// received heartbeat, simulating beat loss on the path to the
	// heartbeat-timeout failure detector.
	pointHeartbeatDrop = "cluster.heartbeat.drop"
)

// defaultFloorMbps is the conservative rate an unmeasured link is priced
// at. An unprobed link used to be priced as free, which made placement
// systematically prefer exactly the nodes it knew least about; the floor
// inverts that bias — unknown links look slow until a probe proves
// otherwise.
const defaultFloorMbps = 1.0

// Node is one cluster member as the placement layer sees it: an identity,
// a serving address, its own capacity pool and the measured bandwidth of
// the coordinator→node link.
type Node struct {
	// ID names the node uniquely within the cluster.
	ID string
	// Addr is the base URL the node's edgeserve API answers on.
	Addr string
	// Res is the node's own M/C/R capacity pool; every task placed on
	// the node is solved against it.
	Res core.Resources
	// BandwidthMbps is the measured coordinator→node link rate in
	// megabits per second. Zero or negative means unmeasured: the link is
	// priced at the conservative floor (see FloorMbps) rather than free.
	BandwidthMbps float64
	// FloorMbps is the rate an unmeasured link is priced at. Zero means
	// defaultFloorMbps; negative opts the node out of floor pricing
	// entirely (unmeasured forwarding is free — the co-located /
	// loopback case, and the setting single-node parity tests use).
	FloorMbps float64
}

// linkMbps is the rate placement prices the coordinator→node link at:
// the measured bandwidth when a probe has run, otherwise the node's
// conservative floor (0 when the node opted out with a negative floor).
func (n Node) linkMbps() float64 {
	if n.BandwidthMbps > 0 {
		return n.BandwidthMbps
	}
	if n.FloorMbps < 0 {
		return 0
	}
	if n.FloorMbps > 0 {
		return n.FloorMbps
	}
	return defaultFloorMbps
}

// forwardDelay returns how long one frame of the given size spends on
// the coordinator→node link. An unmeasured link is priced at the node's
// conservative floor so placement never prefers an unprobed link; only
// an explicit negative FloorMbps makes forwarding free.
func (n Node) forwardDelay(bits float64) time.Duration {
	mbps := n.linkMbps()
	if mbps <= 0 || bits <= 0 {
		return 0
	}
	return time.Duration(bits / (mbps * 1e6) * float64(time.Second))
}

// slowerLinkMbps prices the a→b inter-node path at the slower of the two
// nodes' coordinator links — the conservative estimate when no direct
// measurement exists (a measured peer rate overrides it, see the
// coordinator's link matrix).
func slowerLinkMbps(a, b Node) float64 { return min(a.linkMbps(), b.linkMbps()) }

// adjustTask returns the task as node n's DOT instance must see it: the
// latency ceiling L_τ shrunk by the forward delay of one full-quality
// frame over the coordinator→node link, so the node's solver only admits
// the task if the remaining budget still covers slice transmission plus
// path compute. ok is false when the link eats the whole budget — the
// task cannot be placed on this node at all.
func (n Node) adjustTask(t core.Task) (core.Task, bool) {
	fwd := n.forwardDelay(t.InputBits)
	if fwd <= 0 {
		return t, true
	}
	if fwd >= t.MaxLatency {
		return core.Task{}, false
	}
	t.MaxLatency -= fwd
	return t, true
}
