package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"offloadnn/internal/core"
	"offloadnn/internal/faultinject"
	"offloadnn/internal/radio"
	"offloadnn/internal/serve"
	"offloadnn/internal/workload"
)

// Config parameterizes a cluster coordinator.
type Config struct {
	// Alpha weights admission against resource cost in every per-node
	// solve (default 0.5).
	Alpha float64
	// Catalog builds candidate paths for tasks submitted over HTTP; it
	// must match the members' catalogs so a 1-node cluster reproduces the
	// standalone daemon exactly. Zero value: the Table-IV small catalog.
	Catalog workload.CatalogParams
	// Capacity is the B(σ) model per-node solves use (default the paper
	// rate; members are started with the same).
	Capacity radio.CapacityModel
	// Debounce batches membership and task churn before a cluster-wide
	// re-placement (default 100 ms) — the cluster-level counterpart of
	// the serve resolver's debounce.
	Debounce time.Duration
	// HeartbeatTimeout is how long a member may go without a heartbeat
	// before the failure detector declares it stale and re-places its
	// tasks (default 3 s). The detector checks, and members beat, every
	// HeartbeatTimeout/beatsPerTimeout.
	HeartbeatTimeout time.Duration
	// BandwidthFloorMbps is the rate unmeasured links are priced at
	// (Node.FloorMbps for every member). 0 applies defaultFloorMbps;
	// negative prices unmeasured links as free — the co-located setting
	// single-node parity comparisons use.
	BandwidthFloorMbps float64
	// Split parameterizes the cross-node split-placement pass over tasks
	// whole-path placement spills; nil enables it with defaults. The
	// coordinator always wires its measured inter-node bandwidth matrix
	// into the search.
	Split *SplitConfig
	// now is the injectable clock (default time.Now).
	now func() time.Time
	// Logf receives background diagnostics; nil discards them.
	Logf func(string, ...any)
	// Faults optionally arms the coordinator's fault-injection points.
	Faults *faultinject.Injector
}

// The coordinator's control-plane constants.
const (
	// beatsPerTimeout is how many heartbeats a member sends, and how many
	// sweeps the failure detector runs, per HeartbeatTimeout: a member
	// goes stale only after missing several beats in a row. Members
	// derive their period from the heartbeat_timeout their registration
	// answer carries, so the two daemons cannot disagree.
	beatsPerTimeout = 4
	// bandwidthDriftFrac is the fractional change in a member's smoothed
	// link rate — relative to the rate the latest placement priced with —
	// that triggers a re-placement; smaller drift is recorded for the
	// next placement without forcing one. Raw probes are EMA-smoothed
	// first (bwSmoothing) so per-beat measurement jitter does not thrash
	// the placement loop.
	bandwidthDriftFrac = 0.2
	// pushTimeout bounds one plan push — including the member's
	// synchronous re-solve — and one proxied offload.
	pushTimeout = 30 * time.Second
)

// routeEntry is one admitted task's serving location. A split task
// routes to its head node; Hops > 1 marks the pipeline length.
type routeEntry struct {
	NodeID string
	Addr   string
	Rate   float64 // admitted rate z·λ
	Path   string
	DNN    string
	Hops   int
}

// routeTable is the immutable task→node map the proxy reads; re-placements
// publish a fresh one atomically.
type routeTable struct {
	entries map[string]routeEntry
}

// memberState tracks one registered node. All fields except the atomic
// counters are guarded by Coordinator.mu.
type memberState struct {
	node     Node
	state    serve.HealthState
	lastBeat time.Time
	epoch    uint64
	stale    bool // heartbeat timeout fired
	failed   bool // a push or proxy to the node failed; cleared on contact
	// peerMbps is the member's measured node→peer link rates (peer node
	// ID → Mbps), reported piecewise over heartbeats and EMA-smoothed —
	// loopback and wireless probes jitter by integer factors beat to
	// beat. The coordinator's half of the inter-node bandwidth matrix.
	peerMbps map[string]float64
	// placedMbps / peerPlacedMbps snapshot the link rates the latest
	// placement actually priced with; drift is judged against them, so a
	// sustained shift forces one re-placement instead of one per noisy
	// probe.
	placedMbps     float64
	peerPlacedMbps map[string]float64
	// Last placement outcome for this node.
	placedTasks int
	weighted    float64
	admittedSum float64
	proxied     atomic.Uint64
	proxyErrs   atomic.Uint64
}

func (m *memberState) alive() bool { return !m.stale && !m.failed }

// placeSummary is the immutable outcome of the latest re-placement.
type placeSummary struct {
	seq      uint64
	gen      uint64
	at       time.Time
	weighted float64
	unplaced []string
	errors   []string
	nodes    int
	splits   []SplitPath
}

// Coordinator owns the cluster's task registry and places admitted work
// across registered member nodes: every join, leave, failure, bandwidth
// drift or task churn kicks a debounced cluster-wide re-placement whose
// per-node plans are pushed to the members and whose routing table the
// offload proxy serves from.
type Coordinator struct {
	cfg    Config
	reg    *serve.Registry
	client *http.Client
	mux    *http.ServeMux
	start  time.Time

	mu      sync.Mutex
	members map[string]*memberState

	routes  atomic.Pointer[routeTable]
	summary atomic.Pointer[placeSummary]

	placeMu    sync.Mutex // serializes re-placements
	placeSeq   atomic.Uint64
	placeErrs  atomic.Uint64
	placements atomic.Uint64

	kick   chan struct{}
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// NewCoordinator validates the configuration and starts the placement
// loop and the heartbeat failure detector.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if cfg.Alpha == 0 {
		cfg.Alpha = 0.5
	}
	if cfg.Alpha < 0 || cfg.Alpha > 1 {
		return nil, fmt.Errorf("cluster: alpha %v outside [0,1]", cfg.Alpha)
	}
	if cfg.Catalog.NumDNNs == 0 {
		cfg.Catalog = workload.SmallCatalogParams()
	}
	if cfg.Capacity == nil {
		cfg.Capacity = radio.PaperRate()
	}
	if cfg.Debounce <= 0 {
		cfg.Debounce = 100 * time.Millisecond
	}
	if cfg.HeartbeatTimeout <= 0 {
		cfg.HeartbeatTimeout = 3 * time.Second
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	if cfg.Split == nil {
		cfg.Split = &SplitConfig{}
	}
	c := &Coordinator{
		cfg:     cfg,
		reg:     serve.NewRegistry(cfg.Catalog, nil),
		client:  &http.Client{Timeout: pushTimeout},
		members: make(map[string]*memberState),
		kick:    make(chan struct{}, 1),
		start:   cfg.now(),
	}
	c.routes.Store(&routeTable{entries: map[string]routeEntry{}})
	c.summary.Store(&placeSummary{})
	c.ctx, c.cancel = context.WithCancel(context.Background())
	c.mux = c.routesMux()
	c.wg.Add(2)
	go c.placeLoop()
	go c.sweepLoop()
	return c, nil
}

// Close stops the placement loop and failure detector.
func (c *Coordinator) Close() {
	c.cancel()
	c.wg.Wait()
}

// ServeHTTP serves the coordinator API.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) { c.mux.ServeHTTP(w, r) }

// Registry exposes the coordinator's task registry.
func (c *Coordinator) Registry() *serve.Registry { return c.reg }

// requestPlace schedules a debounced re-placement (non-blocking; kicks
// coalesce).
func (c *Coordinator) requestPlace() {
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

// placeLoop debounces kicks into re-placements, mirroring the serve
// resolver's churn batching: the first kick starts the window, kicks
// inside it coalesce, and the placement runs when it closes.
func (c *Coordinator) placeLoop() {
	defer c.wg.Done()
	for {
		select {
		case <-c.ctx.Done():
			return
		case <-c.kick:
		}
		timer := time.NewTimer(c.cfg.Debounce)
		select {
		case <-c.ctx.Done():
			timer.Stop()
			return
		case <-timer.C:
		}
		if err := c.placeOnce(c.ctx); err != nil && c.cfg.Logf != nil {
			c.cfg.Logf("cluster: placement: %v", err)
		}
	}
}

// sweepLoop runs the heartbeat failure detector every
// HeartbeatTimeout/beatsPerTimeout.
func (c *Coordinator) sweepLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.HeartbeatTimeout / beatsPerTimeout)
	defer t.Stop()
	for {
		select {
		case <-c.ctx.Done():
			return
		case <-t.C:
			c.sweep()
		}
	}
}

// sweep evaluates every member against the heartbeat timeout and kicks a
// re-placement when any crossed into or out of staleness. sweepLoop
// calls it on a ticker; tests call it directly with an injected clock,
// so the ticker never has to fire.
func (c *Coordinator) sweep() {
	now := c.cfg.now()
	changed := false
	c.mu.Lock()
	for id, m := range c.members {
		stale := now.Sub(m.lastBeat) > c.cfg.HeartbeatTimeout
		if stale != m.stale {
			m.stale = stale
			changed = true
			if c.cfg.Logf != nil {
				if stale {
					c.cfg.Logf("cluster: node %s missed heartbeats for %v, marking stale", id, now.Sub(m.lastBeat))
				} else {
					c.cfg.Logf("cluster: node %s heartbeats resumed", id)
				}
			}
		}
	}
	c.mu.Unlock()
	if changed {
		c.requestPlace()
	}
}

// PlaceNow runs one re-placement synchronously, bypassing the debounce
// (tests and the daemon's startup path).
func (c *Coordinator) PlaceNow() error { return c.placeOnce(c.ctx) }

// aliveNodes snapshots the placeable membership, sorted by node ID so
// placements are deterministic.
func (c *Coordinator) aliveNodes() []Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	nodes := make([]Node, 0, len(c.members))
	for _, m := range c.members {
		if m.alive() {
			nodes = append(nodes, m.node)
		}
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID < nodes[j].ID })
	return nodes
}

// placeOnce computes one cluster-wide placement over the alive members,
// pushes every node's plan, and publishes the routing table. A failed
// push marks the node failed and the placement is retried without it, so
// one dead member cannot wedge the cluster.
func (c *Coordinator) placeOnce(ctx context.Context) error {
	c.placeMu.Lock()
	defer c.placeMu.Unlock()
	tasks, blocks, gen := c.reg.Snapshot()
	nodes := c.aliveNodes()
	// Every failed attempt marks at least one node failed, so the first
	// attempt's alive count bounds the retries.
	retries := len(nodes) + 1
	for attempt := 0; ; attempt++ {
		split := *c.cfg.Split
		split.link = c.linkFunc()
		p := PlaceWith(ctx, tasks, blocks, nodes, PlaceConfig{Alpha: c.cfg.Alpha, Split: &split})
		failed := c.pushPlans(ctx, p)
		if len(failed) == 0 {
			c.publish(p, gen, len(nodes))
			return nil
		}
		c.mu.Lock()
		for _, id := range failed {
			if m, ok := c.members[id]; ok {
				m.failed = true
			}
		}
		c.mu.Unlock()
		c.placeErrs.Add(uint64(len(failed)))
		if c.cfg.Logf != nil {
			c.cfg.Logf("cluster: plan push failed for %v, re-placing without them", failed)
		}
		if attempt >= retries {
			return fmt.Errorf("cluster: placement aborted after %d push-failure retries", attempt)
		}
		nodes = c.aliveNodes()
	}
}

// linkFunc snapshots the measured inter-node bandwidth matrix into the
// split search's link oracle: a measured a→b (or, failing that, b→a)
// probe wins; with no measurement the a↔b path is priced at the slower
// of the two coordinator links, floors applied (slowerLinkMbps).
func (c *Coordinator) linkFunc() func(a, b Node) float64 {
	c.mu.Lock()
	matrix := make(map[string]map[string]float64, len(c.members))
	for id, m := range c.members {
		m.placedMbps = m.node.BandwidthMbps
		if len(m.peerMbps) == 0 {
			continue
		}
		row := make(map[string]float64, len(m.peerMbps))
		placed := make(map[string]float64, len(m.peerMbps))
		for peer, mbps := range m.peerMbps {
			row[peer] = mbps
			placed[peer] = mbps
		}
		matrix[id] = row
		m.peerPlacedMbps = placed
	}
	c.mu.Unlock()
	return func(a, b Node) float64 {
		if mbps, ok := matrix[a.ID][b.ID]; ok && mbps > 0 {
			return mbps
		}
		if mbps, ok := matrix[b.ID][a.ID]; ok && mbps > 0 {
			return mbps
		}
		return slowerLinkMbps(a, b)
	}
}

// peerAddrs lists every other alive member's serving address — the
// address book a heartbeat response hands the member's agent for its
// inter-node bandwidth probes.
func (c *Coordinator) peerAddrs(self string) map[string]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]string)
	for id, m := range c.members {
		if id != self && m.alive() {
			out[id] = m.node.Addr
		}
	}
	return out
}

// pushPlans sends every alive member its slice of the placement — an
// empty slice clears a node that lost all its tasks — and returns the IDs
// whose push failed.
func (c *Coordinator) pushPlans(ctx context.Context, p *Placement) []string {
	plans := make(map[string]*nodePlan, len(p.plans))
	for i := range p.plans {
		plans[p.plans[i].Node.ID] = &p.plans[i]
	}
	segs := wireSegments(p.Splits)
	c.mu.Lock()
	targets := make([]*memberState, 0, len(c.members))
	for _, m := range c.members {
		if m.alive() {
			targets = append(targets, m)
		}
	}
	c.mu.Unlock()

	var mu sync.Mutex
	var failed []string
	var wg sync.WaitGroup
	for _, m := range targets {
		wg.Add(1)
		go func(m *memberState) {
			defer wg.Done()
			if err := c.pushPlan(ctx, m, plans[m.node.ID], segs[m.node.ID], p.norm); err != nil {
				if c.cfg.Logf != nil {
					c.cfg.Logf("cluster: push to %s (%s): %v", m.node.ID, m.node.Addr, err)
				}
				mu.Lock()
				failed = append(failed, m.node.ID)
				mu.Unlock()
			}
		}(m)
	}
	wg.Wait()
	sort.Strings(failed)
	return failed
}

// pushPlan PUTs one node's task subset to the member and waits for its
// re-solve to acknowledge.
func (c *Coordinator) pushPlan(ctx context.Context, m *memberState, plan *nodePlan, segs []wireSegment, norm *core.Resources) error {
	if err := c.cfg.Faults.Hit(ctx, pointPushError); err != nil {
		return err
	}
	res := m.node.Res
	res.Norm = norm
	push := planPush{
		Node:      m.node.ID,
		Placement: c.placeSeq.Load() + 1,
		Alpha:     c.cfg.Alpha,
		Res:       ToWireResources(res),
		Segments:  segs,
	}
	if plan != nil {
		for _, t := range plan.Tasks {
			push.Tasks = append(push.Tasks, toWireTask(t))
		}
		push.Blocks = toWireBlocks(plan.Blocks)
	}
	body, err := json.Marshal(push)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(ctx, pushTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, m.node.Addr+"/v1/cluster/plan", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("cluster: member %s answered %d to plan push: %s", m.node.ID, resp.StatusCode, msg)
	}
	var ack planAck
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		return fmt.Errorf("cluster: member %s plan ack: %v", m.node.ID, err)
	}
	c.mu.Lock()
	if cur, ok := c.members[m.node.ID]; ok {
		cur.epoch = ack.Epoch
	}
	c.mu.Unlock()
	return nil
}

// publish installs the placement's routing table and per-member stats.
func (c *Coordinator) publish(p *Placement, gen uint64, nodes int) {
	entries := make(map[string]routeEntry, len(p.route))
	byNode := make(map[string]*nodePlan, len(p.plans))
	// A task is listed on at most one node, so one index over every
	// node's assignments finds each routed task's path.
	paths := make(map[string]*core.PathSpec, len(p.route))
	for i := range p.plans {
		plan := &p.plans[i]
		byNode[plan.Node.ID] = plan
		if plan.Solution == nil {
			continue
		}
		for _, a := range plan.Solution.Assignments {
			if a.Path != nil {
				paths[a.TaskID] = a.Path
			}
		}
	}
	splitBy := make(map[string]*SplitPath, len(p.Splits))
	for i := range p.Splits {
		splitBy[p.Splits[i].taskID] = &p.Splits[i]
	}
	for taskID, nodeID := range p.route {
		e := routeEntry{NodeID: nodeID, Hops: 1}
		if plan := byNode[nodeID]; plan != nil {
			e.Addr = plan.Node.Addr
			e.Rate = plan.Admitted[taskID]
		}
		if path := paths[taskID]; path != nil {
			e.Path = path.ID
			e.DNN = path.DNN
		}
		if sp := splitBy[taskID]; sp != nil {
			e.Rate = sp.rate
			e.Path = sp.path.ID
			e.DNN = sp.path.DNN
			e.Hops = len(sp.Segments)
		}
		entries[taskID] = e
	}
	seq := c.placeSeq.Add(1)
	c.placements.Add(1)
	c.routes.Store(&routeTable{entries: entries})
	c.summary.Store(&placeSummary{
		seq:      seq,
		gen:      gen,
		at:       c.cfg.now(),
		weighted: p.weightedAdmission,
		unplaced: p.unplaced,
		errors:   p.errors,
		nodes:    nodes,
		splits:   p.Splits,
	})
	c.mu.Lock()
	for _, m := range c.members {
		m.placedTasks, m.weighted, m.admittedSum = 0, 0, 0
		if plan := byNode[m.node.ID]; plan != nil {
			m.placedTasks = len(plan.Tasks)
			if plan.Solution != nil {
				m.weighted = plan.Solution.Breakdown.WeightedAdmission
			}
			for _, rate := range plan.Admitted {
				m.admittedSum += rate
			}
		}
	}
	c.mu.Unlock()
	if c.cfg.Logf != nil {
		c.cfg.Logf("cluster: placement %d over %d nodes: %d routed (%d split), %d unplaced, weighted admission %.3f",
			seq, nodes, len(entries), len(p.Splits), len(p.unplaced), p.weightedAdmission)
	}
}

// register adds or refreshes a member; re-registration updates its
// address, budgets and link rate and clears failure marks. The address
// must be an http(s) URL with a host, or no plan push could reach it.
func (c *Coordinator) register(req RegisterRequest) error {
	if req.Node == "" || req.Addr == "" {
		return fmt.Errorf("cluster: registration needs node and addr")
	}
	if u, err := url.Parse(req.Addr); err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return fmt.Errorf("cluster: node %s address %q is not an http(s) URL with a host", req.Node, req.Addr)
	}
	res := req.Res.budgets()
	res.Capacity = c.cfg.Capacity
	if err := res.Validate(); err != nil {
		return fmt.Errorf("cluster: node %s registered unusable budgets %+v: %w", req.Node, req.Res, err)
	}
	if res.RBs == 0 || res.ComputeSeconds == 0 {
		return fmt.Errorf("cluster: node %s registered no radio or no compute %+v", req.Node, req.Res)
	}
	now := c.cfg.now()
	c.mu.Lock()
	m, ok := c.members[req.Node]
	if !ok {
		m = &memberState{}
		c.members[req.Node] = m
	}
	m.node = Node{ID: req.Node, Addr: req.Addr, Res: res, BandwidthMbps: req.BandwidthMbps, FloorMbps: c.cfg.BandwidthFloorMbps}
	m.state = parseHealthState(req.State)
	m.lastBeat = now
	m.epoch = req.Epoch
	m.stale = false
	m.failed = false
	c.mu.Unlock()
	if c.cfg.Logf != nil {
		c.cfg.Logf("cluster: node %s registered at %s (R=%d, C=%gs, M=%g GB, link=%g Mb/s)",
			req.Node, req.Addr, res.RBs, res.ComputeSeconds, res.MemoryGB, req.BandwidthMbps)
	}
	c.requestPlace()
	return nil
}

// heartbeat records a member's beat, reviving stale/failed nodes and
// kicking a re-placement on revival or bandwidth drift. Reported link
// probes (coordinator link and node→peer rates) are EMA-smoothed and
// drift is judged against the rates the latest placement priced with,
// so noisy probes settle instead of re-placing every beat. A peer rate
// counts only for a registered member other than the sender, so a beat
// cannot grow the member's peer map past the member list.
func (c *Coordinator) heartbeat(id string, req heartbeatRequest) (ok bool) {
	now := c.cfg.now()
	kick := false
	c.mu.Lock()
	m, found := c.members[id]
	if found {
		m.lastBeat = now
		m.state = parseHealthState(req.State)
		m.epoch = req.Epoch
		if m.stale || m.failed {
			m.stale, m.failed = false, false
			kick = true
		}
		if req.BandwidthMbps > 0 {
			old := m.node.BandwidthMbps
			m.node.BandwidthMbps = smoothRate(old, req.BandwidthMbps)
			ref := m.placedMbps
			if ref <= 0 {
				ref = old // no placement has priced this link yet
			}
			if ref <= 0 || absFrac(m.node.BandwidthMbps, ref) > bandwidthDriftFrac {
				kick = true
				if c.cfg.Logf != nil {
					c.cfg.Logf("cluster: node %s link rate drifted to %.1f Mb/s (placed at %.1f), re-placing", id, m.node.BandwidthMbps, ref)
				}
			}
		}
		for peer, mbps := range req.Peers {
			if _, member := c.members[peer]; mbps <= 0 || peer == id || !member {
				continue
			}
			if m.peerMbps == nil {
				m.peerMbps = make(map[string]float64)
			}
			old := m.peerMbps[peer]
			m.peerMbps[peer] = smoothRate(old, mbps)
			ref := m.peerPlacedMbps[peer]
			if ref <= 0 {
				ref = old
			}
			if ref <= 0 || absFrac(m.peerMbps[peer], ref) > bandwidthDriftFrac {
				kick = true
				if c.cfg.Logf != nil {
					c.cfg.Logf("cluster: link %s→%s now %.1f Mb/s (placed at %.1f), re-placing", id, peer, m.peerMbps[peer], ref)
				}
			}
		}
	}
	c.mu.Unlock()
	if kick {
		c.requestPlace()
	}
	return found
}

// leave removes a member, and its column from the other members' peer
// rates, and re-places its tasks.
func (c *Coordinator) leave(id string) bool {
	c.mu.Lock()
	_, ok := c.members[id]
	delete(c.members, id)
	for _, m := range c.members {
		delete(m.peerMbps, id)
		delete(m.peerPlacedMbps, id)
	}
	c.mu.Unlock()
	if ok {
		if c.cfg.Logf != nil {
			c.cfg.Logf("cluster: node %s left", id)
		}
		c.requestPlace()
	}
	return ok
}

// markFailed flags a node after a proxy transport failure and kicks a
// re-placement without it; the node rejoins on its next heartbeat.
func (c *Coordinator) markFailed(id string) {
	c.mu.Lock()
	m, ok := c.members[id]
	if ok && !m.failed {
		m.failed = true
	} else {
		ok = false
	}
	c.mu.Unlock()
	if ok {
		if c.cfg.Logf != nil {
			c.cfg.Logf("cluster: node %s unreachable, re-placing without it", id)
		}
		c.requestPlace()
	}
}

// parseHealthState maps the wire health string onto serve's states.
func parseHealthState(s string) serve.HealthState {
	switch s {
	case "degraded":
		return serve.Degraded
	case "draining":
		return serve.Draining
	}
	return serve.Healthy
}

// absFrac is |a−b| / b.
func absFrac(a, b float64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d / b
}

// bwSmoothing is the weight one fresh probe carries in the smoothed
// link rate. 0.1 keeps a steady 5× probe jitter (loopback links
// routinely measure anywhere from 2 to 11 Gb/s beat to beat) inside
// the 20% drift gate, while a sustained order-of-magnitude shift still
// crosses it within a few beats.
const bwSmoothing = 0.1

// smoothRate folds a fresh probe into the smoothed link rate.
func smoothRate(old, sample float64) float64 {
	if old <= 0 {
		return sample
	}
	return old + bwSmoothing*(sample-old)
}
