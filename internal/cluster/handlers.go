package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"sort"

	"offloadnn/internal/metrics"
	"offloadnn/internal/serve"
)

// CodeNodeUnreachable is the coordinator-specific error code for an
// offload whose owning node could not be reached; the task is re-placed
// and the client retries. Every other code, and the envelope itself, is
// serve's, so cluster clients parse one shape against either daemon.
const CodeNodeUnreachable = "node_unreachable"

// codeUnknownNode answers a heartbeat or leave for a node that is not
// registered; the member agent re-registers on the 404 alone.
const codeUnknownNode = "unknown_node"

func (c *Coordinator) routesMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/tasks", c.handleRegisterTask)
	mux.HandleFunc("GET /v1/tasks", c.handleListTasks)
	mux.HandleFunc("DELETE /v1/tasks/{id}", c.handleDeregisterTask)
	mux.HandleFunc("POST /v1/offload", c.handleOffload)
	mux.HandleFunc("POST /v1/cluster/nodes", c.handleNodeRegister)
	mux.HandleFunc("GET /v1/cluster/nodes", c.handleNodeList)
	mux.HandleFunc("POST /v1/cluster/nodes/{id}/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("DELETE /v1/cluster/nodes/{id}", c.handleNodeLeave)
	mux.HandleFunc("POST /v1/cluster/bwprobe", handleProbe)
	mux.HandleFunc("GET /healthz", c.handleHealth)
	mux.HandleFunc("GET /metrics", c.handleMetrics)
	return mux
}

// handleRegisterTask mirrors edgeserve's POST /v1/tasks: the coordinator
// owns the cluster-wide registry and the next placement assigns the task
// a node.
func (c *Coordinator) handleRegisterTask(w http.ResponseWriter, r *http.Request) {
	var spec serve.TaskSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		serve.WriteError(w, http.StatusBadRequest, serve.CodeInvalidRequest, "invalid task spec: %v", err)
		return
	}
	if err := c.reg.Register(spec.Task(), nil); err != nil {
		if errors.Is(err, serve.ErrExists) {
			serve.WriteError(w, http.StatusConflict, serve.CodeTaskExists, "%v", err)
			return
		}
		serve.WriteError(w, http.StatusBadRequest, serve.CodeInvalidRequest, "%v", err)
		return
	}
	c.requestPlace()
	serve.WriteJSON(w, http.StatusAccepted, map[string]any{
		"id":         spec.ID,
		"status":     "pending",
		"generation": c.reg.Generation(),
	})
}

func (c *Coordinator) handleDeregisterTask(w http.ResponseWriter, r *http.Request) {
	if err := c.reg.Deregister(r.PathValue("id")); err != nil {
		serve.WriteError(w, http.StatusNotFound, serve.CodeUnknownTask, "%v", err)
		return
	}
	c.requestPlace()
	w.WriteHeader(http.StatusNoContent)
}

// clusterTaskStatus is one entry of the coordinator's GET /v1/tasks: the
// fields of serve's task status plus the owning node.
type clusterTaskStatus struct {
	ID           string  `json:"id"`
	Priority     float64 `json:"priority"`
	Rate         float64 `json:"rate"`
	Admitted     bool    `json:"admitted"`
	AdmittedRate float64 `json:"admitted_rate"`
	Node         string  `json:"node,omitempty"`
	Path         string  `json:"path,omitempty"`
	DNN          string  `json:"dnn,omitempty"`
	// Hops is the serving pipeline length: 1 for a whole-path placement,
	// >1 when the task runs as a split path across nodes.
	Hops int `json:"hops,omitempty"`
}

func (c *Coordinator) handleListTasks(w http.ResponseWriter, r *http.Request) {
	tasks, _, _ := c.reg.Snapshot()
	rt := c.routes.Load()
	out := make([]clusterTaskStatus, 0, len(tasks))
	for _, t := range tasks {
		st := clusterTaskStatus{ID: t.ID, Priority: t.Priority, Rate: t.Rate}
		if e, ok := rt.entries[t.ID]; ok {
			st.Admitted = true
			st.AdmittedRate = e.Rate
			st.Node = e.NodeID
			st.Path = e.Path
			st.DNN = e.DNN
			st.Hops = e.Hops
		}
		out = append(out, st)
	}
	serve.WriteJSON(w, http.StatusOK, out)
}

// handleOffload proxies the request to the node the routing table maps
// its task to, streaming the member's verdict — admission parameters,
// logits, 429s — back unchanged.
func (c *Coordinator) handleOffload(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, serve.MaxOffloadBody))
	if err != nil {
		serve.WriteError(w, http.StatusBadRequest, serve.CodeInvalidRequest, "reading offload request: %v", err)
		return
	}
	req, err := serve.DecodeOffload(body)
	if err != nil {
		serve.WriteError(w, http.StatusBadRequest, serve.CodeInvalidRequest, "invalid offload request: %v", err)
		return
	}
	entry, ok := c.routes.Load().entries[req.Task]
	if !ok {
		if c.reg.Has(req.Task) {
			// Registered but unrouted: no node admits it under the current
			// placement (or the re-placement is still pending).
			w.Header().Set("Retry-After", serve.RetryAfter(c.cfg.Debounce))
			serve.WriteError(w, http.StatusTooManyRequests, serve.CodeNotAdmitted,
				"task %q not admitted by current placement", req.Task)
			return
		}
		serve.WriteError(w, http.StatusNotFound, serve.CodeUnknownTask, "task %q not registered", req.Task)
		return
	}
	c.mu.Lock()
	m := c.members[entry.NodeID]
	c.mu.Unlock()
	if err := c.cfg.Faults.Hit(r.Context(), pointProxyError); err != nil {
		if m != nil {
			m.proxyErrs.Add(1)
		}
		serve.WriteError(w, http.StatusBadGateway, CodeNodeUnreachable, "node %s: %v", entry.NodeID, err)
		return
	}
	preq, err := http.NewRequestWithContext(r.Context(), http.MethodPost, entry.Addr+"/v1/offload", bytes.NewReader(body))
	if err != nil {
		serve.WriteError(w, http.StatusInternalServerError, CodeNodeUnreachable, "%v", err)
		return
	}
	preq.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(preq)
	if err != nil {
		if m != nil {
			m.proxyErrs.Add(1)
		}
		// Transport failure: the node is gone or wedged. Fail the node so
		// the debounced re-placement moves its tasks to survivors; the
		// client retries and lands on the new route.
		c.markFailed(entry.NodeID)
		w.Header().Set("Retry-After", serve.RetryAfter(c.cfg.Debounce))
		serve.WriteError(w, http.StatusBadGateway, CodeNodeUnreachable, "node %s: %v", entry.NodeID, err)
		return
	}
	defer resp.Body.Close()
	if m != nil {
		m.proxied.Add(1)
	}
	for _, h := range []string{"Content-Type", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// memberInfo is one entry of GET /v1/cluster/nodes.
type memberInfo struct {
	Node          string        `json:"node"`
	Addr          string        `json:"addr"`
	State         string        `json:"state"`
	Res           WireResources `json:"res"`
	BandwidthMbps float64       `json:"bandwidth_mbps,omitempty"`
	Epoch         uint64        `json:"epoch"`
	PlacedTasks   int           `json:"placed_tasks"`
	Stale         bool          `json:"stale,omitempty"`
	Failed        bool          `json:"failed,omitempty"`
}

func (c *Coordinator) handleNodeList(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	out := make([]memberInfo, 0, len(c.members))
	for id, m := range c.members {
		out = append(out, memberInfo{
			Node:          id,
			Addr:          m.node.Addr,
			State:         m.state.String(),
			Res:           ToWireResources(m.node.Res),
			BandwidthMbps: m.node.BandwidthMbps,
			Epoch:         m.epoch,
			PlacedTasks:   m.placedTasks,
			Stale:         m.stale,
			Failed:        m.failed,
		})
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	serve.WriteJSON(w, http.StatusOK, out)
}

func (c *Coordinator) handleNodeRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(&req); err != nil {
		serve.WriteError(w, http.StatusBadRequest, serve.CodeInvalidRequest, "invalid registration: %v", err)
		return
	}
	if err := c.register(req); err != nil {
		serve.WriteError(w, http.StatusBadRequest, serve.CodeInvalidRequest, "%v", err)
		return
	}
	serve.WriteJSON(w, http.StatusOK, map[string]any{
		"node":              req.Node,
		"heartbeat_timeout": c.cfg.HeartbeatTimeout.Seconds(),
	})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var req heartbeatRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(&req); err != nil {
		serve.WriteError(w, http.StatusBadRequest, serve.CodeInvalidRequest, "invalid heartbeat: %v", err)
		return
	}
	// A dropped beat answers 204 like a recorded one: the member cannot
	// tell, and the failure detector sees only silence (chaos tests).
	if err := c.cfg.Faults.Hit(r.Context(), pointHeartbeatDrop); err != nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	if !c.heartbeat(id, req) {
		serve.WriteError(w, http.StatusNotFound, codeUnknownNode, "node %q not registered", id)
		return
	}
	// The response hands back the peer address book so the member's agent
	// can round-robin inter-node bandwidth probes (the measurements come
	// back in later heartbeats' Peers field).
	serve.WriteJSON(w, http.StatusOK, heartbeatResponse{Peers: c.peerAddrs(id)})
}

func (c *Coordinator) handleNodeLeave(w http.ResponseWriter, r *http.Request) {
	if !c.leave(r.PathValue("id")) {
		serve.WriteError(w, http.StatusNotFound, codeUnknownNode, "node %q not registered", r.PathValue("id"))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// nodeHealth is one member's entry in the aggregate /healthz payload.
type nodeHealth struct {
	State         string  `json:"state"`
	Addr          string  `json:"addr"`
	Epoch         uint64  `json:"epoch"`
	Tasks         int     `json:"tasks"`
	BandwidthMbps float64 `json:"bandwidth_mbps,omitempty"`
	HeartbeatAgeS float64 `json:"heartbeat_age_seconds"`
	Stale         bool    `json:"stale,omitempty"`
	Failed        bool    `json:"failed,omitempty"`
}

// handleHealth aggregates member health: the cluster is degraded — never
// silently healthy — when any member is degraded, stale, failed or
// draining, and the failing nodes are named in the payload.
func (c *Coordinator) handleHealth(w http.ResponseWriter, r *http.Request) {
	now := c.cfg.now()
	nodes := make(map[string]nodeHealth)
	var failing []string
	c.mu.Lock()
	for id, m := range c.members {
		nh := nodeHealth{
			State:         m.state.String(),
			Addr:          m.node.Addr,
			Epoch:         m.epoch,
			Tasks:         m.placedTasks,
			BandwidthMbps: m.node.BandwidthMbps,
			HeartbeatAgeS: now.Sub(m.lastBeat).Seconds(),
			Stale:         m.stale,
			Failed:        m.failed,
		}
		if m.stale || m.failed || m.state != serve.Healthy {
			failing = append(failing, id)
		}
		nodes[id] = nh
	}
	c.mu.Unlock()
	sort.Strings(failing)
	status := "healthy"
	if len(failing) > 0 || len(nodes) == 0 {
		status = "degraded"
	}
	sum := c.summary.Load()
	placement := map[string]any{
		"seq":                sum.seq,
		"generation":         sum.gen,
		"nodes":              sum.nodes,
		"weighted_admission": sum.weighted,
		"unplaced":           len(sum.unplaced),
		"splits":             len(sum.splits),
		"age_seconds":        now.Sub(sum.at).Seconds(),
	}
	if len(sum.errors) > 0 { // nodes a failed solve or Check dropped
		placement["errors"] = sum.errors
	}
	body := map[string]any{
		"status":           status,
		"nodes":            nodes,
		"tasks_registered": c.reg.Len(),
		"generation":       c.reg.Generation(),
		"placement":        placement,
		"uptime_seconds":   now.Sub(c.start).Seconds(),
	}
	if len(failing) > 0 {
		body["failing"] = failing
	}
	serve.WriteJSON(w, http.StatusOK, body)
}

// handleMetrics exposes cluster-level families plus per-node families
// labelled {node="..."} through the same writer as the members' own
// /metrics.
func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	now := c.cfg.now()
	sum := c.summary.Load()
	// One row per member, copied under the lock and sorted by node ID.
	type nodeRow struct {
		id                      string
		up                      bool
		state                   serve.HealthState
		beat, mbps, rate, zp    float64
		epoch, proxied, proxErr uint64
		tasks                   int
		peers                   map[string]float64
	}
	c.mu.Lock()
	rows := make([]nodeRow, 0, len(c.members))
	for id, m := range c.members {
		row := nodeRow{id: id, up: m.alive(), state: m.state, beat: now.Sub(m.lastBeat).Seconds(),
			mbps: m.node.BandwidthMbps, rate: m.admittedSum, zp: m.weighted, epoch: m.epoch,
			proxied: m.proxied.Load(), proxErr: m.proxyErrs.Load(), tasks: m.placedTasks,
			peers: make(map[string]float64, len(m.peerMbps))}
		for peer, mbps := range m.peerMbps {
			row.peers[peer] = mbps
		}
		rows = append(rows, row)
	}
	c.mu.Unlock()
	sort.Slice(rows, func(i, j int) bool { return rows[i].id < rows[j].id })

	e := metrics.NewExposition(w)
	e.Gauge("offloadnn_cluster_uptime_seconds", "Seconds since the coordinator started.").Float(now.Sub(c.start).Seconds())
	e.Gauge("offloadnn_cluster_nodes", "Members currently registered.").Int(int64(len(rows)))
	e.Gauge("offloadnn_cluster_tasks_registered", "Tasks currently registered with the coordinator.").Int(int64(c.reg.Len()))
	e.Gauge("offloadnn_cluster_tasks_unplaced", "Registered tasks no node admits under the current placement.").Int(int64(len(sum.unplaced)))
	e.Counter("offloadnn_cluster_placements_total", "Cluster-wide re-placements published.").Int(int64(c.placements.Load()))
	e.Counter("offloadnn_cluster_placement_errors_total", "Plan pushes that failed and caused a retry without the node.").Int(int64(c.placeErrs.Load()))
	e.Counter("offloadnn_cluster_placement_seq", "Sequence number of the active placement.").Int(int64(sum.seq))
	e.Gauge("offloadnn_cluster_placement_age_seconds", "Age of the active placement.").Float(now.Sub(sum.at).Seconds())
	e.Gauge("offloadnn_cluster_weighted_admission", "Cluster-wide admitted weighted priority Σ z·p.").Float(sum.weighted)
	e.Gauge("offloadnn_split_paths", "Tasks served as pipelined split paths under the current placement.").Int(int64(len(sum.splits)))
	if len(sum.splits) > 0 {
		f := e.Gauge("offloadnn_split_hops", "Pipeline length of each split-path task.")
		for i := range sum.splits {
			f.Int(int64(len(sum.splits[i].Segments)), "task", sum.splits[i].taskID)
		}
	}

	// Per-node families, one series per member.
	ints := func(f metrics.Family, v func(nodeRow) int64) {
		for _, row := range rows {
			f.Int(v(row), "node", row.id)
		}
	}
	floats := func(f metrics.Family, v func(nodeRow) float64) {
		for _, row := range rows {
			f.Float(v(row), "node", row.id)
		}
	}
	f := e.Gauge("offloadnn_node_up", "Member liveness: 1 when the node is neither stale nor failed.")
	for _, row := range rows {
		f.Bool(row.up, "node", row.id)
	}
	ints(e.Gauge("offloadnn_node_health_state", "Member-reported serving condition: 0 healthy, 1 degraded, 2 draining."),
		func(r nodeRow) int64 { return int64(r.state) })
	floats(e.Gauge("offloadnn_node_heartbeat_age_seconds", "Seconds since the member's last heartbeat."),
		func(r nodeRow) float64 { return r.beat })
	floats(e.Gauge("offloadnn_node_bandwidth_mbps", "Measured coordinator-node link rate; 0 when unmeasured."),
		func(r nodeRow) float64 { return r.mbps })
	f = e.Gauge("offloadnn_link_mbps", "Measured inter-node link rate from heartbeat-reported peer probes.")
	for _, row := range rows {
		for _, peer := range metrics.SortedKeys(row.peers) {
			f.Float(row.peers[peer], "from", row.id, "to", peer)
		}
	}
	ints(e.Counter("offloadnn_node_epoch", "Member's active deployment epoch as of its last contact."),
		func(r nodeRow) int64 { return int64(r.epoch) })
	ints(e.Gauge("offloadnn_node_tasks", "Tasks the current placement assigns to the node."),
		func(r nodeRow) int64 { return int64(r.tasks) })
	floats(e.Gauge("offloadnn_node_admitted_rate", "Sum of admitted frame rates z*lambda on the node, frames/s."),
		func(r nodeRow) float64 { return r.rate })
	floats(e.Gauge("offloadnn_node_weighted_admission", "Admitted weighted priority on the node."),
		func(r nodeRow) float64 { return r.zp })
	ints(e.Counter("offloadnn_node_proxied_total", "Offload requests proxied to the node."),
		func(r nodeRow) int64 { return int64(r.proxied) })
	ints(e.Counter("offloadnn_node_proxy_errors_total", "Proxied offloads that failed in transport to the node."),
		func(r nodeRow) int64 { return int64(r.proxErr) })
}
