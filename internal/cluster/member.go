package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"offloadnn/internal/core"
	"offloadnn/internal/metrics"
	"offloadnn/internal/serve"
)

// MemberHandler wraps an edgeserve server with the cluster-member
// endpoints: the full standalone API stays served (a member is a normal
// edgeserve daemon), plus
//
//	PUT /v1/cluster/plan      install the coordinator's task subset
//	POST /v1/cluster/bwprobe  sink for peers' inter-node bandwidth probes
func MemberHandler(srv *serve.Server) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", srv)
	mux.HandleFunc("PUT /v1/cluster/plan", func(w http.ResponseWriter, r *http.Request) {
		handlePlanPush(srv, w, r)
	})
	mux.HandleFunc("POST /v1/cluster/bwprobe", handleProbe)
	return mux
}

// handleProbe is both daemons' bandwidth-probe sink: an agent times the
// transfer of probeBytes to it to measure the link (coordinator↔node,
// or the node→node link the split placement prices; links are assumed
// symmetric). A body past probeBytes is refused, not read.
func handleProbe(w http.ResponseWriter, r *http.Request) {
	if _, err := io.Copy(io.Discard, http.MaxBytesReader(w, r.Body, probeBytes)); err != nil {
		serve.WriteError(w, http.StatusBadRequest, serve.CodeInvalidRequest, "probe: %v", err)
		return
	}
	w.WriteHeader(http.StatusOK)
}

// handlePlanPush installs one placement slice: the pushed tasks arrive
// fully built (paths and blocks included), the member charges the pushed
// segments to its own budgets, re-solves the tasks against what is left —
// priced at the pushed fleet-wide norm, so its epoch reaches the
// coordinator's per-node solution — and installs the result through its
// execution backend. A plan the budgets cannot hold is refused with 409.
func handlePlanPush(srv *serve.Server, w http.ResponseWriter, r *http.Request) {
	var push planPush
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20))
	if err := dec.Decode(&push); err != nil {
		serve.WriteError(w, http.StatusBadRequest, serve.CodeInvalidRequest, "invalid plan push: %v", err)
		return
	}
	if push.Node != "" && srv.Node() != "" && push.Node != srv.Node() {
		serve.WriteError(w, http.StatusBadRequest, serve.CodeInvalidRequest,
			"plan for node %q pushed to node %q", push.Node, srv.Node())
		return
	}
	if err := push.Res.matches(srv.Resources()); err != nil {
		serve.WriteError(w, http.StatusConflict, serve.CodeInvalidRequest, "%v", err)
		return
	}
	tasks := make([]core.Task, 0, len(push.Tasks))
	for _, wt := range push.Tasks {
		tasks = append(tasks, wt.Task())
	}
	changed, err := srv.ReplacePlan(tasks, fromWireBlocks(push.Blocks), push.Res.normResources(), push.Segments)
	if err != nil {
		status, code := http.StatusBadRequest, serve.CodeInvalidRequest
		if errors.Is(err, serve.ErrDraining) {
			status, code = http.StatusServiceUnavailable, serve.CodeDraining
		} else if errors.Is(err, core.ErrOverCapacity) {
			status = http.StatusConflict // the budgets cannot hold the plan
		}
		serve.WriteError(w, status, code, "%v", err)
		return
	}
	var epoch uint64
	if ep := srv.Current(); ep != nil {
		epoch = ep.N
	}
	serve.WriteJSON(w, http.StatusOK, planAck{
		Node:    srv.Node(),
		Epoch:   epoch,
		Tasks:   len(tasks),
		Changed: changed,
	})
}

// AgentConfig parameterizes a member's membership agent.
type AgentConfig struct {
	// Coordinator is the coordinator's base URL.
	Coordinator string
	// NodeID names this member (must match the server's Config.Node).
	NodeID string
	// Advertise is the base URL the coordinator reaches this member's
	// API on.
	Advertise string
	// BandwidthMbps fixes the link rate reported to the coordinator;
	// zero or negative measures it with a probe transfer at registration.
	BandwidthMbps float64
	// Logf receives agent diagnostics; nil discards them.
	Logf func(string, ...any)
}

// probeBytes sizes one bandwidth probe transfer.
const probeBytes = 1 << 20

// Agent is a member's side of the membership protocol: it registers the
// node with the coordinator, reports health/epoch/bandwidth with every
// heartbeat, re-registers when the coordinator forgot it (coordinator
// restart, heartbeat-timeout eviction), and deregisters on Close.
type Agent struct {
	cfg    AgentConfig
	srv    *serve.Server
	client *http.Client
	mbps   float64
	// period is the heartbeat period: the heartbeat_timeout of the latest
	// registration answer over beatsPerTimeout. Only the loop goroutine
	// touches it.
	period time.Duration

	// Peer state for the inter-node bandwidth matrix: the coordinator's
	// heartbeat response carries the live peer address book, the agent
	// round-robins one probe per beat over it, and the next heartbeat
	// reports every measured node→peer rate.
	mu       sync.Mutex
	peerBook map[string]string  // peer node ID → base URL
	peerMbps map[string]float64 // peer node ID → measured Mb/s
	probeSeq int

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// StartAgent launches the membership loop for the given member server.
func StartAgent(srv *serve.Server, cfg AgentConfig) (*Agent, error) {
	if cfg.Coordinator == "" || cfg.NodeID == "" || cfg.Advertise == "" {
		return nil, fmt.Errorf("cluster: agent needs coordinator, node ID and advertise address")
	}
	a := &Agent{cfg: cfg, srv: srv, client: &http.Client{Timeout: 10 * time.Second}, mbps: cfg.BandwidthMbps}
	a.ctx, a.cancel = context.WithCancel(context.Background())
	a.wg.Add(1)
	go a.loop()
	return a, nil
}

// Close deregisters from the coordinator (best effort) and stops the
// agent.
func (a *Agent) Close() {
	a.cancel()
	a.wg.Wait()
	req, err := http.NewRequest(http.MethodDelete, a.cfg.Coordinator+"/v1/cluster/nodes/"+a.cfg.NodeID, nil)
	if err != nil {
		return
	}
	if resp, err := a.client.Do(req); err == nil {
		resp.Body.Close()
	}
}

// loop registers (retrying 1 s → 10 s until it lands) and then
// heartbeats at the period the registration answer set, resetting the
// ticker when a re-registration changes it.
func (a *Agent) loop() {
	defer a.wg.Done()
	backoff := time.Second
	for {
		if err := a.register(); err == nil {
			break
		} else if a.cfg.Logf != nil {
			a.cfg.Logf("cluster: agent %s: register: %v", a.cfg.NodeID, err)
		}
		select {
		case <-a.ctx.Done():
			return
		case <-time.After(backoff):
		}
		backoff = min(2*backoff, 10*time.Second)
	}
	t := time.NewTicker(a.period)
	defer t.Stop()
	for {
		select {
		case <-a.ctx.Done():
			return
		case <-t.C:
		}
		period := a.period
		if err := a.beat(); err != nil {
			if a.cfg.Logf != nil {
				a.cfg.Logf("cluster: agent %s: heartbeat: %v", a.cfg.NodeID, err)
			}
		}
		if a.period != period {
			t.Reset(a.period)
		}
	}
}

// register measures the link (unless a rate was configured), announces
// the node, and takes its heartbeat period from the coordinator's
// heartbeat_timeout.
func (a *Agent) register() error {
	if a.mbps <= 0 {
		if mbps, err := a.probe(a.cfg.Coordinator); err == nil {
			a.mbps = mbps
			if a.cfg.Logf != nil {
				a.cfg.Logf("cluster: agent %s: measured link %.1f Mb/s", a.cfg.NodeID, mbps)
			}
		} else if a.cfg.Logf != nil {
			a.cfg.Logf("cluster: agent %s: bandwidth probe: %v (link left unmeasured)", a.cfg.NodeID, err)
		}
	}
	h := a.srv.Health()
	body, err := json.Marshal(RegisterRequest{
		Node:          a.cfg.NodeID,
		Addr:          a.cfg.Advertise,
		Res:           ToWireResources(a.srv.Resources()),
		BandwidthMbps: a.mbps,
		State:         h.State.String(),
		Epoch:         h.Epoch,
	})
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(a.ctx, http.MethodPost, a.cfg.Coordinator+"/v1/cluster/nodes", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := a.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("coordinator answered %d: %s", resp.StatusCode, msg)
	}
	var ack struct {
		HeartbeatTimeout float64 `json:"heartbeat_timeout"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&ack); err != nil {
		return fmt.Errorf("registration answer: %v", err)
	}
	period := time.Duration(ack.HeartbeatTimeout * float64(time.Second) / beatsPerTimeout)
	if period <= 0 {
		return fmt.Errorf("registration answer carries no positive heartbeat_timeout (got %v)", ack.HeartbeatTimeout)
	}
	a.period = period
	return nil
}

// beat posts one heartbeat; a 404 means the coordinator no longer knows
// the node (restart or eviction) and triggers re-registration. A 200
// carries the coordinator's peer address book, which the agent probes
// one peer per beat over to fill the inter-node bandwidth matrix.
func (a *Agent) beat() error {
	a.mu.Lock()
	peers := make(map[string]float64, len(a.peerMbps))
	for id, mbps := range a.peerMbps {
		peers[id] = mbps
	}
	a.mu.Unlock()
	h := a.srv.Health()
	body, err := json.Marshal(heartbeatRequest{
		State:         h.State.String(),
		Epoch:         h.Epoch,
		BandwidthMbps: a.mbps,
		Peers:         peers,
	})
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(a.ctx, http.MethodPost,
		a.cfg.Coordinator+"/v1/cluster/nodes/"+a.cfg.NodeID+"/heartbeat", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := a.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		var hb heartbeatResponse
		if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&hb); err == nil {
			a.mu.Lock()
			a.peerBook = hb.Peers
			a.mu.Unlock()
		}
		a.probeNextPeer()
		return nil
	case http.StatusNoContent:
		// The fault-injected heartbeat drop answers an empty 204; the
		// beat still counts.
		return nil
	case http.StatusNotFound:
		if a.cfg.Logf != nil {
			a.cfg.Logf("cluster: agent %s: coordinator forgot us, re-registering", a.cfg.NodeID)
		}
		return a.register()
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("coordinator answered %d: %s", resp.StatusCode, msg)
	}
}

// probeNextPeer round-robins one inter-node bandwidth probe over the
// current peer address book.
func (a *Agent) probeNextPeer() {
	a.mu.Lock()
	if len(a.peerBook) == 0 {
		a.mu.Unlock()
		return
	}
	ids := metrics.SortedKeys(a.peerBook)
	id := ids[a.probeSeq%len(ids)]
	addr := a.peerBook[id]
	a.probeSeq++
	a.mu.Unlock()

	mbps, err := a.probe(addr)
	if err != nil {
		if a.cfg.Logf != nil {
			a.cfg.Logf("cluster: agent %s: peer probe %s: %v", a.cfg.NodeID, id, err)
		}
		return
	}
	a.mu.Lock()
	if a.peerMbps == nil {
		a.peerMbps = make(map[string]float64)
	}
	a.peerMbps[id] = mbps
	a.mu.Unlock()
}

// probe measures the link to the node or coordinator at base URL url by
// streaming probeBytes to its probe sink and timing the transfer.
func (a *Agent) probe(url string) (mbps float64, err error) {
	payload := make([]byte, probeBytes)
	start := time.Now()
	req, err := http.NewRequestWithContext(a.ctx, http.MethodPost, url+"/v1/cluster/bwprobe", bytes.NewReader(payload))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := a.client.Do(req)
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("probe sink answered %d", resp.StatusCode)
	}
	elapsed := time.Since(start).Seconds()
	if elapsed <= 0 {
		return 0, fmt.Errorf("probe transfer too fast to time")
	}
	return float64(probeBytes) * 8 / elapsed / 1e6, nil
}
