package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"offloadnn/internal/core"
	"offloadnn/internal/faultinject"
	"offloadnn/internal/radio"
	"offloadnn/internal/serve"
	"offloadnn/internal/workload"
)

// fullRes mirrors the Table-IV single-edge pool serve's tests solve
// against.
func fullRes() core.Resources {
	return core.Resources{
		RBs:                50,
		ComputeSeconds:     2.5,
		MemoryGB:           8,
		TrainBudgetSeconds: 1000,
		Capacity:           radio.PaperRate(),
	}
}

// liveMember is one edgeserve daemon running in cluster-member mode
// behind a real HTTP listener.
type liveMember struct {
	srv *serve.Server
	ts  *httptest.Server
}

func startMember(t *testing.T, id string, res core.Resources) *liveMember {
	t.Helper()
	srv, err := serve.New(serve.Config{Res: res, Alpha: 0.5, Node: id, Debounce: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(MemberHandler(srv))
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return &liveMember{srv: srv, ts: ts}
}

func startCoordinator(t testing.TB, cfg Config) *Coordinator {
	t.Helper()
	if cfg.Debounce == 0 {
		cfg.Debounce = 10 * time.Millisecond
	}
	if cfg.BandwidthFloorMbps == 0 {
		// In-process members talk over loopback, not a radio link: opt out
		// of the unmeasured-link floor so these tests keep pinning the
		// placement math. The floor has its own test (TestBandwidthFloor).
		cfg.BandwidthFloorMbps = -1
	}
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func joinMember(t *testing.T, c *Coordinator, id string, m *liveMember, mbps float64) {
	t.Helper()
	err := c.register(RegisterRequest{
		Node:          id,
		Addr:          m.ts.URL,
		Res:           ToWireResources(m.srv.Resources()),
		BandwidthMbps: mbps,
		State:         "healthy",
	})
	if err != nil {
		t.Fatal(err)
	}
}

// specTask rebuilds a Table-IV small task the way the HTTP route does:
// scalar spec only, candidate paths come from the registry's catalog.
func specTask(t *testing.T, i int) core.Task {
	t.Helper()
	task, err := workload.SmallTask(i)
	if err != nil {
		t.Fatal(err)
	}
	return serve.TaskSpec{
		ID:           task.ID,
		Priority:     task.Priority,
		Rate:         task.Rate,
		MinAccuracy:  task.MinAccuracy,
		MaxLatencyMS: float64(task.MaxLatency) / float64(time.Millisecond),
		InputBits:    task.InputBits,
		SNRdB:        task.SNRdB,
	}.Task()
}

func postOffload(t *testing.T, baseURL, taskID string) *http.Response {
	t.Helper()
	body, _ := json.Marshal(map[string]string{"task": taskID})
	resp, err := http.Post(baseURL+"/v1/offload", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func getHealth(t *testing.T, baseURL string) map[string]any {
	t.Helper()
	resp, err := http.Get(baseURL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return body
}

// TestClusterOneNodeMatchesStandalone: a 1-node cluster must reproduce
// the standalone edgeserve daemon exactly — same admitted set, same
// paths, same rates (satellite 3's equivalence check).
func TestClusterOneNodeMatchesStandalone(t *testing.T) {
	res := fullRes()

	standalone, err := serve.New(serve.Config{Res: res, Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	defer standalone.Close()
	for i := 1; i <= 5; i++ {
		if err := standalone.Register(specTask(t, i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := standalone.ResolveNow(); err != nil {
		t.Fatal(err)
	}
	want := standalone.Current()
	if want == nil {
		t.Fatal("standalone published no epoch")
	}

	m := startMember(t, "a", res)
	c := startCoordinator(t, Config{})
	joinMember(t, c, "a", m, 0)
	for i := 1; i <= 5; i++ {
		if err := c.Registry().Register(specTask(t, i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.PlaceNow(); err != nil {
		t.Fatal(err)
	}
	got := m.srv.Current()
	if got == nil {
		t.Fatal("member published no epoch after plan push")
	}

	routes := c.routes.Load()
	for i := 1; i <= 5; i++ {
		id := fmt.Sprintf("task-%d", i)
		wa, wok := want.Assignment(id)
		ga, gok := got.Assignment(id)
		if wok != gok {
			t.Fatalf("%s: standalone admitted=%v, cluster member admitted=%v", id, wok, gok)
		}
		if !wok {
			continue
		}
		if wa.Path.ID != ga.Path.ID {
			t.Errorf("%s: path %q standalone vs %q cluster", id, wa.Path.ID, ga.Path.ID)
		}
		if math.Abs(wa.Z-ga.Z) > 1e-9 || wa.RBs != ga.RBs {
			t.Errorf("%s: z/RBs (%v, %d) standalone vs (%v, %d) cluster", id, wa.Z, wa.RBs, ga.Z, ga.RBs)
		}
		if wr, gr := want.Deployment.AdmittedRates[id], got.Deployment.AdmittedRates[id]; math.Abs(wr-gr) > 1e-9 {
			t.Errorf("%s: admitted rate %v standalone vs %v cluster", id, wr, gr)
		}
		e, ok := routes.entries[id]
		if !ok || e.NodeID != "a" {
			t.Errorf("%s: route = %+v, want node a", id, e)
		}
	}
}

// TestClusterFailoverToSurvivor kills one of two members mid-run and
// asserts the proxy fails the node, the re-placement moves every route to
// the survivor, traffic flows again, and the aggregate /healthz names the
// failed node (satellites 2 and 3).
func TestClusterFailoverToSurvivor(t *testing.T) {
	halves := partitionResources(fullRes(), 2)
	ma := startMember(t, "a", halves[0])
	mb := startMember(t, "b", halves[1])
	c := startCoordinator(t, Config{})
	front := httptest.NewServer(c)
	defer front.Close()
	joinMember(t, c, "a", ma, 0)
	joinMember(t, c, "b", mb, 0)
	for i := 1; i <= 5; i++ {
		if err := c.Registry().Register(specTask(t, i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.PlaceNow(); err != nil {
		t.Fatal(err)
	}
	routes := c.routes.Load().entries
	var onB string
	for id, e := range routes {
		if e.NodeID == "b" {
			onB = id
			break
		}
	}
	if onB == "" {
		t.Fatal("placement left node b empty; cannot exercise failover")
	}

	resp := postOffload(t, front.URL, onB)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("offload for %s before failure: %d, want 200", onB, resp.StatusCode)
	}

	mb.ts.Close() // node b dies without deregistering

	resp = postOffload(t, front.URL, onB)
	var envelope struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	json.NewDecoder(resp.Body).Decode(&envelope)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway || envelope.Error.Code != CodeNodeUnreachable {
		t.Fatalf("offload to dead node: status %d code %q, want 502 %s",
			resp.StatusCode, envelope.Error.Code, CodeNodeUnreachable)
	}

	if err := c.PlaceNow(); err != nil {
		t.Fatal(err)
	}
	routes = c.routes.Load().entries
	if len(routes) == 0 {
		t.Fatal("re-placement routed nothing to the survivor")
	}
	for id, e := range routes {
		if e.NodeID != "a" {
			t.Fatalf("after failover %s still routed to %s", id, e.NodeID)
		}
	}
	for id := range routes {
		resp = postOffload(t, front.URL, id)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("offload for %s after failover: %d, want 200", id, resp.StatusCode)
		}
		break
	}

	health := getHealth(t, front.URL)
	if health["status"] != "degraded" {
		t.Fatalf("aggregate health %v after node death, want degraded", health["status"])
	}
	failing, _ := health["failing"].([]any)
	found := false
	for _, f := range failing {
		if f == "b" {
			found = true
		}
	}
	if !found {
		t.Fatalf("failing list %v does not name node b", failing)
	}
}

// fakeClock is a mutex-guarded manual clock for deterministic
// heartbeat-timeout tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1700000000, 0)} }

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

func postHeartbeat(t *testing.T, baseURL, node string, req heartbeatRequest) *http.Response {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(baseURL+"/v1/cluster/nodes/"+node+"/heartbeat", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp
}

// TestClusterHeartbeatTimeout drives the failure detector with an
// injected clock: a member that stops beating turns stale, its tasks move
// to the survivor, /healthz degrades naming it, and its next beat revives
// it.
func TestClusterHeartbeatTimeout(t *testing.T) {
	clock := newFakeClock()
	halves := partitionResources(fullRes(), 2)
	ma := startMember(t, "a", halves[0])
	mb := startMember(t, "b", halves[1])
	c := startCoordinator(t, Config{now: clock.Now, HeartbeatTimeout: 100 * time.Millisecond})
	front := httptest.NewServer(c)
	defer front.Close()
	joinMember(t, c, "a", ma, 0)
	joinMember(t, c, "b", mb, 0)
	for i := 1; i <= 3; i++ {
		if err := c.Registry().Register(specTask(t, i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.PlaceNow(); err != nil {
		t.Fatal(err)
	}

	// b beats inside the window; only a keeps beating afterwards.
	clock.Advance(90 * time.Millisecond)
	if resp := postHeartbeat(t, front.URL, "a", heartbeatRequest{State: "healthy"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("heartbeat answered %d", resp.StatusCode)
	}
	clock.Advance(30 * time.Millisecond) // b is now 120 ms silent, a only 30 ms
	c.sweep()

	c.mu.Lock()
	aStale, bStale := c.members["a"].stale, c.members["b"].stale
	c.mu.Unlock()
	if aStale || !bStale {
		t.Fatalf("after sweep: a stale=%v b stale=%v, want only b stale", aStale, bStale)
	}
	if err := c.PlaceNow(); err != nil {
		t.Fatal(err)
	}
	for id, e := range c.routes.Load().entries {
		if e.NodeID != "a" {
			t.Fatalf("%s routed to stale node %s", id, e.NodeID)
		}
	}
	health := getHealth(t, front.URL)
	if health["status"] != "degraded" {
		t.Fatalf("health %v with a stale member, want degraded", health["status"])
	}

	// The member resumes beating: revived, cluster healthy again.
	if resp := postHeartbeat(t, front.URL, "b", heartbeatRequest{State: "healthy"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("revival heartbeat answered %d", resp.StatusCode)
	}
	c.sweep()
	c.mu.Lock()
	bStale = c.members["b"].stale
	c.mu.Unlock()
	if bStale {
		t.Fatal("node b still stale after resuming heartbeats")
	}
	if health := getHealth(t, front.URL); health["status"] != "healthy" {
		t.Fatalf("health %v after revival, want healthy", health["status"])
	}
}

// TestClusterHeartbeatDropFault arms the cluster.heartbeat.drop chaos
// point: dropped beats answer 204 like recorded ones, so the member
// cannot tell, and the failure detector sees only silence.
func TestClusterHeartbeatDropFault(t *testing.T) {
	clock := newFakeClock()
	inj := faultinject.New(1)
	inj.Set(pointHeartbeatDrop, faultinject.Rule{EveryN: 1})
	ma := startMember(t, "a", fullRes())
	c := startCoordinator(t, Config{now: clock.Now, HeartbeatTimeout: 100 * time.Millisecond, Faults: inj})
	front := httptest.NewServer(c)
	defer front.Close()
	joinMember(t, c, "a", ma, 0)

	clock.Advance(150 * time.Millisecond)
	if resp := postHeartbeat(t, front.URL, "a", heartbeatRequest{State: "healthy"}); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("dropped heartbeat answered %d, want 204 (indistinguishable)", resp.StatusCode)
	}
	if inj.Fires(pointHeartbeatDrop) == 0 {
		t.Fatal("drop point never fired")
	}
	c.sweep()
	c.mu.Lock()
	stale := c.members["a"].stale
	c.mu.Unlock()
	if !stale {
		t.Fatal("member stayed fresh although every beat was dropped")
	}
}

// TestClusterPushErrorFault arms cluster.push.error for a single fire:
// the failed push marks the node failed and the placement retries without
// it, landing every route on the survivor.
func TestClusterPushErrorFault(t *testing.T) {
	inj := faultinject.New(1)
	inj.Set(pointPushError, faultinject.Rule{EveryN: 1, Count: 1})
	halves := partitionResources(fullRes(), 2)
	ma := startMember(t, "a", halves[0])
	mb := startMember(t, "b", halves[1])
	c := startCoordinator(t, Config{Faults: inj})
	joinMember(t, c, "a", ma, 0)
	joinMember(t, c, "b", mb, 0)
	for i := 1; i <= 3; i++ {
		if err := c.Registry().Register(specTask(t, i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.PlaceNow(); err != nil {
		t.Fatal(err)
	}
	if inj.Fires(pointPushError) != 1 {
		t.Fatalf("push fault fired %d times, want 1", inj.Fires(pointPushError))
	}

	c.mu.Lock()
	var failed, alive []string
	for id, m := range c.members {
		if m.failed {
			failed = append(failed, id)
		} else {
			alive = append(alive, id)
		}
	}
	c.mu.Unlock()
	if len(failed) != 1 || len(alive) != 1 {
		t.Fatalf("after one push failure: failed=%v alive=%v, want one of each", failed, alive)
	}
	routes := c.routes.Load().entries
	if len(routes) == 0 {
		t.Fatal("retry placement routed nothing")
	}
	for id, e := range routes {
		if e.NodeID != alive[0] {
			t.Fatalf("%s routed to %s, want survivor %s", id, e.NodeID, alive[0])
		}
	}
	if got := c.placeErrs.Load(); got != 1 {
		t.Fatalf("placement error counter %d, want 1", got)
	}

	// The failed node's next heartbeat revives it for future placements.
	if !c.heartbeat(failed[0], heartbeatRequest{State: "healthy"}) {
		t.Fatal("heartbeat for failed node not accepted")
	}
	c.mu.Lock()
	revived := !c.members[failed[0]].failed
	c.mu.Unlock()
	if !revived {
		t.Fatal("heartbeat did not clear the failure mark")
	}
}

// TestPlacementRetryRacesRegistration re-places in a loop, every push
// failing, while another goroutine registers 200 nodes: the retry bound
// must not read the membership map outside c.mu (run under -race).
func TestPlacementRetryRacesRegistration(t *testing.T) {
	inj := faultinject.New(1)
	inj.Set(pointPushError, faultinject.Rule{EveryN: 1})
	c := startCoordinator(t, Config{Faults: inj, Debounce: time.Hour})
	res := ToWireResources(fullRes())
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			err := c.register(RegisterRequest{
				Node: fmt.Sprintf("n%03d", i), Addr: "http://127.0.0.1:1", Res: res, State: "healthy",
			})
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for registering := true; registering; {
		select {
		case <-done:
			registering = false
		default:
		}
		c.PlaceNow() // every push fails, so placements over members abort
	}
	if inj.Fires(pointPushError) == 0 {
		t.Fatal("push fault never fired")
	}
}

// TestClusterAgentLifecycle runs the real membership agent end to end:
// register (with bandwidth probe), placement of an HTTP-registered task,
// offload through the proxy, and deregistration on Close.
func TestClusterAgentLifecycle(t *testing.T) {
	m := startMember(t, "a", fullRes())
	c := startCoordinator(t, Config{})
	front := httptest.NewServer(c)
	defer front.Close()

	agent, err := StartAgent(m.srv, AgentConfig{
		Coordinator: front.URL,
		NodeID:      "a",
		Advertise:   m.ts.URL,
	})
	if err != nil {
		t.Fatal(err)
	}

	waitFor(t, 5*time.Second, "agent registration", func() bool {
		var nodes []memberInfo
		getJSON(t, front.URL+"/v1/cluster/nodes", &nodes)
		return len(nodes) == 1 && nodes[0].Node == "a" && nodes[0].BandwidthMbps > 0
	})

	task := specTask(t, 1)
	body, _ := json.Marshal(serve.TaskSpec{
		ID: task.ID, Priority: task.Priority, Rate: task.Rate,
		MinAccuracy: task.MinAccuracy, MaxLatencyMS: float64(task.MaxLatency) / float64(time.Millisecond),
		InputBits: task.InputBits, SNRdB: task.SNRdB,
	})
	resp, err := http.Post(front.URL+"/v1/tasks", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("task registration answered %d", resp.StatusCode)
	}

	waitFor(t, 5*time.Second, "debounced placement and admission", func() bool {
		resp := postOffload(t, front.URL, task.ID)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})

	agent.Close()
	waitFor(t, 5*time.Second, "deregistration on agent close", func() bool {
		var nodes []memberInfo
		getJSON(t, front.URL+"/v1/cluster/nodes", &nodes)
		return len(nodes) == 0
	})
}

// TestAgentBeatsInsideCoordinatorTimeout: an agent started with no period
// of its own beats fast enough for a coordinator whose heartbeat timeout
// is well under a second, so the failure detector never marks the
// healthy member stale.
func TestAgentBeatsInsideCoordinatorTimeout(t *testing.T) {
	m := startMember(t, "a", fullRes())
	c := startCoordinator(t, Config{HeartbeatTimeout: 300 * time.Millisecond})
	front := httptest.NewServer(c)
	defer front.Close()

	agent, err := StartAgent(m.srv, AgentConfig{Coordinator: front.URL, NodeID: "a", Advertise: m.ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	waitFor(t, 5*time.Second, "agent registration", func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.members["a"] != nil
	})

	for end := time.Now().Add(1500 * time.Millisecond); time.Now().Before(end); time.Sleep(20 * time.Millisecond) {
		c.sweep()
		c.mu.Lock()
		stale := c.members["a"].stale
		c.mu.Unlock()
		if stale {
			t.Fatal("failure detector marked a healthy, beating member stale")
		}
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestClusterMetricsLabels checks satellite 6: per-node families carry
// {node="..."} labels with HELP/TYPE metadata.
func TestClusterMetricsLabels(t *testing.T) {
	m := startMember(t, "a", fullRes())
	c := startCoordinator(t, Config{})
	front := httptest.NewServer(c)
	defer front.Close()
	joinMember(t, c, "a", m, 12.5)

	resp, err := http.Get(front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(raw)
	for _, want := range []string{
		"# HELP offloadnn_cluster_nodes ",
		"# TYPE offloadnn_cluster_nodes gauge",
		"offloadnn_cluster_nodes 1",
		"# HELP offloadnn_node_up ",
		"# TYPE offloadnn_node_up gauge",
		`offloadnn_node_up{node="a"} 1`,
		`offloadnn_node_bandwidth_mbps{node="a"} 12.5`,
		"# TYPE offloadnn_node_proxied_total counter",
	} {
		if !bytes.Contains(raw, []byte(want)) {
			t.Errorf("metrics output missing %q\n%s", want, text)
		}
	}
}
