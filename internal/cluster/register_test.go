package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"testing"
	"time"
)

// quietCoordinator is a coordinator whose clock stands still and whose
// placement never fires on its own, so only requests change its member
// list.
func quietCoordinator(t testing.TB) *Coordinator {
	start := time.Unix(1_700_000_000, 0)
	return startCoordinator(t, Config{Debounce: time.Hour, HeartbeatTimeout: time.Hour, now: func() time.Time { return start }})
}

// serveCoordinator answers one request through the coordinator's routes.
func serveCoordinator(c *Coordinator, method, target string, body []byte) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	c.ServeHTTP(w, httptest.NewRequest(method, target, bytes.NewReader(body)))
	return w
}

// nodeList is GET /v1/cluster/nodes, decoded.
func nodeList(t testing.TB, c *Coordinator) []memberInfo {
	t.Helper()
	w := serveCoordinator(c, http.MethodGet, "/v1/cluster/nodes", nil)
	var out []memberInfo
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatalf("node list %d: %v", w.Code, err)
	}
	return out
}

// checkNodes fails when a listed node's budgets break the rule
// core.Instance.Validate applies to a pool, when its address is no
// http(s) URL with a host, or when its peer rates name anything but
// another member.
func checkNodes(t testing.TB, c *Coordinator) {
	t.Helper()
	for _, n := range nodeList(t, c) {
		res := n.Res.budgets()
		res.Capacity = c.cfg.Capacity
		if err := res.Validate(); err != nil {
			t.Fatalf("node %s was accepted with budgets %+v: %v", n.Node, n.Res, err)
		}
		if u, err := url.Parse(n.Addr); err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			t.Fatalf("node %s was accepted at address %q", n.Node, n.Addr)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for id, m := range c.members {
		for peer := range m.peerMbps {
			if _, ok := c.members[peer]; !ok || peer == id {
				t.Fatalf("node %s holds a rate for %q, no other member", id, peer)
			}
		}
	}
}

// TestRegisterRefusesUnreachableAddr: an address no plan push can reach
// answers 400 and lists no node.
func TestRegisterRefusesUnreachableAddr(t *testing.T) {
	for _, addr := range []string{"not a url at all", "127.0.0.1:1", "ftp://127.0.0.1:1", "http://", "http:///v1"} {
		c := quietCoordinator(t)
		req := RegisterRequest{Node: "a", Addr: addr, Res: ToWireResources(fullRes()), State: "healthy"}
		if w := serveCoordinator(c, http.MethodPost, "/v1/cluster/nodes", mustJSON(t, req)); w.Code != http.StatusBadRequest {
			t.Fatalf("address %q answered %d (%s), want 400", addr, w.Code, w.Body)
		}
		if n := len(nodeList(t, c)); n != 0 {
			t.Fatalf("address %q: %d nodes listed after a 400", addr, n)
		}
	}
}

// TestUnknownNodeCode: a heartbeat or leave for a node that is not
// registered answers 404 unknown_node, not a task's code.
func TestUnknownNodeCode(t *testing.T) {
	c := quietCoordinator(t)
	for _, w := range []*httptest.ResponseRecorder{
		serveCoordinator(c, http.MethodPost, "/v1/cluster/nodes/ghost/heartbeat", mustJSON(t, heartbeatRequest{State: "healthy"})),
		serveCoordinator(c, http.MethodDelete, "/v1/cluster/nodes/ghost", nil),
	} {
		if w.Code != http.StatusNotFound || errorCode(t, w.Body.Bytes()) != "unknown_node" {
			t.Fatalf("unknown node answered %d %s", w.Code, w.Body)
		}
	}
}

// TestHeartbeatIgnoresUnknownPeers: one beat naming 5 000 peers that are
// not members stores none of them and kicks no re-placement; a rate for
// a member stays until that member leaves.
func TestHeartbeatIgnoresUnknownPeers(t *testing.T) {
	c := quietCoordinator(t)
	for _, id := range []string{"a", "b"} {
		req := RegisterRequest{Node: id, Addr: "http://127.0.0.1:1", Res: ToWireResources(fullRes()), BandwidthMbps: 100, State: "healthy"}
		if w := serveCoordinator(c, http.MethodPost, "/v1/cluster/nodes", mustJSON(t, req)); w.Code != http.StatusOK {
			t.Fatalf("registration of %s answered %d: %s", id, w.Code, w.Body)
		}
	}
	// Drain the registrations' kicks: the beat must add none.
	for len(c.kick) > 0 {
		<-c.kick
	}
	peers := make(map[string]float64, 5001)
	for i := 0; i < 5000; i++ {
		peers[fmt.Sprintf("ghost-%d", i)] = 40
	}
	peers["a"] = 40 // the sender itself
	beat := heartbeatRequest{State: "healthy", BandwidthMbps: 100, Peers: peers}
	if w := serveCoordinator(c, http.MethodPost, "/v1/cluster/nodes/a/heartbeat", mustJSON(t, beat)); w.Code != http.StatusOK {
		t.Fatalf("heartbeat answered %d: %s", w.Code, w.Body)
	}
	c.mu.Lock()
	n := len(c.members["a"].peerMbps)
	c.mu.Unlock()
	if n != 0 {
		t.Fatalf("a beat of unknown peers left %d entries", n)
	}
	if len(c.kick) != 0 {
		t.Fatal("a beat of unknown peers kicked a re-placement")
	}

	beat.Peers = map[string]float64{"b": 40}
	if w := serveCoordinator(c, http.MethodPost, "/v1/cluster/nodes/a/heartbeat", mustJSON(t, beat)); w.Code != http.StatusOK {
		t.Fatalf("heartbeat answered %d: %s", w.Code, w.Body)
	}
	c.mu.Lock()
	_, held := c.members["a"].peerMbps["b"]
	c.mu.Unlock()
	if !held {
		t.Fatal("a member's peer rate was not recorded")
	}
	if w := serveCoordinator(c, http.MethodDelete, "/v1/cluster/nodes/b", nil); w.Code != http.StatusNoContent {
		t.Fatalf("leave answered %d: %s", w.Code, w.Body)
	}
	c.mu.Lock()
	n = len(c.members["a"].peerMbps)
	c.mu.Unlock()
	if n != 0 {
		t.Fatalf("a departed member's rate outlived it: %d entries", n)
	}
}

// registerBodies are what a member sends to POST /v1/cluster/nodes: the
// registration joinMember makes, the agent's (which adds an epoch), and
// one whose memory budget is negative.
func registerBodies(t testing.TB) (joined, agent, negative []byte) {
	t.Helper()
	req := RegisterRequest{Node: "a", Addr: "http://127.0.0.1:1", Res: ToWireResources(fullRes()), BandwidthMbps: 100, State: "healthy"}
	joined = mustJSON(t, req)
	req.Epoch = 3
	agent = mustJSON(t, req)
	req.Node, req.Res.MemoryGB = "b", -1
	negative = mustJSON(t, req)
	return joined, agent, negative
}

// TestRegisterRefusesBudgetsValidateRefuses pins registration to the
// pool rule the solver applies: budgets core.Instance.Validate refuses
// answer 400 and list no node, and so do zero radio or compute.
func TestRegisterRefusesBudgetsValidateRefuses(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*WireResources)
		want int
	}{
		{"table-iv", func(*WireResources) {}, http.StatusOK},
		{"no memory", func(r *WireResources) { r.MemoryGB = 0 }, http.StatusOK},
		{"negative memory", func(r *WireResources) { r.MemoryGB = -1 }, http.StatusBadRequest},
		{"negative compute", func(r *WireResources) { r.ComputeSeconds = -1 }, http.StatusBadRequest},
		{"negative radio", func(r *WireResources) { r.RBs = -1 }, http.StatusBadRequest},
		{"no train budget", func(r *WireResources) { r.TrainBudgetSeconds = 0 }, http.StatusBadRequest},
		{"no radio", func(r *WireResources) { r.RBs = 0 }, http.StatusBadRequest},
		{"no compute", func(r *WireResources) { r.ComputeSeconds = 0 }, http.StatusBadRequest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := quietCoordinator(t)
			req := RegisterRequest{Node: "a", Addr: "http://127.0.0.1:1", Res: ToWireResources(fullRes()), State: "healthy"}
			tc.edit(&req.Res)
			w := serveCoordinator(c, http.MethodPost, "/v1/cluster/nodes", mustJSON(t, req))
			if w.Code != tc.want {
				t.Fatalf("registration answered %d (%s), want %d", w.Code, w.Body, tc.want)
			}
			if n := len(nodeList(t, c)); (n == 1) != (tc.want == http.StatusOK) {
				t.Fatalf("%d nodes listed after a %d", n, w.Code)
			}
		})
	}
}

// FuzzRegister drives arbitrary bodies through POST /v1/cluster/nodes.
// The coordinator answers only 200 or 400, never panics, leaves its node
// list alone on a refusal, and lists only budgets that pass the solver's
// pool rule at http(s) addresses with a host.
func FuzzRegister(f *testing.F) {
	joined, agent, negative := registerBodies(f)
	f.Add(joined)
	f.Add(agent)
	f.Add(negative)
	c := quietCoordinator(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		before := nodeList(t, c)
		w := serveCoordinator(c, http.MethodPost, "/v1/cluster/nodes", body)
		switch w.Code {
		case http.StatusOK:
			checkNodes(t, c)
		case http.StatusBadRequest:
			if after := nodeList(t, c); !reflect.DeepEqual(before, after) {
				t.Fatalf("refused registration changed the nodes: %+v → %+v", before, after)
			}
		default:
			t.Fatalf("registration answered %d: %s", w.Code, w.Body)
		}
	})
}

// FuzzHeartbeat drives arbitrary bodies through a heartbeat of a
// registered and of an unknown node. The coordinator answers only 200,
// 204, 400 or 404 (unknown_node), never panics, leaves its node list
// alone on a 400 or 404, a beat never lets a node's budgets break the
// pool rule, and a node holds peer rates only for other members.
func FuzzHeartbeat(f *testing.F) {
	joined, _, negative := registerBodies(f)
	f.Add(true, mustJSON(f, heartbeatRequest{State: "healthy", Epoch: 4, BandwidthMbps: 80, Peers: map[string]float64{"b": 40}}))
	f.Add(false, mustJSON(f, heartbeatRequest{State: "degraded"}))
	f.Add(true, negative)
	c := quietCoordinator(f)
	if w := serveCoordinator(c, http.MethodPost, "/v1/cluster/nodes", joined); w.Code != http.StatusOK {
		f.Fatalf("registration answered %d: %s", w.Code, w.Body)
	}
	f.Fuzz(func(t *testing.T, known bool, body []byte) {
		node := "ghost"
		if known {
			node = "a"
		}
		before := nodeList(t, c)
		w := serveCoordinator(c, http.MethodPost, "/v1/cluster/nodes/"+node+"/heartbeat", body)
		switch w.Code {
		case http.StatusOK, http.StatusNoContent:
			checkNodes(t, c)
		case http.StatusBadRequest, http.StatusNotFound:
			if w.Code == http.StatusNotFound && errorCode(t, w.Body.Bytes()) != "unknown_node" {
				t.Fatalf("heartbeat of %s answered 404 %s", node, w.Body)
			}
			if after := nodeList(t, c); !reflect.DeepEqual(before, after) {
				t.Fatalf("refused heartbeat changed the nodes: %+v → %+v", before, after)
			}
		default:
			t.Fatalf("heartbeat answered %d: %s", w.Code, w.Body)
		}
	})
}
