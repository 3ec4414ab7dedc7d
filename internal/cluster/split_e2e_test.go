package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"offloadnn/internal/core"
	"offloadnn/internal/dnn"
	"offloadnn/internal/exec"
	"offloadnn/internal/radio"
	"offloadnn/internal/serve"
)

// startRealMember is startMember with a tensor-backed execution layer:
// split-path acceptance needs real logits to compare bit-for-bit.
func startRealMember(t *testing.T, id string, memGB float64) *liveMember {
	t.Helper()
	backend, err := exec.NewReal(exec.RealConfig{BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(serve.Config{
		Res: core.Resources{
			RBs:                50,
			ComputeSeconds:     2.5,
			MemoryGB:           memGB,
			TrainBudgetSeconds: 1000,
			Capacity:           radio.PaperRate(),
		},
		Alpha:    0.5,
		Node:     id,
		Debounce: 10 * time.Millisecond,
		Backend:  backend,
	})
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

// e2eFrame mirrors the exec split tests' deterministic input.
func e2eFrame() []float64 {
	frame := make([]float64, 3*8*8)
	for i := range frame {
		frame[i] = float64((i*7+13)%29)/29 - 0.5
	}
	return frame
}

func postOffloadJSON(t *testing.T, baseURL string, req serve.OffloadRequest) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(baseURL+"/v1/offload", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func errorCode(t testing.TB, body []byte) string {
	t.Helper()
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("error envelope: %v (%s)", err, body)
	}
	return env.Error.Code
}

// TestClusterSplitEndToEnd is the PR's acceptance scenario over live
// HTTP: a model whose only path exceeds every node's memory is
// inadmissible on a 1-node cluster, but a 2-node cluster serves it
// end-to-end through a split pipeline, with logits bit-identical to a
// single full-memory server and the deadline budget enforced across
// hops.
func TestClusterSplitEndToEnd(t *testing.T) {
	tasks, blocks := splitScenario()
	frame := e2eFrame()

	// Reference: one standalone server with memory for the whole path.
	refBackend, err := exec.NewReal(exec.RealConfig{BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := serve.New(serve.Config{
		Res: core.Resources{
			RBs:                50,
			ComputeSeconds:     2.5,
			MemoryGB:           2,
			TrainBudgetSeconds: 1000,
			Capacity:           radio.PaperRate(),
		},
		Alpha:    0.5,
		Node:     "ref",
		Debounce: 10 * time.Millisecond,
		Backend:  refBackend,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if err := ref.Registry().Register(tasks[0], blocks); err != nil {
		t.Fatal(err)
	}
	if err := ref.ResolveNow(); err != nil {
		t.Fatal(err)
	}
	refTS := httptest.NewServer(ref)
	defer refTS.Close()
	status, body := postOffloadJSON(t, refTS.URL, serve.OffloadRequest{Task: "big", Input: frame})
	if status != http.StatusOK {
		t.Fatalf("standalone reference offload: %d %s", status, body)
	}
	var refResp serve.OffloadResponse
	if err := json.Unmarshal(body, &refResp); err != nil {
		t.Fatal(err)
	}
	if len(refResp.Logits) == 0 || refResp.Simulated {
		t.Fatalf("standalone reference produced no real logits: %+v", refResp)
	}

	// 1-node cluster: 0.7 GB cannot hold the 1.2 GB path and there is no
	// peer to split onto — the task must be refused, not served.
	soloMember := startRealMember(t, "solo", 0.7)
	solo := startCoordinator(t, Config{})
	if err := solo.Registry().Register(tasks[0], blocks); err != nil {
		t.Fatal(err)
	}
	joinMember(t, solo, "solo", soloMember, 100)
	if err := solo.PlaceNow(); err != nil {
		t.Fatal(err)
	}
	soloFront := httptest.NewServer(solo)
	defer soloFront.Close()
	status, body = postOffloadJSON(t, soloFront.URL, serve.OffloadRequest{Task: "big", Input: frame})
	if status != http.StatusTooManyRequests {
		t.Fatalf("1-node cluster answered %d (%s), want 429 not_admitted", status, body)
	}
	if code := errorCode(t, body); code != serve.CodeNotAdmitted {
		t.Fatalf("1-node cluster error code %q, want %q", code, serve.CodeNotAdmitted)
	}

	// 2-node cluster: the same task must split 2|2 across the members and
	// serve end-to-end through the coordinator proxy.
	ma := startRealMember(t, "a", 0.7)
	mb := startRealMember(t, "b", 0.7)
	c := startCoordinator(t, Config{})
	if err := c.Registry().Register(tasks[0], blocks); err != nil {
		t.Fatal(err)
	}
	joinMember(t, c, "a", ma, 100)
	joinMember(t, c, "b", mb, 100)
	if err := c.PlaceNow(); err != nil {
		t.Fatal(err)
	}
	members := map[string]*liveMember{"a": ma, "b": mb}
	var head, tail *liveMember
	for _, m := range members {
		for _, sp := range m.srv.Segments() {
			switch {
			case sp.Task == "big" && sp.From == 0:
				head = m
			case sp.Task == "big" && sp.From == 2:
				tail = m
			}
		}
	}
	if head == nil || tail == nil || head == tail {
		t.Fatalf("segments not installed across both members (head %p tail %p)", head, tail)
	}

	front := httptest.NewServer(c)
	defer front.Close()
	// Both nodes passed the placement's post-condition with their
	// segments reserved: /healthz names no dropped node.
	if pl, _ := getHealth(t, front.URL)["placement"].(map[string]any); pl == nil || pl["errors"] != nil {
		t.Fatalf("coordinator /healthz placement %v, want no errors", pl)
	}
	status, body = postOffloadJSON(t, front.URL, serve.OffloadRequest{Task: "big", Input: frame})
	if status != http.StatusOK {
		t.Fatalf("2-node split offload: %d %s", status, body)
	}
	var split serve.OffloadResponse
	if err := json.Unmarshal(body, &split); err != nil {
		t.Fatal(err)
	}
	if split.Simulated {
		t.Fatal("split response claims a simulated backend")
	}
	if len(split.Hops) != 2 {
		t.Fatalf("hops %+v, want 2 entries", split.Hops)
	}
	if split.Hops[0].Node == split.Hops[1].Node {
		t.Fatalf("both hops on node %q", split.Hops[0].Node)
	}
	if split.Hops[0].ActivationBytes <= 0 {
		t.Errorf("head hop shipped %d activation bytes, want positive", split.Hops[0].ActivationBytes)
	}
	if len(split.Logits) != len(refResp.Logits) {
		t.Fatalf("split logits len %d, reference %d", len(split.Logits), len(refResp.Logits))
	}
	for i := range split.Logits {
		if split.Logits[i] != refResp.Logits[i] {
			t.Fatalf("logit %d: split %v != standalone %v (bit-identical required)", i, split.Logits[i], refResp.Logits[i])
		}
	}
	if split.Argmax == nil || refResp.Argmax == nil || *split.Argmax != *refResp.Argmax {
		t.Fatalf("argmax: split %v, standalone %v", split.Argmax, refResp.Argmax)
	}
	if split.DeadlineMS <= 0 || split.DeadlineMS > 500 {
		t.Errorf("pipeline deadline budget %.1fms outside (0, 500]", split.DeadlineMS)
	}
	if split.MeasuredLatencyMS <= 0 {
		t.Errorf("measured pipeline latency %.3fms, want positive", split.MeasuredLatencyMS)
	}

	// Deadline enforcement at the head: a budget no real inference can
	// meet sheds at the first segment with the single-node 504 code.
	status, body = postOffloadJSON(t, front.URL, serve.OffloadRequest{Task: "big", Input: frame, DeadlineMS: 1e-6})
	if status != http.StatusGatewayTimeout {
		t.Fatalf("1ns-deadline offload answered %d (%s), want 504", status, body)
	}
	if code := errorCode(t, body); code != serve.CodeDeadline && code != serve.CodeDeadlineHop {
		t.Fatalf("1ns-deadline error code %q, want a deadline code", code)
	}

	// Deadline enforcement across hops: an envelope that arrives at the
	// tail with its budget already spent is shed with the @hop code.
	shape := dnn.SegmentBoundaryShape(dnn.DefaultResNetConfig(), [3]int{3, 8, 8}, 2)
	man := dnn.ActivationManifest{
		Task:        "big",
		Path:        "split/full",
		From:        2,
		Shape:       shape,
		RemainingMS: -5,
		BudgetMS:    500,
		Hops:        []dnn.ActivationHop{{Node: "a", LatencyMS: 501}},
	}
	var buf bytes.Buffer
	if err := dnn.EncodeActivation(&buf, man, make([]float64, shape[0]*shape[1]*shape[2])); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(tail.ts.URL+"/v1/stage", "application/octet-stream", &buf)
	if err != nil {
		t.Fatal(err)
	}
	stageBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("spent-budget stage handoff answered %d (%s), want 504", resp.StatusCode, stageBody)
	}
	if code := errorCode(t, stageBody); code != serve.CodeDeadlineHop {
		t.Fatalf("spent-budget stage error code %q, want %q", code, serve.CodeDeadlineHop)
	}

	// Killing the tail forces a re-placement; with one surviving 0.7 GB
	// node the split is no longer feasible and the route must be dropped
	// rather than left pointing into a dead pipeline.
	tail.ts.Close()
	if err := c.PlaceNow(); err != nil {
		t.Fatal(err)
	}
	status, body = postOffloadJSON(t, front.URL, serve.OffloadRequest{Task: "big", Input: frame})
	if status != http.StatusTooManyRequests {
		t.Fatalf("post-failure offload answered %d (%s), want 429 not_admitted", status, body)
	}
	if code := errorCode(t, body); code != serve.CodeNotAdmitted {
		t.Fatalf("post-failure error code %q, want %q", code, serve.CodeNotAdmitted)
	}
}

// TestClusterNonFiniteLogitsRefused drives a frame whose logits overflow
// (finite ±1e308 pixels) through the coordinator and a two-hop split
// pipeline: the tail refuses it 400 invalid_request naming the task, and
// the head and the coordinator relay that refusal — not a tail 200 with
// an empty body, which the head could only turn into a 502.
func TestClusterNonFiniteLogitsRefused(t *testing.T) {
	tasks, blocks := splitScenario()
	ma, mb := startRealMember(t, "a", 0.7), startRealMember(t, "b", 0.7)
	c := startCoordinator(t, Config{})
	if err := c.Registry().Register(tasks[0], blocks); err != nil {
		t.Fatal(err)
	}
	joinMember(t, c, "a", ma, 100)
	joinMember(t, c, "b", mb, 100)
	if err := c.PlaceNow(); err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(c)
	defer front.Close()

	frame := e2eFrame()
	for i := range frame {
		frame[i] = 1e308
		if i%2 == 1 {
			frame[i] = -1e308
		}
	}
	status, body := postOffloadJSON(t, front.URL, serve.OffloadRequest{Task: "big", Input: frame})
	if status != http.StatusBadRequest {
		t.Fatalf("overflowing frame through the pipeline: %d %q, want 400", status, body)
	}
	if code := errorCode(t, body); code != serve.CodeInvalidRequest || !bytes.Contains(body, []byte(`task \"big\"`)) {
		t.Fatalf("overflowing frame through the pipeline: %s, want %s naming task big", body, serve.CodeInvalidRequest)
	}
}
