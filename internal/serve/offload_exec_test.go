package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"offloadnn/internal/dnn"
	"offloadnn/internal/exec"
)

// realInput is newRealBackend's per-request input shape (C, H, W).
var realInput = [3]int{3, 8, 8}

func newRealBackend(t *testing.T) *exec.Real {
	t.Helper()
	be, err := exec.NewReal(exec.RealConfig{
		Model: dnn.ResNetConfig{
			InChannels: 3, NumClasses: 4, BaseWidth: 4, StageBlocks: [4]int{1, 1, 1, 1}, Seed: 9,
		},
		Input:       realInput,
		BatchSize:   4,
		BatchWindow: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return be
}

// realPayload is one deterministic frame of newRealBackend's input shape.
func realPayload() []float64 {
	in := make([]float64, realInput[0]*realInput[1]*realInput[2])
	for i := range in {
		in[i] = float64(i%11) / 11
	}
	return in
}

// TestOffloadExecutesPayload drives the full loop against the real
// backend: register → epoch → POST /v1/offload with an input tensor →
// real logits, argmax and measured latency in the response. A request
// without a payload keeps the pre-execution-layer response shape.
func TestOffloadExecutesPayload(t *testing.T) {
	be := newRealBackend(t)
	srv := newTestServer(t, Config{Debounce: time.Millisecond, Backend: be})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/v1/tasks", smallSpec(t, 1))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("register: %d %s", resp.StatusCode, drain(t, resp))
	}
	drain(t, resp)
	waitCurrent(t, ts.URL)

	// Executed offload: payload in, logits out.
	resp = postJSON(t, ts.URL+"/v1/offload", OffloadRequest{Task: "task-1", Input: realPayload()})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("offload: %d %s", resp.StatusCode, drain(t, resp))
	}
	var out OffloadResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(out.Logits) != 4 {
		t.Fatalf("executed offload returned %d logits, want 4: %+v", len(out.Logits), out)
	}
	if out.Argmax == nil || *out.Argmax < 0 || *out.Argmax > 3 {
		t.Fatalf("executed offload argmax %v, want 0..3", out.Argmax)
	}
	if out.MeasuredLatencyMS <= 0 || out.BatchSize < 1 {
		t.Fatalf("executed offload missing measurements: %+v", out)
	}
	if out.Simulated {
		t.Fatalf("real backend answered simulated: %+v", out)
	}

	// Admission probe: no payload, no logits — the PR-1 response shape.
	resp = postJSON(t, ts.URL+"/v1/offload", OffloadRequest{Task: "task-1"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("probe offload: %d %s", resp.StatusCode, drain(t, resp))
	}
	var probe OffloadResponse
	if err := json.NewDecoder(resp.Body).Decode(&probe); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if probe.Logits != nil || probe.Argmax != nil || probe.MeasuredLatencyMS != 0 {
		t.Fatalf("payload-less offload grew execution fields: %+v", probe)
	}
	if probe.Path == "" || probe.AdmittedRate <= 0 {
		t.Fatalf("payload-less offload lost planning fields: %+v", probe)
	}

	// A wrong-size payload is the client's fault, not the backend's.
	resp = postJSON(t, ts.URL+"/v1/offload", OffloadRequest{Task: "task-1", Input: []float64{1, 2}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad payload: %d, want 400 (%s)", resp.StatusCode, drain(t, resp))
	}
	drain(t, resp)

	// The executed offload shows up in the metrics exposition.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metricsBody := drain(t, mresp)
	for _, want := range []string{
		`offloadnn_infer_latency_seconds{task="task-1",quantile="0.5"}`,
		"offloadnn_batch_size",
		"offloadnn_backend_queue_depth",
		"offloadnn_backend_models",
	} {
		if !strings.Contains(metricsBody, want) {
			t.Fatalf("metrics exposition missing %q:\n%s", want, metricsBody)
		}
	}
}

// TestOffloadSimulatedDefault checks the default backend: a payload
// offload through an unconfigured server answers from the cost model —
// simulated flag set, no logits, modeled latency.
func TestOffloadSimulatedDefault(t *testing.T) {
	srv := newTestServer(t, Config{Debounce: time.Millisecond})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/v1/tasks", smallSpec(t, 1))
	drain(t, resp)
	waitCurrent(t, ts.URL)

	resp = postJSON(t, ts.URL+"/v1/offload", OffloadRequest{Task: "task-1", Input: []float64{1, 2, 3}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("offload: %d %s", resp.StatusCode, drain(t, resp))
	}
	var out OffloadResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !out.Simulated {
		t.Fatalf("default backend did not mark output simulated: %+v", out)
	}
	if out.Logits != nil {
		t.Fatalf("cost model produced logits: %+v", out)
	}
	if out.MeasuredLatencyMS <= 0 {
		t.Fatalf("simulated offload lost its modeled latency: %+v", out)
	}
}

// TestBackendInstallTracksEpochs asserts the resolver drives the backend
// lifecycle: models exist while tasks are deployed and are released when
// the registry empties.
func TestBackendInstallTracksEpochs(t *testing.T) {
	be := newRealBackend(t)
	srv := newTestServer(t, Config{Debounce: time.Millisecond, Backend: be})

	spec := smallSpec(t, 1)
	if err := srv.Register(spec.Task(), nil); err != nil {
		t.Fatal(err)
	}
	if err := srv.ResolveNow(); err != nil {
		t.Fatal(err)
	}
	if st := be.Stats(); st.Models == 0 || st.Blocks == 0 {
		t.Fatalf("deployed epoch left the backend empty: %+v", st)
	}
	if err := srv.Deregister(spec.ID); err != nil {
		t.Fatal(err)
	}
	if err := srv.ResolveNow(); err != nil {
		t.Fatal(err)
	}
	if st := be.Stats(); st.Models != 0 || st.Blocks != 0 {
		t.Fatalf("empty registry left models installed: %+v", st)
	}
}

// overflowPayload is a well-formed frame of ±1e308 pixels: finite, so it
// passes input validation, but no model's logits survive it.
func overflowPayload() []float64 {
	in := realPayload()
	for i := range in {
		in[i] = 1e308
		if i%2 == 1 {
			in[i] = -1e308
		}
	}
	return in
}

// TestOffloadNonFiniteLogitsRefused pins the answer to an executed frame
// whose logits are NaN or ±Inf, which JSON cannot carry: 400
// invalid_request naming the task, not a 200 with an empty body.
func TestOffloadNonFiniteLogitsRefused(t *testing.T) {
	srv := newTestServer(t, Config{Debounce: time.Millisecond, Backend: newRealBackend(t)})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	drain(t, postJSON(t, ts.URL+"/v1/tasks", smallSpec(t, 1)))
	waitCurrent(t, ts.URL)

	resp := postJSON(t, ts.URL+"/v1/offload", OffloadRequest{Task: "task-1", Input: overflowPayload()})
	body := drain(t, resp)
	var env errorBody
	if err := json.Unmarshal([]byte(body), &env); err != nil || resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("overflowing frame: %d %q, want 400 with the error envelope", resp.StatusCode, body)
	}
	if env.Error.Code != CodeInvalidRequest || !strings.Contains(env.Error.Message, `"task-1"`) {
		t.Fatalf("overflowing frame: error %+v, want %s naming task-1", env.Error, CodeInvalidRequest)
	}
}

// TestWriteJSONEncodesBeforeStatus: a value JSON cannot encode is answered
// 500 with the error envelope, never with the status asked for and no body.
func TestWriteJSONEncodesBeforeStatus(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteJSON(rec, http.StatusOK, OffloadResponse{Task: "t", Logits: []float64{math.Inf(1)}})
	var env errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || rec.Code != http.StatusInternalServerError {
		t.Fatalf("unencodable response: %d %q, want 500 with the error envelope", rec.Code, rec.Body.String())
	}
	if env.Error.Code != CodeBackend || env.Error.Message == "" {
		t.Fatalf("unencodable response: error %+v, want %s with a message", env.Error, CodeBackend)
	}
}
