package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"offloadnn/internal/core"
	"offloadnn/internal/dnn"
	"offloadnn/internal/exec"
	"offloadnn/internal/workload"
)

// admitsAcrossEpochs registers small tasks 1–2 on an injected clock, lets
// task-1 drain its 5-token bucket, then publishes ten epochs inside
// 200 ms — churn edits the registry before each and returns the rate
// task-1 must come out admitted at — and returns how many more task-1
// offloads were admitted along the way.
func admitsAcrossEpochs(t *testing.T, churn func(srv *Server, i int) (float64, error)) int {
	t.Helper()
	clock := newFakeClock()
	srv := newTestServer(t, Config{Debounce: time.Hour, now: clock.Now})
	registerSmall(t, srv, 2)
	if err := srv.ResolveNow(); err != nil {
		t.Fatal(err)
	}
	burst := 0
	for offloadRec(srv, "task-1").Code == http.StatusOK {
		burst++
	}
	if burst != 5 {
		t.Fatalf("task-1's first bucket admitted %d offloads, the scenario wants 5", burst)
	}
	first, admits := srv.Current().N, 0
	for i := 0; i < 10; i++ {
		clock.Advance(20 * time.Millisecond)
		rate, err := churn(srv, i)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.ResolveNow(); err != nil {
			t.Fatal(err)
		}
		if got := srv.Current().admittedRate("task-1"); got != rate {
			t.Fatalf("epoch %d admits task-1 at %v/s, the scenario wants %v", srv.Current().N, got, rate)
		}
		for offloadRec(srv, "task-1").Code == http.StatusOK {
			admits++
		}
	}
	if got := srv.Current().N - first; got != 10 {
		t.Fatalf("%d epochs published, want 10", got)
	}
	return admits
}

// TestEpochChurnKeepsGateBucket: a publish must not re-grant a task its
// burst. Churning an unrelated task leaves z·λ = 5/s, which refills one
// token in the 200 ms window, so at most one more request may pass.
func TestEpochChurnKeepsGateBucket(t *testing.T) {
	other, err := workload.SmallTask(2)
	if err != nil {
		t.Fatal(err)
	}
	admits := admitsAcrossEpochs(t, func(srv *Server, i int) (float64, error) {
		if i%2 == 0 {
			return 5, srv.Deregister(other.ID)
		}
		return 5, srv.Register(other, nil)
	})
	if admits > 1 {
		t.Fatalf("%d offloads admitted across 10 epochs in 200 ms, want at most 1", admits)
	}
}

// TestGateRateChangeMintsNoBurst: a publish that moves the task's own
// admitted rate must not re-grant the burst either. Alternating it
// between 6/s and 5/s, the bucket carried across refills at most
// 0.2 s × 6/s, so no more than two requests may pass.
func TestGateRateChangeMintsNoBurst(t *testing.T) {
	task, err := workload.SmallTask(1)
	if err != nil {
		t.Fatal(err)
	}
	admits := admitsAcrossEpochs(t, func(srv *Server, i int) (float64, error) {
		task.Rate = 6 - float64(i%2)
		if err := srv.Deregister(task.ID); err != nil {
			return 0, err
		}
		return task.Rate, srv.Register(task, nil)
	})
	if admits > 2 {
		t.Fatalf("%d offloads admitted across 10 rate changes in 200 ms, want at most 2", admits)
	}
}

// specsFor prices the given blocks the way a coordinator's push carries
// their specs, merged into base: a pushed segment is charged to the node.
func specsFor(base map[string]core.BlockSpec, ids []string) map[string]core.BlockSpec {
	out := maps.Clone(base)
	if out == nil {
		out = make(map[string]core.BlockSpec, len(ids))
	}
	for _, id := range ids {
		out[id] = core.BlockSpec{ID: id, ComputeSeconds: 1e-4, MemoryGB: 0.01}
	}
	return out
}

// TestWindowReadsPushedSegmentRate: a pushed mid-path segment's batch
// window follows the rate the coordinator pushed with it. At 2 000/s a
// 1 ms window expects two arrivals and waits; at 10/s it does not.
func TestWindowReadsPushedSegmentRate(t *testing.T) {
	be := newRealBackend(t)
	srv := newTestServer(t, Config{Debounce: time.Hour, Backend: be})
	blocks := []string{"prop/s1", "prop/s2", "prop/s3", "prop/s4"}
	shape := dnn.SegmentBoundaryShape(dnn.ResNetConfig{BaseWidth: 4}, [3]int{3, 8, 8}, 2)
	act := make([]float64, shape[0]*shape[1]*shape[2])
	for _, tc := range []struct {
		rate float64
		want time.Duration
	}{{2000, time.Millisecond}, {10, 0}} {
		if _, err := srv.ReplacePlan(nil, specsFor(nil, blocks), nil, []SegmentSpec{
			{Task: "t", Path: "prop/π", DNN: "prop", Blocks: blocks, From: 2, To: 4, Rate: tc.rate, Hop: 1, Hops: 2},
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := be.Infer(context.Background(), exec.Request{TaskID: "t", FromStage: 2, Input: act}); err != nil {
			t.Fatal(err)
		}
		if got := be.Stats().LastWindow; got != tc.want {
			t.Fatalf("segment pushed at %v/s: window %v, want %v", tc.rate, got, tc.want)
		}
	}
}

// hopStub is a next hop: it records the envelope it was handed and
// answers with a canned status and body.
type hopStub struct {
	mu     sync.Mutex
	status int
	body   string
	calls  int
	man    dnn.ActivationManifest
}

func (h *hopStub) reset(status int, body string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.status, h.body, h.calls, h.man = status, body, 0, dnn.ActivationManifest{}
}

func (h *hopStub) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	man, _, err := dnn.DecodeActivation(r.Body)
	h.mu.Lock()
	defer h.mu.Unlock()
	h.calls++
	h.man = man
	if err != nil || r.URL.Path != "/v1/stage" {
		http.Error(w, "bad relay", http.StatusTeapot)
		return
	}
	w.WriteHeader(h.status)
	io.WriteString(w, h.body)
}

// steppingBackend advances the injected clock by step after every
// executed request: the time the unit's range "took". It sheds the
// frames of task late as the deadline-aware runtime would.
type steppingBackend struct {
	exec.Backend
	clock *fakeClock
	step  time.Duration
	late  string
}

func (b *steppingBackend) Infer(ctx context.Context, req exec.Request) (exec.Output, error) {
	out, err := b.Backend.Infer(ctx, req)
	b.clock.Advance(b.step)
	if b.late != "" && req.TaskID == b.late {
		return exec.Output{}, fmt.Errorf("%w: %s", exec.ErrLate, req.TaskID)
	}
	return out, err
}

// TestLatencySummaryIsMeasured: offloadnn_latency_seconds holds what a
// whole-path frame took on this node, admission to answer, not the
// latency its plan priced; an admission probe and a shed frame add no
// sample.
func TestLatencySummaryIsMeasured(t *testing.T) {
	clock := newFakeClock()
	const took = 37 * time.Millisecond
	be := &steppingBackend{Backend: exec.NewSimulated(), clock: clock, step: took, late: "task-2"}
	srv := newTestServer(t, Config{Debounce: time.Hour, now: clock.Now, Backend: be})
	registerSmall(t, srv, 2)
	if err := srv.ResolveNow(); err != nil {
		t.Fatal(err)
	}
	if u := srv.Current().unit("task-1", 0); u == nil || u.planned == took {
		t.Fatalf("task-1's plan must admit it at a latency other than %v: %+v", took, u)
	}
	for _, tc := range []struct {
		body   string
		status int
	}{
		{`{"task":"task-1"}`, http.StatusOK},
		{`{"task":"task-1","input":[1,2,3],"deadline_ms":-1}`, http.StatusOK},
		{`{"task":"task-2","input":[1,2,3],"deadline_ms":-1}`, http.StatusGatewayTimeout},
	} {
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/offload", strings.NewReader(tc.body)))
		if w.Code != tc.status {
			t.Fatalf("%s: status %d, want %d: %s", tc.body, w.Code, tc.status, w.Body)
		}
	}
	text := getMetricsBody(t, srv)
	for _, want := range []string{"offloadnn_latency_samples 1\n", `offloadnn_latency_seconds{quantile="0.5"} 0.037` + "\n"} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape lacks %q:\n%s", want, text)
		}
	}
}

// TestRequestPipelineEveryUnitKind drives the one request pipeline
// through /v1/offload and /v1/stage for each kind of unit a node can
// hold — a whole path, the head of a two-segment pipeline, a middle
// segment and a tail — against a stub next hop.
func TestRequestPipelineEveryUnitKind(t *testing.T) {
	// The backend compares deadlines against the wall clock, so the
	// injected clock starts there; only this test moves it.
	clock := &fakeClock{t: time.Now()}
	be := &steppingBackend{Backend: newRealBackend(t), clock: clock}
	srv := newTestServer(t, Config{Debounce: time.Hour, now: clock.Now, Backend: be, Node: "n1"})
	hop := &hopStub{}
	next := httptest.NewServer(hop)
	defer next.Close()

	registerSmall(t, srv, 1)
	const path = "prop/π"
	blocks := []string{"prop/s1", "prop/s2", "prop/s3", "prop/s4"}
	const hourMS = 3.6e6
	regTasks, regBlocks, _ := srv.Registry().Snapshot()
	if _, err := srv.ReplacePlan(regTasks, specsFor(regBlocks, blocks), nil, []SegmentSpec{
		{Task: "h", Path: path, DNN: "prop", Blocks: blocks, From: 0, To: 2, Rate: 5, BudgetMS: hourMS, Hop: 0, Hops: 2, Next: next.URL, NextNode: "n2"},
		{Task: "m", Path: path, DNN: "prop", Blocks: blocks, From: 1, To: 3, Hop: 1, Hops: 3, Next: next.URL, NextNode: "n2"},
		{Task: "t", Path: path, DNN: "prop", Blocks: blocks, From: 2, To: 4, Hop: 1, Hops: 2},
	}); err != nil {
		t.Fatal(err)
	}

	frame := realPayload()
	offload := func(task string, input []float64) *http.Request {
		body, err := json.Marshal(OffloadRequest{Task: task, Input: input})
		if err != nil {
			t.Fatal(err)
		}
		return httptest.NewRequest(http.MethodPost, "/v1/offload", bytes.NewReader(body))
	}
	upstream := []dnn.ActivationHop{{Node: "n0", LatencyMS: 1.5, ActivationBytes: 64}}
	// stage builds a /v1/stage request entering `from` with an activation
	// of the right size for that boundary unless elems overrides it.
	stage := func(task, pathID string, from, elems int, remainingMS float64) *http.Request {
		shape := dnn.SegmentBoundaryShape(dnn.ResNetConfig{BaseWidth: 4}, [3]int{3, 8, 8}, from)
		if elems > 0 {
			shape = [3]int{1, 1, elems}
		}
		var buf bytes.Buffer
		man := dnn.ActivationManifest{Task: task, Path: pathID, From: from, Shape: shape,
			RemainingMS: remainingMS, BudgetMS: hourMS, Hops: upstream}
		if err := dnn.EncodeActivation(&buf, man, make([]float64, shape[0]*shape[1]*shape[2])); err != nil {
			t.Fatal(err)
		}
		return httptest.NewRequest(http.MethodPost, "/v1/stage", &buf)
	}
	tailAnswer := `{"task":"h","epoch":9,"admitted_rate":5,"latency_ms":0,"batch_size":3,"logits":[0.5,2,1,0],"argmax":1,` +
		`"hops":[{"node":"n1","latency_ms":1},{"node":"n2","latency_ms":2}]}`
	shed503 := `{"error":{"code":"overloaded","message":"downstream  shed"}}` + "\n"
	late504 := `{"error":{"code":"deadline_exceeded@hop","message":"downstream late"}}`

	for _, tc := range []struct {
		name string
		req  *http.Request
		// step is how long the unit's range takes on the injected clock.
		step time.Duration
		// hopStatus/hopBody are the stub's answer; hopCalls how often the
		// pipeline must reach it.
		hopStatus int
		hopBody   string
		hopCalls  int
		status    int
		code      string // error-envelope code, "" for a 200
		check     func(t *testing.T, raw string, out OffloadResponse)
	}{
		{name: "whole 200", req: offload("task-1", frame), status: 200,
			check: func(t *testing.T, raw string, out OffloadResponse) {
				if len(out.Logits) != 4 || out.Argmax == nil || out.Path == "" || out.LatencyMS <= 0 || out.DeadlineMS <= 0 {
					t.Fatalf("whole-path answer incomplete: %s", raw)
				}
				if strings.Contains(raw, `"hops"`) {
					t.Fatalf("whole-path answer carries hops: %s", raw)
				}
			}},
		{name: "head 200", req: offload("h", frame), hopStatus: 200, hopBody: tailAnswer, hopCalls: 1, status: 200,
			check: func(t *testing.T, raw string, out OffloadResponse) {
				if out.Task != "h" || out.Epoch != srv.Current().N || out.AdmittedRate != 5 || out.Path != path ||
					out.DeadlineMS != hourMS || out.BatchSize != 3 || len(out.Hops) != 2 || out.Argmax == nil || *out.Argmax != 1 ||
					len(out.Logits) != 4 || out.Logits[1] != 2 {
					t.Fatalf("head answer does not merge the tail's verdict: %s", raw)
				}
				if m := hop.man; m.Task != "h" || m.Path != path || m.From != 2 || m.BudgetMS != hourMS || m.RemainingMS <= 0 ||
					m.RemainingMS > hourMS || len(m.Hops) != 1 || m.Hops[0].Node != "n1" || m.Hops[0].ActivationBytes != 8*m.Shape[0]*m.Shape[1]*m.Shape[2] {
					t.Fatalf("head forwarded manifest %+v", m)
				}
			}},
		{name: "middle 200 relays the tail's bytes", req: stage("m", path, 1, 0, 500), hopStatus: 200, hopBody: tailAnswer, hopCalls: 1, status: 200,
			check: func(t *testing.T, raw string, _ OffloadResponse) {
				if raw != tailAnswer {
					t.Fatalf("middle hop rewrote the tail's answer: %s", raw)
				}
				if m := hop.man; m.From != 3 || len(m.Hops) != 2 || m.Hops[0] != upstream[0] || m.Hops[1].Node != "n1" ||
					m.RemainingMS <= 0 || m.RemainingMS > 500 || m.BudgetMS != hourMS {
					t.Fatalf("middle forwarded manifest %+v", m)
				}
			}},
		{name: "tail 200", req: stage("t", path, 2, 0, 500), status: 200,
			check: func(t *testing.T, raw string, out OffloadResponse) {
				if len(out.Logits) != 4 || out.Argmax == nil || out.DeadlineMS != hourMS || out.Path != path ||
					len(out.Hops) != 2 || out.Hops[0] != upstream[0] || out.Hops[1].Node != "n1" || out.Hops[1].ActivationBytes != 0 {
					t.Fatalf("tail answer incomplete: %s", raw)
				}
			}},
		{name: "offload of an unknown task", req: offload("ghost", frame), status: 404, code: CodeUnknownTask},
		{name: "stage at a stage nothing enters", req: stage("t", path, 1, 0, 0), status: 404, code: CodeUnknownTask},
		{name: "stage into a whole path", req: stage("task-1", path, 0, 0, 0), status: 404, code: CodeUnknownTask},
		{name: "stage for another path", req: stage("t", "other/π", 2, 0, 0), status: 400, code: CodeInvalidRequest},
		{name: "whole, wrong frame length", req: offload("task-1", frame[:5]), status: 400, code: CodeInvalidRequest},
		{name: "head, wrong frame length", req: offload("h", frame[:5]), status: 400, code: CodeInvalidRequest},
		{name: "middle, wrong activation length", req: stage("m", path, 1, 3, 0), status: 400, code: CodeInvalidRequest},
		{name: "tail, wrong activation length", req: stage("t", path, 2, 3, 0), status: 400, code: CodeInvalidRequest},
		{name: "middle entered with the budget spent", req: stage("m", path, 1, 0, -1), status: 504, code: CodeDeadlineHop},
		{name: "tail entered with the budget spent", req: stage("t", path, 2, 0, -0.5), status: 504, code: CodeDeadlineHop},
		{name: "head spends the budget", req: offload("h", frame), step: 2 * time.Hour, status: 504, code: CodeDeadlineHop},
		{name: "middle spends the budget", req: stage("m", path, 1, 0, 500), step: time.Second, status: 504, code: CodeDeadlineHop},
		{name: "head relays a downstream 503", req: offload("h", frame), hopStatus: 503, hopBody: shed503, hopCalls: 1, status: 503, code: CodeOverload,
			check: func(t *testing.T, raw string, _ OffloadResponse) {
				if raw != shed503 {
					t.Fatalf("head rewrote the downstream refusal: %q", raw)
				}
			}},
		{name: "middle relays a downstream 504", req: stage("m", path, 1, 0, 0), hopStatus: 504, hopBody: late504, hopCalls: 1, status: 504, code: CodeDeadlineHop,
			check: func(t *testing.T, raw string, _ OffloadResponse) {
				if raw != late504 {
					t.Fatalf("middle rewrote the downstream refusal: %q", raw)
				}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hop.reset(tc.hopStatus, tc.hopBody)
			be.step = tc.step
			clock.Advance(time.Second) // a full token for every head request
			w := httptest.NewRecorder()
			srv.ServeHTTP(w, tc.req)
			raw := w.Body.String()
			if w.Code != tc.status {
				t.Fatalf("status %d, want %d: %s", w.Code, tc.status, raw)
			}
			if hop.calls != tc.hopCalls {
				t.Fatalf("next hop reached %d times, want %d", hop.calls, tc.hopCalls)
			}
			var out OffloadResponse
			var envelope errorBody
			if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
				t.Fatalf("body is not JSON: %s", raw)
			}
			if err := json.Unmarshal(w.Body.Bytes(), &envelope); err != nil || envelope.Error.Code != tc.code {
				t.Fatalf("error code %q, want %q: %s", envelope.Error.Code, tc.code, raw)
			}
			if tc.check != nil {
				tc.check(t, raw, out)
			}
		})
	}

	// A client gone before admit is not charged on a split head either:
	// 499, no verdict counted, and the whole burst is still there.
	clock.Advance(time.Hour)
	be.step = 0
	before := srv.Stats().admitted("h") + srv.Stats().rejected("h")
	req := offload("h", nil)
	ctx, cancel := context.WithCancel(req.Context())
	cancel()
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req.WithContext(ctx))
	if w.Code != 499 {
		t.Fatalf("aborted head offload: status %d, want 499", w.Code)
	}
	if got := srv.Stats().admitted("h") + srv.Stats().rejected("h"); got != before {
		t.Fatalf("aborted head offload produced %d verdicts", got-before)
	}
	for i := 0; i < 5; i++ {
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, offload("h", nil))
		if w.Code != http.StatusOK {
			t.Fatalf("probe %d of the burst after the abort: status %d, want 200", i, w.Code)
		}
	}
	w = httptest.NewRecorder()
	srv.ServeHTTP(w, offload("h", nil))
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("probe past the burst: status %d, want 429", w.Code)
	}
}
