package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"offloadnn/internal/core"
	"offloadnn/internal/radio"
	"offloadnn/internal/workload"
)

// smallResources is the Table-IV small-scenario pool.
func smallResources() core.Resources {
	return core.Resources{
		RBs:                50,
		ComputeSeconds:     2.5,
		MemoryGB:           8,
		TrainBudgetSeconds: 1000,
		Capacity:           radio.PaperRate(),
	}
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Res.Capacity == nil {
		cfg.Res = smallResources()
	}
	if cfg.Alpha == 0 {
		cfg.Alpha = 0.5
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

func smallSpec(t *testing.T, i int) TaskSpec {
	t.Helper()
	task, err := workload.SmallTask(i)
	if err != nil {
		t.Fatal(err)
	}
	return TaskSpec{
		ID:           task.ID,
		Priority:     task.Priority,
		Rate:         task.Rate,
		MinAccuracy:  task.MinAccuracy,
		MaxLatencyMS: float64(task.MaxLatency) / float64(time.Millisecond),
		InputBits:    task.InputBits,
		SNRdB:        task.SNRdB,
	}
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func drain(t *testing.T, resp *http.Response) string {
	t.Helper()
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// waitCurrent polls /healthz until the published epoch matches the
// registry generation.
func waitCurrent(t *testing.T, baseURL string) uint64 {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(baseURL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var h struct {
			Epoch   uint64 `json:"epoch"`
			Current bool   `json:"current"`
			Tasks   int    `json:"tasks"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if h.Current && h.Epoch > 0 {
			return h.Epoch
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("epoch never caught up with registry generation")
	return 0
}

// TestHTTPEndToEnd registers the five Table-IV small-scenario tasks over
// HTTP, waits for the debounced epoch, then drives each admitted task
// above its notified rate with a deterministic clock and asserts the
// gate admits ≈ z·λ of the traffic.
func TestHTTPEndToEnd(t *testing.T) {
	clock := newFakeClock()
	srv := newTestServer(t, Config{Debounce: 2 * time.Millisecond, now: clock.Now})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for i := 1; i <= 5; i++ {
		resp := postJSON(t, ts.URL+"/v1/tasks", smallSpec(t, i))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("register task-%d: status %d: %s", i, resp.StatusCode, drain(t, resp))
		}
		drain(t, resp)
	}
	waitCurrent(t, ts.URL)

	// Read the notified rates from the task listing.
	resp, err := http.Get(ts.URL + "/v1/tasks")
	if err != nil {
		t.Fatal(err)
	}
	var listing []taskStatus
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(listing) != 5 {
		t.Fatalf("listing has %d tasks, want 5", len(listing))
	}
	admittedAny := false
	for _, st := range listing {
		if !st.Admitted {
			continue
		}
		admittedAny = true
		if st.AdmittedRate <= 0 || st.AdmittedRate > st.Rate+1e-9 {
			t.Fatalf("task %s notified rate %v outside (0, λ=%v]", st.ID, st.AdmittedRate, st.Rate)
		}
		if st.Path == "" || st.LatencyMS <= 0 {
			t.Fatalf("task %s admitted without path/latency: %+v", st.ID, st)
		}
	}
	if !admittedAny {
		t.Fatal("no task admitted in the small scenario")
	}

	// Overdrive each admitted task for 10 virtual seconds at 4× its
	// notified rate; the token bucket must clamp admissions to
	// z·λ·duration plus the burst allowance.
	const virtual = 10.0 // seconds
	for _, st := range listing {
		if !st.Admitted {
			continue
		}
		burst := math.Max(1, st.AdmittedRate)
		steps := int(4 * st.AdmittedRate * virtual)
		dt := time.Duration(virtual / float64(steps) * float64(time.Second))
		admitted, rejected := 0, 0
		for i := 0; i < steps; i++ {
			clock.Advance(dt)
			r := postJSON(t, ts.URL+"/v1/offload", OffloadRequest{Task: st.ID})
			switch r.StatusCode {
			case http.StatusOK:
				var or OffloadResponse
				if err := json.NewDecoder(r.Body).Decode(&or); err != nil {
					t.Fatal(err)
				}
				if or.AdmittedRate != st.AdmittedRate || or.LatencyMS <= 0 {
					t.Fatalf("offload response %+v inconsistent with listing %+v", or, st)
				}
				admitted++
			case http.StatusTooManyRequests:
				if r.Header.Get("Retry-After") == "" {
					t.Fatalf("429 for %s without Retry-After", st.ID)
				}
				rejected++
			default:
				t.Fatalf("offload %s: status %d: %s", st.ID, r.StatusCode, drain(t, r))
			}
			r.Body.Close()
		}
		want := st.AdmittedRate * virtual
		if float64(admitted) < want-1 || float64(admitted) > want+burst+1 {
			t.Fatalf("task %s admitted %d of %d over %gs, want ≈ z·λ·T = %.1f (+burst %g)",
				st.ID, admitted, steps, virtual, want, burst)
		}
		if rejected == 0 {
			t.Fatalf("task %s overdriven at 4× but nothing rejected", st.ID)
		}
	}

	// One executed frame: probes add no end-to-end latency sample.
	clock.Advance(time.Second)
	for _, st := range listing {
		if st.Admitted {
			r := postJSON(t, ts.URL+"/v1/offload", OffloadRequest{Task: st.ID, Input: []float64{1}, DeadlineMS: -1})
			if r.StatusCode != http.StatusOK {
				t.Fatalf("executed offload %s: status %d: %s", st.ID, r.StatusCode, drain(t, r))
			}
			drain(t, r)
			break
		}
	}

	// The metrics endpoint reports the live state.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := drain(t, resp)
	for _, want := range []string{
		"offloadnn_epoch ",
		"offloadnn_tasks_registered 5",
		"offloadnn_offload_requests_total",
		`offloadnn_offload_admitted_total{task="task-1"}`,
		`offloadnn_latency_seconds{quantile="0.95"}`,
		"offloadnn_solve_duration_seconds",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, body)
		}
	}

	// Deregistration churns the epoch and drops the task from serving.
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/tasks/task-1", nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("deregister: status %d", dresp.StatusCode)
	}
	dresp.Body.Close()
	if epoch := waitCurrent(t, ts.URL); epoch < 2 {
		t.Fatalf("epoch %d after churn, want ≥ 2", epoch)
	}
	r := postJSON(t, ts.URL+"/v1/offload", OffloadRequest{Task: "task-1"})
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("offload after deregister: status %d, want 404", r.StatusCode)
	}
	drain(t, r)
}

func TestOffloadBeforeFirstEpochIs429(t *testing.T) {
	srv := newTestServer(t, Config{Debounce: time.Hour}) // solve never fires on its own
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/v1/tasks", smallSpec(t, 1))
	drain(t, resp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("register: status %d", resp.StatusCode)
	}

	r := postJSON(t, ts.URL+"/v1/offload", OffloadRequest{Task: "task-1"})
	drain(t, r)
	if r.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("pre-epoch offload: status %d, want 429", r.StatusCode)
	}
	if r.Header.Get("Retry-After") == "" {
		t.Fatal("pre-epoch 429 without Retry-After")
	}

	if err := srv.ResolveNow(); err != nil {
		t.Fatal(err)
	}
	r = postJSON(t, ts.URL+"/v1/offload", OffloadRequest{Task: "task-1"})
	drain(t, r)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("post-resolve offload: status %d, want 200", r.StatusCode)
	}
}

func TestRegisterValidationAndConflicts(t *testing.T) {
	srv := newTestServer(t, Config{Debounce: time.Hour})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	bad := smallSpec(t, 1)
	bad.Rate = 0
	resp := postJSON(t, ts.URL+"/v1/tasks", bad)
	drain(t, resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("zero-rate spec: status %d, want 400", resp.StatusCode)
	}

	resp, err := http.Post(ts.URL+"/v1/tasks", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	drain(t, resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status %d, want 400", resp.StatusCode)
	}

	good := smallSpec(t, 1)
	resp = postJSON(t, ts.URL+"/v1/tasks", good)
	drain(t, resp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("register: status %d", resp.StatusCode)
	}
	resp = postJSON(t, ts.URL+"/v1/tasks", good)
	drain(t, resp)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate register: status %d, want 409", resp.StatusCode)
	}

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/tasks/ghost", nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	drain(t, dresp)
	if dresp.StatusCode != http.StatusNotFound {
		t.Fatalf("deregister unknown: status %d, want 404", dresp.StatusCode)
	}

	r := postJSON(t, ts.URL+"/v1/offload", OffloadRequest{Task: "ghost"})
	drain(t, r)
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("offload unknown: status %d, want 404", r.StatusCode)
	}
}

// TestChurnUnderRace hammers the registry, the offload path and the
// epoch swap concurrently; run with -race this validates the registry
// locking, the RCU epoch publication and the controller serialization.
func TestChurnUnderRace(t *testing.T) {
	srv := newTestServer(t, Config{Debounce: time.Millisecond})
	rec := func(method, target string, body any) *httptest.ResponseRecorder {
		var r *http.Request
		if body != nil {
			buf, _ := json.Marshal(body)
			r = httptest.NewRequest(method, target, bytes.NewReader(buf))
		} else {
			r = httptest.NewRequest(method, target, nil)
		}
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, r)
		return w
	}

	// Base tasks that stay registered throughout.
	for i := 1; i <= 3; i++ {
		task, err := workload.SmallTask(i)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Register(task, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.ResolveNow(); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	const rounds = 25
	// Churners register and deregister their own task repeatedly.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base, err := workload.SmallTask(4 + g)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < rounds; i++ {
				spec := TaskSpec{
					ID:           fmt.Sprintf("%s-r%d", base.ID, i),
					Priority:     base.Priority,
					Rate:         base.Rate,
					MinAccuracy:  base.MinAccuracy,
					MaxLatencyMS: float64(base.MaxLatency) / float64(time.Millisecond),
					InputBits:    base.InputBits,
					SNRdB:        base.SNRdB,
				}
				if w := rec(http.MethodPost, "/v1/tasks", spec); w.Code != http.StatusAccepted {
					t.Errorf("churn register: status %d: %s", w.Code, w.Body)
					return
				}
				if w := rec(http.MethodDelete, "/v1/tasks/"+spec.ID, nil); w.Code != http.StatusNoContent {
					t.Errorf("churn deregister: status %d: %s", w.Code, w.Body)
					return
				}
			}
		}(g)
	}
	// Offloaders fire probes and frames at the base tasks across epoch
	// swaps; each answer names its own task although the bodies share
	// pooled read buffers.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds*4; i++ {
				id := fmt.Sprintf("task-%d", i%3+1)
				req := OffloadRequest{Task: id}
				if i%2 == 1 {
					req.Input, req.DeadlineMS = []float64{float64(i), 0.5}, -1
				}
				w := rec(http.MethodPost, "/v1/offload", req)
				switch w.Code {
				case http.StatusOK:
					var out OffloadResponse
					if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil || out.Task != id {
						t.Errorf("offload %s answered for %q (%v)", id, out.Task, err)
						return
					}
				case http.StatusTooManyRequests:
				default:
					t.Errorf("offload %s: status %d: %s", id, w.Code, w.Body)
					return
				}
				rec(http.MethodGet, "/metrics", nil)
				rec(http.MethodGet, "/healthz", nil)
			}
		}()
	}
	// An extra forced re-solver racing the debounced loop.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			srv.ResolveNow()
		}
	}()
	wg.Wait()

	// Converge and check consistency.
	if err := srv.ResolveNow(); err != nil {
		t.Fatal(err)
	}
	ep := srv.Current()
	if ep == nil {
		t.Fatal("no epoch after churn")
	}
	if gen := srv.Registry().Generation(); ep.generation != gen {
		t.Fatalf("final epoch generation %d != registry generation %d", ep.generation, gen)
	}
	if srv.Registry().Len() != 3 {
		t.Fatalf("registry has %d tasks, want the 3 base tasks", srv.Registry().Len())
	}
	for i := 1; i <= 3; i++ {
		id := fmt.Sprintf("task-%d", i)
		if srv.Stats().admitted(id)+srv.Stats().rejected(id) == 0 {
			t.Fatalf("task %s saw no offload verdicts", id)
		}
	}
}

// TestRegisterPrebuiltTasks exercises the programmatic route the
// benchmarks use: tasks with pre-built paths and their block catalog.
func TestRegisterPrebuiltTasks(t *testing.T) {
	in, err := workload.SmallScenario(3)
	if err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, Config{Res: in.Res, Alpha: in.Alpha, Debounce: time.Hour})
	for _, task := range in.Tasks {
		if err := srv.Register(task, in.Blocks); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.ResolveNow(); err != nil {
		t.Fatal(err)
	}
	ep := srv.Current()
	if ep == nil || ep.Deployment == nil {
		t.Fatal("no deployment after resolve")
	}
	if got := len(ep.Tasks); got != 3 {
		t.Fatalf("epoch has %d tasks, want 3", got)
	}
	// A second ResolveNow without churn is a no-op.
	n := ep.N
	if err := srv.ResolveNow(); err != nil {
		t.Fatal(err)
	}
	if srv.Current().N != n {
		t.Fatalf("no-op resolve bumped epoch %d → %d", n, srv.Current().N)
	}
	// ForceResolve republishes.
	if err := srv.ForceResolve(); err != nil {
		t.Fatal(err)
	}
	if srv.Current().N != n+1 {
		t.Fatalf("forced resolve: epoch %d, want %d", srv.Current().N, n+1)
	}
}
