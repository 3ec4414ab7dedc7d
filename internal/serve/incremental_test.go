package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"offloadnn/internal/core"
	"offloadnn/internal/workload"
)

// decodeErrorEnvelope parses the unified error body and returns its code.
func decodeErrorEnvelope(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var body errorBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("error response is not the envelope: %v", err)
	}
	if body.Error.Code == "" || body.Error.Message == "" {
		t.Fatalf("envelope missing code or message: %+v", body)
	}
	return body.Error.Code
}

// TestErrorEnvelope drives every error path of the API and checks each
// returns the unified {"error": {"code", "message"}} body with the
// documented machine-readable code.
func TestErrorEnvelope(t *testing.T) {
	srv := newTestServer(t, Config{Debounce: time.Hour})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Malformed register body → invalid_request.
	resp := postJSON(t, ts.URL+"/v1/tasks", map[string]any{"id": "x", "bogus": true})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body: status %d", resp.StatusCode)
	}
	if code := decodeErrorEnvelope(t, resp); code != CodeInvalidRequest {
		t.Fatalf("bad body: code %q, want %q", code, CodeInvalidRequest)
	}

	// Invalid task fields → invalid_request.
	resp = postJSON(t, ts.URL+"/v1/tasks", TaskSpec{ID: "neg", Rate: -1})
	if code := decodeErrorEnvelope(t, resp); code != CodeInvalidRequest {
		t.Fatalf("invalid fields: code %q, want %q", code, CodeInvalidRequest)
	}

	// Duplicate registration → task_exists.
	spec := smallSpec(t, 1)
	resp = postJSON(t, ts.URL+"/v1/tasks", spec)
	resp.Body.Close()
	resp = postJSON(t, ts.URL+"/v1/tasks", spec)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate: status %d", resp.StatusCode)
	}
	if code := decodeErrorEnvelope(t, resp); code != CodeTaskExists {
		t.Fatalf("duplicate: code %q, want %q", code, CodeTaskExists)
	}

	// Deregistering an unknown ID → unknown_task.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/tasks/ghost", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if dresp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown delete: status %d", dresp.StatusCode)
	}
	if code := decodeErrorEnvelope(t, dresp); code != CodeUnknownTask {
		t.Fatalf("unknown delete: code %q, want %q", code, CodeUnknownTask)
	}

	// Offload for an unregistered task → unknown_task.
	resp = postJSON(t, ts.URL+"/v1/offload", OffloadRequest{Task: "ghost"})
	if code := decodeErrorEnvelope(t, resp); code != CodeUnknownTask {
		t.Fatalf("unknown offload: code %q, want %q", code, CodeUnknownTask)
	}

	// Registered but no epoch yet (debounce is an hour) → not_admitted.
	resp = postJSON(t, ts.URL+"/v1/offload", OffloadRequest{Task: spec.ID})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("pre-epoch offload: status %d", resp.StatusCode)
	}
	if code := decodeErrorEnvelope(t, resp); code != CodeNotAdmitted {
		t.Fatalf("pre-epoch offload: code %q, want %q", code, CodeNotAdmitted)
	}

	// Admitted but over the token bucket → over_rate.
	if err := srv.ResolveNow(); err != nil {
		t.Fatal(err)
	}
	sawOver := false
	for i := 0; i < 50 && !sawOver; i++ {
		resp = postJSON(t, ts.URL+"/v1/offload", OffloadRequest{Task: spec.ID})
		switch resp.StatusCode {
		case http.StatusOK:
			resp.Body.Close()
		case http.StatusTooManyRequests:
			if code := decodeErrorEnvelope(t, resp); code != CodeOverRate {
				t.Fatalf("over-rate: code %q, want %q", code, CodeOverRate)
			}
			sawOver = true
		default:
			t.Fatalf("offload: unexpected status %d", resp.StatusCode)
		}
	}
	if !sawOver {
		t.Fatal("never drove the gate over its admitted rate")
	}
}

// samePlan checks two admission plans agree to 1e-9 on cost and on every
// admitted rate.
func samePlan(t *testing.T, step string, cost, wantCost float64, rates, wantRates map[string]float64) {
	t.Helper()
	if math.Abs(cost-wantCost) > 1e-9 {
		t.Fatalf("%s: cost %v != %v", step, cost, wantCost)
	}
	if len(rates) != len(wantRates) {
		t.Fatalf("%s: admitted sets differ: %d vs %d", step, len(rates), len(wantRates))
	}
	for id, want := range wantRates {
		if got := rates[id]; math.Abs(got-want) > 1e-9 {
			t.Fatalf("%s: task %s admitted rate %v != %v", step, id, got, want)
		}
	}
}

// TestIncrementalResolverMatchesFull runs a churn sequence through the
// default daemon (incremental SolverSession) and checks every epoch's
// admission plan matches a from-scratch core.SolveOffloaDNN on the same
// registry snapshot to 1e-9.
func TestIncrementalResolverMatchesFull(t *testing.T) {
	srv := newTestServer(t, Config{Debounce: time.Hour})

	compare := func(step string) {
		t.Helper()
		if err := srv.ResolveNow(); err != nil {
			t.Fatalf("%s: incremental resolve: %v", step, err)
		}
		ep := srv.Current()
		tasks, blocks, _ := srv.Registry().Snapshot()
		if (ep.Deployment == nil) != (len(tasks) == 0) {
			t.Fatalf("%s: deployment presence differs", step)
		}
		if ep.Deployment == nil {
			return
		}
		in := &core.Instance{Tasks: tasks, Blocks: blocks, Res: srv.Resources(), Alpha: srv.cfg.Alpha}
		full, err := core.SolveOffloaDNN(in)
		if err != nil {
			t.Fatalf("%s: full solve: %v", step, err)
		}
		want := make(map[string]float64)
		for i, a := range full.Assignments {
			if a.Admitted() {
				want[a.TaskID] = a.Z * tasks[i].Rate
			}
		}
		samePlan(t, step, ep.Deployment.Solution.Cost, full.Cost, ep.Deployment.AdmittedRates, want)
	}
	register := func(i int) {
		t.Helper()
		task, err := workload.SmallTask(i)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Register(task, nil); err != nil {
			t.Fatal(err)
		}
	}
	deregister := func(id string) {
		t.Helper()
		if err := srv.Deregister(id); err != nil {
			t.Fatal(err)
		}
	}

	// Register all five tasks, then churn: withdraw two, re-register one.
	for i := 1; i <= 5; i++ {
		register(i)
		compare("register")
	}
	for _, id := range []string{"task-2", "task-4"} {
		deregister(id)
		compare("deregister " + id)
	}
	register(2)
	compare("re-register task-2")

	// Draining the registry then refilling exercises the session reset.
	for _, id := range []string{"task-1", "task-2", "task-3", "task-5"} {
		deregister(id)
	}
	compare("empty registry")
	for i := 1; i <= 3; i++ {
		register(i)
	}
	compare("refill after empty")
}
