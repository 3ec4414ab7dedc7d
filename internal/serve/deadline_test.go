package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestOffloadDeadline504 drives the deadline plumbing end to end over
// HTTP: an impossible per-request budget is shed with the 504 envelope,
// a generous one succeeds and echoes its effective budget, and the
// default budget is the task's plan-time latency bound.
func TestOffloadDeadline504(t *testing.T) {
	be := newRealBackend(t)
	srv := newTestServer(t, Config{Debounce: time.Millisecond, Backend: be})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/v1/tasks", smallSpec(t, 1))
	drain(t, resp)
	waitCurrent(t, ts.URL)
	in := realPayload()

	// A nanosecond budget has always expired by the time the backend
	// sees the request: shed late, 504, typed error code.
	resp = postJSON(t, ts.URL+"/v1/offload", OffloadRequest{Task: "task-1", Input: in, DeadlineMS: 1e-6})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("late offload: %d, want 504 (%s)", resp.StatusCode, drain(t, resp))
	}
	var envelope struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if envelope.Error.Code != CodeDeadline {
		t.Fatalf("late offload error code %q, want %q", envelope.Error.Code, CodeDeadline)
	}

	// A generous override succeeds and reports the budget it ran under.
	resp = postJSON(t, ts.URL+"/v1/offload", OffloadRequest{Task: "task-1", Input: in, DeadlineMS: 10_000})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deadlined offload: %d %s", resp.StatusCode, drain(t, resp))
	}
	var out OffloadResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if out.DeadlineMS != 10_000 {
		t.Fatalf("deadlined offload echoed budget %v ms, want 10000", out.DeadlineMS)
	}

	// No override: the budget is the plan-time bound L_τ.
	resp = postJSON(t, ts.URL+"/v1/offload", OffloadRequest{Task: "task-1", Input: in})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("default-deadline offload: %d %s", resp.StatusCode, drain(t, resp))
	}
	out = OffloadResponse{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if out.DeadlineMS <= 0 {
		t.Fatalf("default budget %v ms, want the task's plan-time bound > 0", out.DeadlineMS)
	}

	// An explicit opt-out carries no deadline at all.
	resp = postJSON(t, ts.URL+"/v1/offload", OffloadRequest{Task: "task-1", Input: in, DeadlineMS: -1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("opt-out offload: %d %s", resp.StatusCode, drain(t, resp))
	}
	out = OffloadResponse{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if out.DeadlineMS != 0 {
		t.Fatalf("opt-out offload still reports budget %v ms", out.DeadlineMS)
	}

	// The shed and the hits both show in the exposition.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := drain(t, mresp)
	for _, want := range []string{
		`offloadnn_shed_total{reason="late"} 1`,
		`offloadnn_shed_total{reason="queue_full"} 0`,
		"offloadnn_deadline_hit_ratio",
		"offloadnn_batch_window_seconds",
		"offloadnn_overload 0",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics exposition missing %q:\n%s", want, body)
		}
	}
}

// TestOverloadDegradesHealthAndRecovers pins the backpressure-to-health
// coupling: enough backend sheds inside the overload window flip
// /healthz to degraded with overloaded=true, and the server returns to
// healthy once the window drains — no sticky degradation.
func TestOverloadDegradesHealthAndRecovers(t *testing.T) {
	clock := newFakeClock()
	be := newRealBackend(t)
	srv := newTestServer(t, Config{Debounce: time.Millisecond, now: clock.Now, Backend: be})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/v1/tasks", smallSpec(t, 1))
	drain(t, resp)
	waitCurrent(t, ts.URL)
	in := realPayload()

	// The deadline is computed off the injected clock — months in the
	// past of the backend's real clock — so every budgeted offload is
	// hopelessly late and sheds. Advance between requests to refill the
	// admission gate, keeping all overloadAfter sheds inside one
	// overloadWindow.
	for i := 0; i < overloadAfter; i++ {
		clock.Advance(400 * time.Millisecond)
		resp = postJSON(t, ts.URL+"/v1/offload", OffloadRequest{Task: "task-1", Input: in, DeadlineMS: 1})
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("shed %d: %d, want 504 (%s)", i, resp.StatusCode, drain(t, resp))
		}
		drain(t, resp)
	}

	health := func() map[string]any {
		t.Helper()
		hresp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var h map[string]any
		if err := json.NewDecoder(hresp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		hresp.Body.Close()
		return h
	}

	h := health()
	if h["status"] != "degraded" || h["overloaded"] != true {
		t.Fatalf("after %d sheds: status=%v overloaded=%v, want degraded/true", overloadAfter, h["status"], h["overloaded"])
	}
	if sheds, _ := h["recent_sheds"].(float64); sheds < overloadAfter {
		t.Fatalf("recent_sheds = %v, want >= %d", h["recent_sheds"], overloadAfter)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if body := drain(t, mresp); !strings.Contains(body, "offloadnn_overload 1") {
		t.Fatalf("metrics exposition missing offloadnn_overload 1:\n%s", body)
	}

	// Once the shed window drains the server is healthy again.
	clock.Advance(6 * time.Second)
	h = health()
	if h["status"] != "healthy" || h["overloaded"] != false {
		t.Fatalf("after the window drained: status=%v overloaded=%v, want healthy/false", h["status"], h["overloaded"])
	}
}
