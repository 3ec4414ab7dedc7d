package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"offloadnn/internal/serve"
)

// TestOffloadVerdictSameOnMemberAndCoordinator: one body, one verdict.
// Each body goes straight to a member and through the coordinator that
// routes its task there, and both answer the same status and envelope
// code, because both decode it with serve.DecodeOffload under
// serve.MaxOffloadBody.
func TestOffloadVerdictSameOnMemberAndCoordinator(t *testing.T) {
	m := startMember(t, "a", fullRes())
	c := startCoordinator(t, Config{})
	front := httptest.NewServer(c)
	defer front.Close()
	joinMember(t, c, "a", m, 0)
	if err := c.Registry().Register(specTask(t, 1), nil); err != nil {
		t.Fatal(err)
	}
	if err := c.PlaceNow(); err != nil {
		t.Fatal(err)
	}

	canonical, err := json.Marshal(serve.OffloadRequest{Task: "task-1", Input: []float64{0.25, -0.5, 1e-07}, DeadlineMS: -1})
	if err != nil {
		t.Fatal(err)
	}
	huge := `{"task":"task-1","input":[` + strings.Repeat("0,", serve.MaxOffloadBody/2) + `0]}`
	for _, row := range []struct {
		name, body string
		status     int
		code       string
	}{
		{"canonical", string(canonical), http.StatusOK, ""},
		{"trailing bytes", `{"task":"task-1"} x`, http.StatusOK, ""},
		{"over the limit", huge, http.StatusBadRequest, serve.CodeInvalidRequest},
		{"malformed", `{"task":"task-1","input":[1,]}`, http.StatusBadRequest, serve.CodeInvalidRequest},
		{"unknown task", `{"task":"nope"}`, http.StatusNotFound, serve.CodeUnknownTask},
	} {
		for _, base := range []string{m.ts.URL, front.URL} {
			resp, err := http.Post(base+"/v1/offload", "application/json", strings.NewReader(row.body))
			if err != nil {
				t.Fatalf("%s via %s: %v", row.name, base, err)
			}
			var envelope struct {
				Error struct {
					Code string `json:"code"`
				} `json:"error"`
			}
			var raw bytes.Buffer
			raw.ReadFrom(resp.Body)
			resp.Body.Close()
			json.Unmarshal(raw.Bytes(), &envelope)
			if resp.StatusCode != row.status || envelope.Error.Code != row.code {
				who := "member"
				if base == front.URL {
					who = "coordinator"
				}
				t.Errorf("%s on the %s: %d %q, want %d %q (%s)", row.name, who,
					resp.StatusCode, envelope.Error.Code, row.status, row.code, raw.String())
			}
		}
	}
}
