package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"offloadnn/internal/core"
	"offloadnn/internal/exec"
	"offloadnn/internal/serve"
	"offloadnn/internal/workload"
)

// countingBackend counts the plans installed into the backend it wraps.
type countingBackend struct {
	exec.Backend
	installs atomic.Int64
}

func (b *countingBackend) Install(plan *exec.Plan) error {
	b.installs.Add(1)
	return b.Backend.Install(plan)
}

// TestPlanPushPublishesOneEpoch pushes a plan that moves a task from a
// whole path to the head of a split — tasks and segments change together
// — and checks the member publishes it as one epoch with one backend
// install: no intermediate epoch may serve the new task set over the old
// routes.
func TestPlanPushPublishesOneEpoch(t *testing.T) {
	in, err := workload.SmallScenario(2)
	if err != nil {
		t.Fatal(err)
	}
	backend := &countingBackend{Backend: exec.NewSimulated()}
	srv, err := serve.New(serve.Config{Res: in.Res, Alpha: in.Alpha, Node: "a", Debounce: time.Hour, Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	member := MemberHandler(srv)

	push := func(tasks []core.Task, segments []WireSegment) PlanAck {
		t.Helper()
		plan := PlanPush{Node: "a", Alpha: in.Alpha, Res: ToWireResources(in.Res),
			Blocks: ToWireBlocks(in.Blocks), Segments: segments}
		for _, task := range tasks {
			plan.Tasks = append(plan.Tasks, ToWireTask(task))
		}
		body, err := json.Marshal(plan)
		if err != nil {
			t.Fatal(err)
		}
		w := httptest.NewRecorder()
		member.ServeHTTP(w, httptest.NewRequest(http.MethodPut, "/v1/cluster/plan", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("plan push answered %d: %s", w.Code, w.Body)
		}
		var ack PlanAck
		if err := json.Unmarshal(w.Body.Bytes(), &ack); err != nil {
			t.Fatal(err)
		}
		return ack
	}

	whole := push(in.Tasks, nil)
	installs := backend.installs.Load()

	moved := in.Tasks[1]
	path := moved.Paths[0]
	split := push(in.Tasks[:1], []WireSegment{{
		Task: moved.ID, Path: path.ID, DNN: path.DNN, Blocks: path.Blocks,
		From: 0, To: 1, Rate: moved.Rate, BudgetMS: 100, Hop: 0, Hops: 2,
		Next: "http://peer.invalid", NextNode: "b",
	}})
	if !split.Changed || split.Tasks != 1 {
		t.Fatalf("split push acked %+v", split)
	}
	if split.Epoch != whole.Epoch+1 {
		t.Fatalf("one plan push moved the epoch from %d to %d, want one epoch", whole.Epoch, split.Epoch)
	}
	if got := backend.installs.Load() - installs; got != 1 {
		t.Fatalf("one plan push installed into the backend %d times, want once", got)
	}
}
