package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
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

	push := func(tasks []core.Task, segments []wireSegment) planAck {
		t.Helper()
		plan := planPush{Node: "a", Alpha: in.Alpha, Res: ToWireResources(in.Res),
			Blocks: toWireBlocks(in.Blocks), Segments: segments}
		for _, task := range tasks {
			plan.Tasks = append(plan.Tasks, toWireTask(task))
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
		var ack planAck
		if err := json.Unmarshal(w.Body.Bytes(), &ack); err != nil {
			t.Fatal(err)
		}
		return ack
	}

	whole := push(in.Tasks, nil)
	installs := backend.installs.Load()

	moved := in.Tasks[1]
	path := moved.Paths[0]
	split := push(in.Tasks[:1], []wireSegment{{
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

// overcommitPush is a plan no node with res can hold: a whole-path task
// over two blocks and the [2,4) segment of another four-block path, every
// block blockGB, where either half fits res.MemoryGB and both do not.
func overcommitPush(res core.Resources, blockGB float64) planPush {
	blocks := make(map[string]core.BlockSpec)
	for _, id := range []string{"w/s1", "w/s2", "big/s1", "big/s2", "big/s3", "big/s4"} {
		blocks[id] = core.BlockSpec{ID: id, ComputeSeconds: 1e-4, MemoryGB: blockGB, TrainSeconds: 1}
	}
	whole := core.Task{ID: "whole", Priority: 1, Rate: 2, MinAccuracy: 0.9, MaxLatency: 500 * time.Millisecond,
		InputBits: 350e3, SNRdB: 20, Paths: []core.PathSpec{{ID: "w/p", DNN: "w", Blocks: []string{"w/s1", "w/s2"}, Accuracy: 0.95}}}
	return planPush{Node: "a", Alpha: 0.5, Res: ToWireResources(res), Blocks: toWireBlocks(blocks),
		Tasks: []wireTask{toWireTask(whole)},
		Segments: []wireSegment{{Task: "big", Path: "big/p", DNN: "big", Blocks: []string{"big/s1", "big/s2", "big/s3", "big/s4"},
			From: 2, To: 4, Rate: 2, Hop: 1, Hops: 2}}}
}

// putPlan sends a plan-push body through the member handler.
func putPlan(h http.Handler, body []byte) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPut, "/v1/cluster/plan", bytes.NewReader(body)))
	return w
}

func mustJSON(t testing.TB, v any) []byte {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// pushState is what a refused push must leave untouched.
type pushState struct {
	segments []serve.SegmentSpec
	gen      uint64
	epoch    uint64
}

func statePushed(srv *serve.Server) pushState {
	st := pushState{segments: srv.Segments(), gen: srv.Registry().Generation()}
	if ep := srv.Current(); ep != nil {
		st.epoch = ep.N
	}
	return st
}

// TestPlanPushRefusesOvercommit: a push committing 1.2 GB on a 0.7 GB
// member — a 0.6 GB whole path beside a 0.6 GB segment — is refused with
// 409 naming (1b), and the member's plan, registry and epoch stay as
// they were.
func TestPlanPushRefusesOvercommit(t *testing.T) {
	res := splitNode("a").Res
	srv, err := serve.New(serve.Config{Res: res, Alpha: 0.5, Node: "a", Debounce: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	member := MemberHandler(srv)
	push := overcommitPush(res, 0.3)

	// The whole path alone is admitted.
	alone := push
	alone.Segments = nil
	if w := putPlan(member, mustJSON(t, alone)); w.Code != http.StatusOK {
		t.Fatalf("whole-path push answered %d: %s", w.Code, w.Body)
	}
	before := statePushed(srv)
	w := putPlan(member, mustJSON(t, push))
	if w.Code != http.StatusConflict || !strings.Contains(w.Body.String(), "(1b)") {
		t.Fatalf("overcommitting push answered %d: %s, want 409 naming (1b)", w.Code, w.Body)
	}
	if after := statePushed(srv); !reflect.DeepEqual(after, before) {
		t.Fatalf("refused push changed the member: %+v → %+v", before, after)
	}
}

// weightedAdmission reads Σ z·p off a solution, zero for none.
func weightedAdmission(sol *core.Solution) float64 {
	if sol == nil {
		return 0
	}
	return sol.Breakdown.WeightedAdmission
}

// nodePush is the body the coordinator pushes node i of a placement.
func nodePush(p *Placement, i int, alpha float64) planPush {
	plan := &p.plans[i]
	res := plan.Node.Res
	res.Norm = p.norm
	push := planPush{Node: plan.Node.ID, Alpha: alpha, Res: ToWireResources(res),
		Blocks: toWireBlocks(plan.Blocks), Segments: wireSegments(p.Splits)[plan.Node.ID]}
	for _, task := range plan.Tasks {
		push.Tasks = append(push.Tasks, toWireTask(task))
	}
	return push
}

// TestMemberChecksWholePathsBesideSegment: on two 0.7 GB nodes the big
// task splits while a 0.05 GB task lands whole on a node that also hosts
// a segment. Each member pushed its nodePlan admits the same Σ z·p, with
// its epoch's Check charging the segment and the whole path together;
// a member 0.01 GB short of both refuses the same push.
func TestMemberChecksWholePathsBesideSegment(t *testing.T) {
	tasks, blocks := splitScenario()
	blocks["small/s1"] = core.BlockSpec{ID: "small/s1", ComputeSeconds: 1e-4, MemoryGB: 0.05, TrainSeconds: 1}
	tasks = append(tasks, core.Task{ID: "small", Priority: 0.5, Rate: 2, MinAccuracy: 0.9, MaxLatency: 500 * time.Millisecond,
		InputBits: 350e3, SNRdB: 20, Paths: []core.PathSpec{{ID: "small/p", DNN: "small", Blocks: []string{"small/s1"}, Accuracy: 0.95}}})
	const alpha = 0.5
	p := PlaceWith(context.Background(), tasks, blocks, []Node{splitNode("a"), splitNode("b")},
		PlaceConfig{Alpha: alpha, Split: &SplitConfig{}})
	if len(p.Splits) != 1 || len(p.unplaced) != 0 || len(p.errors) != 0 {
		t.Fatalf("placement: %d splits, unplaced %v, errors %v", len(p.Splits), p.unplaced, p.errors)
	}
	host := p.route["small"]
	if len(wireSegments(p.Splits)[host]) == 0 {
		t.Fatalf("small task placed whole on %q, which hosts no segment", host)
	}

	for i := range p.plans {
		plan := &p.plans[i]
		srv, err := serve.New(serve.Config{Res: splitNode(plan.Node.ID).Res, Alpha: alpha, Node: plan.Node.ID, Debounce: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		if w := putPlan(MemberHandler(srv), mustJSON(t, nodePush(p, i, alpha))); w.Code != http.StatusOK {
			t.Fatalf("push to %s answered %d: %s", plan.Node.ID, w.Code, w.Body)
		}
		var got *core.Solution
		if dep := srv.Current().Deployment; dep != nil {
			got = dep.Solution
		}
		if a, b := weightedAdmission(got), weightedAdmission(plan.Solution); a != b {
			t.Errorf("member %s admits Σz·p = %v, its NodePlan %v", plan.Node.ID, a, b)
		}
		if plan.Node.ID == host && weightedAdmission(got) != 0.5 {
			t.Errorf("member %s does not admit the small task beside its segment", host)
		}
	}

	for i := range p.plans {
		if p.plans[i].Node.ID != host {
			continue
		}
		short := splitNode(host).Res
		short.MemoryGB = 0.05 + 0.6 - 0.01
		srv, err := serve.New(serve.Config{Res: short, Alpha: alpha, Node: host, Debounce: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		push := nodePush(p, i, alpha)
		short.Norm = p.norm
		push.Res = ToWireResources(short)
		w := putPlan(MemberHandler(srv), mustJSON(t, push))
		if w.Code != http.StatusConflict || !strings.Contains(w.Body.String(), "(1b)") {
			t.Fatalf("push to a member 0.01 GB short answered %d: %s, want 409 naming (1b)", w.Code, w.Body)
		}
	}
}

// FuzzPlanPush drives arbitrary bodies through one member's PUT
// /v1/cluster/plan, the decoder the member does capacity arithmetic on.
// The member never panics and answers only 200, 400 or 409; a refused
// push changes nothing; and after a 200 the epoch's solution passes
// Check on an instance rebuilt from the push with its segments reserved.
func FuzzPlanPush(f *testing.F) {
	in, err := workload.SmallScenario(2)
	if err != nil {
		f.Fatal(err)
	}
	srv, err := serve.New(serve.Config{Res: in.Res, Alpha: in.Alpha, Node: "a", Debounce: time.Hour})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(srv.Close)
	member := MemberHandler(srv)

	// TestPlanPushPublishesOneEpoch's two bodies, a push the 8 GB member
	// cannot hold, and its segment at a negative and at a huge rate.
	whole := planPush{Node: "a", Alpha: in.Alpha, Res: ToWireResources(in.Res), Blocks: toWireBlocks(in.Blocks)}
	for _, task := range in.Tasks {
		whole.Tasks = append(whole.Tasks, toWireTask(task))
	}
	split := whole
	split.Tasks = whole.Tasks[:1]
	moved := in.Tasks[1]
	split.Segments = []wireSegment{{Task: moved.ID, Path: moved.Paths[0].ID, DNN: moved.Paths[0].DNN,
		Blocks: moved.Paths[0].Blocks, From: 0, To: 1, Rate: moved.Rate, BudgetMS: 100, Hop: 0, Hops: 2,
		Next: "http://peer.invalid", NextNode: "b"}}
	negative, huge := overcommitPush(in.Res, 2.5), overcommitPush(in.Res, 2.5)
	negative.Segments[0].Rate = -1
	huge.Segments[0].Rate = 1e308
	for _, push := range []planPush{whole, split, overcommitPush(in.Res, 2.5), negative, huge} {
		f.Add(mustJSON(f, push))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		before := statePushed(srv)
		w := putPlan(member, body)
		switch w.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusConflict:
			if after := statePushed(srv); !reflect.DeepEqual(after, before) {
				t.Fatalf("refused push (%d: %s) changed the member: %+v → %+v", w.Code, w.Body, before, after)
			}
			return
		default:
			t.Fatalf("plan push answered %d: %s", w.Code, w.Body)
		}
		ep := srv.Current()
		if ep == nil || ep.Deployment == nil {
			return
		}
		var push planPush
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&push); err != nil {
			t.Fatalf("accepted push does not decode: %v", err)
		}
		// The segments are charged at the pushed specs, the whole paths at
		// the catalog the epoch solved with.
		res := in.Res
		res.Norm = push.Res.normResources()
		check := &core.Instance{Blocks: fromWireBlocks(push.Blocks), Res: res}
		if err := check.Reserve(serve.Reservations(push.Segments)...); err != nil {
			t.Fatalf("accepted push's segments do not reserve: %v", err)
		}
		check.Tasks = ep.Tasks
		_, check.Blocks, _ = srv.Registry().Snapshot()
		if err := check.Check(ep.Deployment.Solution.Assignments); err != nil {
			t.Fatalf("epoch %d after an accepted push fails Check net of its segments: %v", ep.N, err)
		}
	})
}
