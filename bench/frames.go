package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"offloadnn/internal/core"
	"offloadnn/internal/dnn"
	"offloadnn/internal/exec"
	"offloadnn/internal/radio"
	"offloadnn/internal/serve"
)

// dataModel is the tensor model every data-plane workload deploys; the
// rest of exec.RealConfig stays at its defaults (batch 8, window 2 ms,
// EDF, quant gate 0.02).
var dataModel = dnn.ResNetConfig{
	InChannels: frameC, NumClasses: 61, BaseWidth: 16, StageBlocks: [4]int{2, 2, 2, 2}, Seed: 1,
}

func realConfig() exec.RealConfig {
	return exec.RealConfig{Model: dataModel, Input: [3]int{frameC, frameH, frameW}}
}

// inFlightCap bounds an open loop's outstanding requests; an arrival
// over the cap is a counted generator drop, never a silent stall.
const inFlightCap = 512

// sharedPathTasks is how many tasks the frames-* deployment registers:
// two on each of the three precision variants of one path.
const sharedPathTasks = 6

// sharedInstance is the frames-saturate / frames-overload deployment:
// six tasks on three shared paths (base/s1..s4 at f64, @f32 and @i8).
// Declared costs are small enough that the solver admits every task at
// z = 1 and λ is far above anything the loops send, so the gate never
// refuses and every frame reaches the execution queues.
func sharedInstance() *core.Instance {
	in := &core.Instance{
		Blocks: make(map[string]core.BlockSpec),
		Res: core.Resources{
			RBs: 100, ComputeSeconds: 10, MemoryGB: 16, TrainBudgetSeconds: 1000,
			Capacity: radio.FixedRate{Rate: 1e9},
		},
		Alpha: 0.5,
	}
	for t := 0; t < sharedPathTasks; t++ {
		suffix := [3]string{"", "@f32", "@i8"}[t/2]
		ids := make([]string, 4)
		for s := range ids {
			ids[s] = fmt.Sprintf("base/s%d%s", s+1, suffix)
			in.Blocks[ids[s]] = core.BlockSpec{ID: ids[s], ComputeSeconds: 1e-6, MemoryGB: 0.01}
		}
		in.Tasks = append(in.Tasks, core.Task{
			ID:          fmt.Sprintf("cam-%d", t+1),
			Priority:    1 - 0.1*float64(t),
			Rate:        2000,
			MinAccuracy: 0.5,
			MaxLatency:  100 * time.Millisecond,
			InputBits:   1e4,
			SNRdB:       20,
			Paths:       []core.PathSpec{{ID: "base" + suffix, DNN: "base", Blocks: ids, Accuracy: 0.9}},
		})
	}
	return in
}

// frameSite is one in-process serve.Server under test, the pre-encoded
// requests the loops send it, and the oracle for its answers.
type frameSite struct {
	srv     *serve.Server
	handler http.Handler
	rec     *recorder // nil when the run is untraced
	tasks   []core.Task
	// bodies[t][k] is the JSON body offloading frame k of task t.
	bodies [][][]byte
	// refs[t][k] is the reference logit row; nil for a task the plan
	// does not admit.
	refs [][][]float64
	// paths[t] is the deployed path signature of task t, "" when not
	// admitted; precisions maps a signature to its effective precision.
	paths      []string
	precisions map[string]string
	// coldEpoch is how long the first ResolveNow took (solve, cold
	// install with quant-gate calibration, publish); setupFirst is the
	// first answer, verified once the oracle exists.
	coldEpoch  time.Duration
	setupFirst answer
	deadlineMS float64
}

// answer is one offload's outcome as the client saw it.
type answer struct {
	status int
	logits []float64
	hops   int
}

var offloadURL = &url.URL{Path: "/v1/offload"}

// memResponse is the in-memory http.ResponseWriter the in-process loops
// hand to ServeHTTP.
type memResponse struct {
	hdr    http.Header
	status int
	body   bytes.Buffer
}

func (m *memResponse) Header() http.Header         { return m.hdr }
func (m *memResponse) WriteHeader(code int)        { m.status = code }
func (m *memResponse) Write(p []byte) (int, error) { return m.body.Write(p) }

// call runs one request through the handler in-process — JSON decode and
// encode included, no socket — and returns the raw answer.
func (s *frameSite) call(ctx context.Context, body []byte) (int, *memResponse) {
	req := (&http.Request{
		Method: http.MethodPost, URL: offloadURL, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: http.Header{"Content-Type": {"application/json"}},
		Body:   io.NopCloser(bytes.NewReader(body)), ContentLength: int64(len(body)),
	}).WithContext(ctx)
	w := &memResponse{hdr: make(http.Header), status: http.StatusOK}
	s.handler.ServeHTTP(w, req)
	return w.status, w
}

// decodeAnswer parses a 200 body. Go prints float64 in the shortest form
// that reads back exactly, so the logits survive JSON bit for bit.
func decodeAnswer(status int, body []byte) (answer, error) {
	a := answer{status: status}
	if status != http.StatusOK {
		return a, nil
	}
	var resp serve.OffloadResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return a, err
	}
	a.logits, a.hops = resp.Logits, len(resp.Hops)
	return a, nil
}

func encodeBodies(tasks []core.Task, frames [][][]float64, deadlineMS float64) ([][][]byte, error) {
	out := make([][][]byte, len(tasks))
	for t := range tasks {
		out[t] = make([][]byte, len(frames[t]))
		for k, px := range frames[t] {
			b, err := json.Marshal(serve.OffloadRequest{Task: tasks[t].ID, Input: px, DeadlineMS: deadlineMS})
			if err != nil {
				return nil, err
			}
			out[t][k] = b
		}
	}
	return out, nil
}

// newFrameSite brings one deployment up — server, backend, registered
// tasks, first epoch, first answer — and returns when that first answer
// is back; this is what setup_s times. deadlineMS is sent with every
// frame (0: the plan-time L_τ, negative: none).
func newFrameSite(inst *core.Instance, in *inputs, deadlineMS float64, rec *recorder) (*frameSite, error) {
	real, err := exec.NewReal(realConfig())
	if err != nil {
		return nil, err
	}
	var backend exec.Backend = real
	if rec != nil {
		backend = &tracingBackend{Backend: real, rec: rec}
	}
	srv, err := serve.New(serve.Config{Res: inst.Res, Alpha: inst.Alpha, Debounce: noDebounce, Backend: backend})
	if err != nil {
		real.Close()
		return nil, err
	}
	s := &frameSite{srv: srv, handler: srv, rec: rec, tasks: inst.Tasks}
	if rec != nil {
		s.handler = traced(rec, "", map[string]string{"/v1/offload": "serve.offload"}, srv)
	}
	if err := registerAll(srv, inst); err != nil {
		srv.Close()
		return nil, err
	}
	t0 := time.Now()
	if err := srv.ResolveNow(); err != nil {
		srv.Close()
		return nil, err
	}
	s.coldEpoch = time.Since(t0)
	ep := srv.Current()
	s.paths = make([]string, len(inst.Tasks))
	first := -1
	for t := range inst.Tasks {
		if a, ok := ep.Assignment(inst.Tasks[t].ID); ok {
			s.paths[t] = pathSig(a.Path.Blocks)
			if first < 0 {
				first = t
			}
		}
	}
	if first < 0 {
		srv.Close()
		return nil, fmt.Errorf("first epoch admits no task")
	}
	body, err := json.Marshal(serve.OffloadRequest{Task: inst.Tasks[first].ID, Input: in.Frames[first][0], DeadlineMS: deadlineMS})
	if err != nil {
		srv.Close()
		return nil, err
	}
	status, w := s.call(context.Background(), body)
	s.setupFirst, err = decodeAnswer(status, w.body.Bytes())
	if err != nil || status != http.StatusOK {
		srv.Close()
		return nil, fmt.Errorf("first offload of %s: status %d: %v", inst.Tasks[first].ID, status, err)
	}
	s.deadlineMS = deadlineMS
	return s, nil
}

// pathSig names a deployed path the way exec.Stats().PathPrecisions keys
// it; splitSig is its inverse.
func pathSig(blocks []string) string { return strings.Join(blocks, "|") }

// buildOracle encodes the request bodies and computes the reference logits of every (admitted task,
// frame) pair on a second backend that serves one request at a time
// (batch 1, so no batching, window or sharding is involved), then
// verifies the answer setup already received. It also records each
// path's effective precision and fails when the accuracy gate demoted an
// @f32 path to f64: the deployment would no longer measure what the
// workload says it does.
func (s *frameSite) buildOracle(in *inputs) (err error) {
	if s.bodies, err = encodeBodies(s.tasks, in.Frames, s.deadlineMS); err != nil {
		return err
	}
	ep := s.srv.Current()
	_, blocks, _ := s.srv.Registry().Snapshot()
	cfg := realConfig()
	cfg.BatchSize = 1
	ref, err := exec.NewReal(cfg)
	if err != nil {
		return err
	}
	defer ref.Close()
	if err := ref.Install(&exec.Plan{
		Epoch: ep.N, Tasks: ep.Tasks, Blocks: blocks, Res: s.srv.Resources(), Deployment: ep.Deployment,
	}); err != nil {
		return fmt.Errorf("oracle install: %w", err)
	}
	s.refs = make([][][]float64, len(s.tasks))
	for t := range s.tasks {
		if s.paths[t] == "" {
			continue
		}
		s.refs[t] = make([][]float64, len(in.Frames[t]))
		for k, px := range in.Frames[t] {
			out, err := ref.Infer(context.Background(), exec.Request{TaskID: s.tasks[t].ID, Input: px})
			if err != nil {
				return fmt.Errorf("oracle %s frame %d: %w", s.tasks[t].ID, k, err)
			}
			s.refs[t][k] = out.Logits
		}
	}
	s.precisions = s.srv.Backend().Stats().PathPrecisions
	for sig, p := range s.precisions {
		if want := declaredPrecision(sig); want == "f32" && p == "f64" {
			return fmt.Errorf("path %s declared @f32 runs at f64: accuracy gate demoted it", sig)
		}
		if got := ref.Stats().PathPrecisions[sig]; got != p {
			return fmt.Errorf("path %s runs at %s, oracle at %s", sig, p, got)
		}
	}
	first := slices.IndexFunc(s.paths, func(p string) bool { return p != "" })
	if !slices.Equal(s.setupFirst.logits, s.refs[first][0]) {
		return fmt.Errorf("first answer of %s differs from its reference", s.tasks[first].ID)
	}
	return nil
}

// declaredPrecision is the precision a path signature's block IDs ask
// for.
func declaredPrecision(sig string) string {
	for _, id := range splitSig(sig) {
		if _, p, err := dnn.BlockIDPrecision(id); err == nil && p.String() != "f64" {
			return p.String()
		}
	}
	return "f64"
}

func splitSig(sig string) []string { return strings.Split(sig, "|") }

// sample is one request's record. Latency runs from the instant the
// request was due (open loop) or issued (closed loop) to its answer; due
// is that instant as an offset from the loop's start, and late is how
// long after it the open loop's dispatcher got to the request.
type sample struct {
	task    int
	status  int
	latency time.Duration
	wrong   bool
	due     time.Duration
	late    time.Duration
}

// statusDropped marks an arrival the open loop never sent because
// inFlightCap requests were outstanding.
const statusDropped = -1

// offload sends frame k of task t, timing from `from`, and checks a 200
// against the oracle after the clock has stopped.
func (s *frameSite) offload(ctx context.Context, t, k int, from time.Time) sample {
	status, w := s.call(ctx, s.bodies[t][k])
	out := sample{task: t, status: status, latency: time.Since(from)}
	if status == http.StatusOK {
		a, err := decodeAnswer(status, w.body.Bytes())
		out.wrong = err != nil || s.refs[t] == nil || !slices.Equal(a.logits, s.refs[t][k])
	}
	return out
}

// arrival is one open-loop request: when it is due (offset from the
// loop's start) and what it carries.
type arrival struct {
	due  time.Duration
	task int
	k    int
}

// periodicArrivals gives every task a source at its rate: frame n of task
// t is due at a seeded instant drawn uniformly from the task's n-th
// period (counted from its seeded phase), and the sources are merged in
// due order. Were the frames due at fixed instants of their periods, the
// tasks' equal periods would lock the whole schedule into one repeating
// pattern, and a percentile would report which tasks the seed made
// collide, not the server.
func periodicArrivals(tasks []core.Task, in *inputs, d time.Duration) []arrival {
	var out []arrival
	for t := range tasks {
		period := float64(time.Second) / tasks[t].Rate
		for n := 0; ; n++ {
			due := time.Duration((in.Phases[t] + float64(n) + in.Wobble[(n+t*257)%pickLen]) * period)
			if due >= d {
				break
			}
			out = append(out, arrival{due: due, task: t, k: in.pick(t, n)})
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].due < out[b].due })
	return out
}

// fixedRateArrivals is one source at rate/s, round-robin over the tasks.
func fixedRateArrivals(tasks int, rate float64, in *inputs, d time.Duration) []arrival {
	gap := time.Duration(float64(time.Second) / rate)
	var out []arrival
	for n := 0; time.Duration(n)*gap < d; n++ {
		out = append(out, arrival{due: time.Duration(n) * gap, task: n % tasks, k: in.pick(n%tasks, n/tasks)})
	}
	return out
}

// loopResult is one pass of a loop: window is how long it was asked to
// run, elapsed how long it took until the last answer was back.
type loopResult struct {
	samples []sample
	window  time.Duration
	elapsed time.Duration
}

// openLoop dispatches the arrivals of a d-long schedule from one
// goroutine, each request in a goroutine of its own, and waits for the
// last answer. precise selects sleepUntil's precise wait.
func (s *frameSite) openLoop(arrivals []arrival, d time.Duration, precise bool) loopResult {
	res := loopResult{samples: make([]sample, len(arrivals)), window: d}
	sem := make(chan struct{}, inFlightCap) // counting semaphore
	var wg sync.WaitGroup
	var reqID atomic.Int64
	start := time.Now()
	for i, a := range arrivals {
		due := start.Add(a.due)
		sleepUntil(due, precise)
		late := time.Since(due)
		select {
		case sem <- struct{}{}:
		default:
			res.samples[i] = sample{task: a.task, status: statusDropped, due: a.due, late: late}
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, done := s.rec.request(context.Background(), reqID.Add(1))
			res.samples[i] = s.offload(ctx, a.task, a.k, due)
			done()
			res.samples[i].due, res.samples[i].late = a.due, late
			<-sem
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// timerSlack is how far the runtime's timers may oversleep on an idle
// box (they round to the millisecond).
const timerSlack = 1500 * time.Microsecond

// sleepUntil returns at `due`. A precise wait sleeps to within timerSlack
// of it and yields the processor in a loop for the rest, so a sparse
// schedule is dispatched on time without holding a CPU the server wants.
// A dense schedule must not ask for that — it would never stop yielding,
// and a runnable dispatcher costs a saturated server throughput — so it
// only sleeps; its lateness is reported, and counted in every latency.
func sleepUntil(due time.Time, precise bool) {
	d := time.Until(due)
	if !precise {
		if d > 0 {
			time.Sleep(d)
		}
		return
	}
	if d > timerSlack {
		time.Sleep(d - timerSlack)
	}
	for time.Now().Before(due) {
		runtime.Gosched()
	}
}

// closedLoop runs `callers` in-process callers, each sending its next
// frame as soon as the previous answer is back, for d.
func (s *frameSite) closedLoop(callers int, in *inputs, d time.Duration) loopResult {
	per := make([][]sample, callers)
	var wg sync.WaitGroup
	var reqID atomic.Int64
	start := time.Now()
	stop := start.Add(d)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; time.Now().Before(stop); n++ {
				t := (c + n) % len(s.tasks)
				ctx, done := s.rec.request(context.Background(), reqID.Add(1))
				issued := time.Now()
				sm := s.offload(ctx, t, in.pick(c, n), issued)
				done()
				sm.due = issued.Sub(start)
				per[c] = append(per[c], sm)
			}
		}()
	}
	wg.Wait()
	res := loopResult{window: d, elapsed: time.Since(start)}
	for _, p := range per {
		res.samples = append(res.samples, p...)
	}
	return res
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
