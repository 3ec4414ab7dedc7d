package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"offloadnn/internal/exec"
)

// Tracing lives entirely in the benchmark: spans are taken around the
// calls into each layer (an http.Handler middleware around every
// Server/MemberHandler/Coordinator, a delegating exec.Backend around
// every backend), kept in memory and written to bench/out at exit. The
// program under test carries no request identity yet, so in-process
// requests thread the parent span through the context, and spans that
// crossed a socket are nested afterwards by time containment (the traced
// split-pipeline pass keeps one request in flight for that reason).

// span is one timed call into a layer.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`  // 0: root
	Request int64  `json:"request"` // 0: not attributed
	Name    string `json:"name"`
	Node    string `json:"node,omitempty"`
	Start   int64  `json:"start_ns"` // since the recorder's epoch
	End     int64  `json:"end_ns"`
	// Batch is the batch size an exec.infer span was served in.
	Batch int `json:"batch,omitempty"`
	// Task is the task an exec.infer span served.
	Task string `json:"task,omitempty"`
	// Status is the HTTP status a handler span answered.
	Status int `json:"status,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder collects spans. Handler and request spans are recorded only
// while it is on; install spans always.
type recorder struct {
	epoch  time.Time
	on     atomic.Bool
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

type spanKey struct{}

// begin opens a span whose parent and request come from ctx.
func (r *recorder) begin(ctx context.Context, name, node string) (context.Context, *span) {
	sp := &span{ID: r.nextID.Add(1), Name: name, Node: node, Start: int64(time.Since(r.epoch))}
	if p, ok := ctx.Value(spanKey{}).(*span); ok {
		sp.Parent, sp.Request = p.ID, p.Request
	}
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// request opens the root span ("bench.request") of client request number
// req and returns the context carrying it and the function that closes
// it. On a nil recorder, or one that is off, it records nothing.
func (r *recorder) request(ctx context.Context, req int64) (context.Context, func()) {
	if r == nil || !r.on.Load() {
		return ctx, func() {}
	}
	ctx, sp := r.begin(ctx, "bench.request", "")
	sp.Request = req
	return ctx, func() { r.end(sp) }
}

func (r *recorder) end(sp *span) {
	sp.End = int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans = append(r.spans, *sp)
	r.mu.Unlock()
}

// take returns the recorded spans and clears the recorder.
func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}

// statusWriter remembers the status a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// traced wraps a handler so every request on one of the given paths is a
// span named after its path ("serve.offload", "serve.stage",
// "cluster.offload") while the recorder is on.
func traced(r *recorder, node string, names map[string]string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		name, ok := names[req.URL.Path]
		if !ok || !r.on.Load() {
			next.ServeHTTP(w, req)
			return
		}
		ctx, sp := r.begin(req.Context(), name, node)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, req.WithContext(ctx))
		sp.Status = sw.status
		r.end(sp)
	})
}

// tracingBackend delegates to an exec.Backend, recording a span per
// Install (always) and per Infer (while the recorder is on).
type tracingBackend struct {
	exec.Backend
	rec  *recorder
	node string
}

func (b *tracingBackend) Install(plan *exec.Plan) error {
	_, sp := b.rec.begin(context.Background(), "exec.install", b.node)
	err := b.Backend.Install(plan)
	b.rec.end(sp)
	return err
}

func (b *tracingBackend) Infer(ctx context.Context, req exec.Request) (exec.Output, error) {
	if !b.rec.on.Load() {
		return b.Backend.Infer(ctx, req)
	}
	_, sp := b.rec.begin(ctx, "exec.infer", b.node)
	out, err := b.Backend.Infer(ctx, req)
	sp.Batch, sp.Task = out.BatchSize, req.TaskID
	b.rec.end(sp)
	return out, err
}

// nestByTime gives every parentless span the innermost span that
// contains it in time as parent, and that parent's request. Valid only
// when at most one request was in flight.
func nestByTime(spans []span) {
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		sa, sb := &spans[order[a]], &spans[order[b]]
		if sa.Start != sb.Start {
			return sa.Start < sb.Start
		}
		return sa.End > sb.End
	})
	var stack []int
	for _, i := range order {
		sp := &spans[i]
		for len(stack) > 0 && spans[stack[len(stack)-1]].End < sp.End {
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 && sp.Parent == 0 {
			top := &spans[stack[len(stack)-1]]
			sp.Parent, sp.Request = top.ID, top.Request
		}
		stack = append(stack, i)
	}
}

// childTime sums, per parent span ID, the durations of its direct
// children named `name`. A span's self time is its duration minus the
// time its children cover; the children recorded here never overlap, so
// the sum is that cover.
func childTime(spans []span, name string) map[int64]time.Duration {
	out := make(map[int64]time.Duration)
	for i := range spans {
		if sp := &spans[i]; sp.Parent != 0 && sp.Name == name {
			out[sp.Parent] += sp.dur()
		}
	}
	return out
}

// writeSpans stores a traced run's spans under bench/out.
func writeSpans(dir, workload string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	buf, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".spans.json"), buf, 0o644)
}
