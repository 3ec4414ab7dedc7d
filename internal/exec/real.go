package exec

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"offloadnn/internal/dnn"
	"offloadnn/internal/faultinject"
)

// RealConfig parameterizes the tensor-backed execution backend. Every
// model's batching queue takes requests earliest-deadline-first (see
// lessReq): with no deadlines set, that is exact arrival order.
type RealConfig struct {
	// Model is the scaled architecture template every catalog block is
	// instantiated from (zero value: dnn.DefaultResNetConfig).
	Model dnn.ResNetConfig
	// Input is the per-request input shape (C, H, W); zero value:
	// (Model.InChannels, 8, 8).
	Input [3]int
	// BatchSize bounds how many admitted requests one ForwardBatch call
	// serves (default 8; 1 disables batching).
	BatchSize int
	// BatchWindow bounds how long a partially filled batch waits for
	// more requests before executing (default 2 ms). The window is zero
	// on a path whose admitted rate expects no second request inside it
	// (rate × BatchWindow < 1).
	BatchWindow time.Duration
	// QueueDepth bounds how many requests may wait in one model's intake
	// queue before backpressure sheds the latest-deadline waiter
	// (ErrQueueFull). Default 16×BatchSize; negative disables the bound.
	QueueDepth int
	// Faults optionally arms the exec.slow / exec.hang chaos points in
	// the batch executors. Nil (the usual case) costs a nil check.
	Faults *faultinject.Injector
	// Logf, when set, receives install and gate diagnostics. Nil discards.
	Logf func(string, ...any)
}

// Real is the tensor-backed execution backend. Install assembles one
// dnn.Model per distinct admitted path, aliasing refcounted shared block
// instances; Infer funnels requests into per-model batching queues that
// execute dnn.Model.ForwardBatch.
type Real struct {
	cfg RealConfig

	// mu guards lib/models/closed across Install/Close/Stats; the Infer
	// hot path reads only the atomic routes pointer.
	mu     sync.Mutex
	lib    map[string]*blockInstance
	models map[string]*modelEntry
	closed bool

	// routes maps task ID → model entry for the installed plan; swapped
	// atomically so Infer never takes mu.
	routes atomic.Pointer[map[string]*modelEntry]

	lastBatch      atomic.Int64
	batches        atomic.Int64
	requests       atomic.Int64
	quantFallbacks atomic.Int64
	shedLate       atomic.Int64
	shedQueueFull  atomic.Int64
	shedCanceled   atomic.Int64
	deadlineHits   atomic.Int64
	deadlineMisses atomic.Int64
	lastWindow     atomic.Int64
	wg             sync.WaitGroup

	// closeCtx is canceled by Close; it bounds the exec.hang chaos point
	// so a wedged executor unwedges at shutdown.
	closeCtx    context.Context
	closeCancel context.CancelFunc

	// batchHook, when set by white-box tests before Install, runs at the
	// head of every batch execution with the batch size — the hook for
	// deterministic batch-cost injection and executor gating.
	batchHook func(n int)
}

// NewReal constructs a tensor-backed backend; every Infer fails with
// errNoModel until the first Install.
func NewReal(cfg RealConfig) (*Real, error) {
	if cfg.Model.BaseWidth == 0 {
		cfg.Model = dnn.DefaultResNetConfig()
	}
	if cfg.Input == [3]int{} {
		cfg.Input = [3]int{cfg.Model.InChannels, 8, 8}
	}
	if cfg.Input[0] != cfg.Model.InChannels {
		return nil, fmt.Errorf("exec: input channels %d != model channels %d", cfg.Input[0], cfg.Model.InChannels)
	}
	if cfg.Input[1] <= 0 || cfg.Input[2] <= 0 {
		return nil, fmt.Errorf("exec: non-positive input shape %v", cfg.Input)
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 8
	}
	if cfg.BatchWindow <= 0 {
		cfg.BatchWindow = 2 * time.Millisecond
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 16 * cfg.BatchSize
	}
	r := &Real{
		cfg:    cfg,
		lib:    make(map[string]*blockInstance),
		models: make(map[string]*modelEntry),
	}
	r.closeCtx, r.closeCancel = context.WithCancel(context.Background())
	empty := map[string]*modelEntry{}
	r.routes.Store(&empty)
	return r, nil
}

// Infer implements Backend: the request joins its model's batching
// queue in EDF order and blocks until the batch it lands in
// executes. Requests already past their deadline are shed before they
// touch the queue (ErrLate); a full queue sheds its latest-deadline
// waiter (ErrQueueFull). The measured latency spans enqueue to result —
// queueing, batching wait and the forward pass.
func (r *Real) Infer(ctx context.Context, req Request) (Output, error) {
	e := (*r.routes.Load())[RouteKey(req.TaskID, req.FromStage)]
	if e == nil {
		return Output{}, fmt.Errorf("%w: %q (stage %d)", errNoModel, req.TaskID, req.FromStage)
	}
	want := e.inShape[0] * e.inShape[1] * e.inShape[2]
	if len(req.Input) != want {
		return Output{}, fmt.Errorf("%w: got %d values, model wants %d (%dx%dx%d)",
			ErrBadInput, len(req.Input), want, e.inShape[0], e.inShape[1], e.inShape[2])
	}
	var dl int64
	if !req.Deadline.IsZero() {
		dl = req.Deadline.UnixNano()
	}
	if dl != 0 && time.Now().UnixNano() >= dl {
		r.shedLate.Add(1)
		r.deadlineMisses.Add(1)
		return Output{}, ErrLate
	}
	q := &inferReq{ctx: ctx, input: req.Input, deadline: dl, resp: make(chan inferResp, 1)}
	start := time.Now()
	if err := r.enqueue(e, q); err != nil {
		return Output{}, err
	}
	select {
	case resp := <-q.resp:
		if resp.err != nil {
			return Output{}, resp.err
		}
		if !e.emitsLogits {
			return Output{
				Activation: resp.logits,
				ActShape:   e.outShape,
				Argmax:     -1,
				BatchSize:  resp.batch,
				Latency:    time.Since(start),
			}, nil
		}
		argmax := 0
		for i, v := range resp.logits {
			if v > resp.logits[argmax] {
				argmax = i
			}
		}
		return Output{
			Logits:    resp.logits,
			Argmax:    argmax,
			BatchSize: resp.batch,
			Latency:   time.Since(start),
		}, nil
	case <-ctx.Done():
		// The request stays queued (or in flight); the executor detects
		// the cancellation, skips or drops its result, and counts it
		// under ShedCanceled (resp is buffered, nothing blocks).
		return Output{}, ctx.Err()
	}
}

// Stats implements Backend.
func (r *Real) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	depth := 0
	precisions := make(map[string]string, len(r.models))
	var slack map[string]time.Duration
	now := time.Now().UnixNano()
	for sig, e := range r.models {
		e.qmu.Lock()
		depth += e.queue.Len()
		var minDL int64
		for _, q := range e.queue.items {
			if q.deadline != 0 && (minDL == 0 || q.deadline < minDL) {
				minDL = q.deadline
			}
		}
		e.qmu.Unlock()
		if minDL != 0 {
			if slack == nil {
				slack = make(map[string]time.Duration)
			}
			slack[sig] = time.Duration(minDL - now)
		}
		precisions[sig] = e.prec.String()
	}
	return Stats{
		Models:         len(r.models),
		Blocks:         len(r.lib),
		QueueDepth:     depth,
		LastBatchSize:  int(r.lastBatch.Load()),
		Batches:        r.batches.Load(),
		Requests:       r.requests.Load(),
		ShedLate:       r.shedLate.Load(),
		ShedQueueFull:  r.shedQueueFull.Load(),
		ShedCanceled:   r.shedCanceled.Load(),
		DeadlineHits:   r.deadlineHits.Load(),
		DeadlineMisses: r.deadlineMisses.Load(),
		QueueSlack:     slack,
		LastWindow:     time.Duration(r.lastWindow.Load()),
		QuantFallbacks: r.quantFallbacks.Load(),
		PathPrecisions: precisions,
	}
}

// Close implements Backend: releases every model and waits for the
// batching executors to exit.
func (r *Real) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	for sig, e := range r.models {
		close(e.done)
		delete(r.models, sig)
	}
	r.lib = map[string]*blockInstance{}
	empty := map[string]*modelEntry{}
	r.routes.Store(&empty)
	r.mu.Unlock()
	r.closeCancel()
	r.wg.Wait()
}
