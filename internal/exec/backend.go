// Package exec is the serving daemon's execution layer: the piece that
// turns a solved deployment (which paths are admitted, which blocks are
// active) into something that can actually answer an offloaded request.
//
// The layer is a single pluggable interface with two implementations:
//
//   - Real assembles tensor-backed models per deployed path from the
//     block catalog, instantiating each shared block exactly once
//     (refcounted across paths and epochs — the operational form of the
//     paper's constraint (1b) memory sharing) and running admitted
//     requests through per-model batching queues that feed
//     dnn.Model.ForwardBatch. The queues are deadline-aware: intake is
//     earliest-deadline-first, the batch window adapts to the tightest
//     pending slack, already-late requests are shed before they enter a
//     batch, and a bounded queue depth sheds the latest-deadline waiter
//     under overload.
//
//   - Simulated answers with the deployment's planned cost model
//     (edge.PlanCosts — the same arithmetic the Fig. 11 emulator and
//     the resolver's predicted latency use), so the predict-only serving
//     mode stops being a parallel code path.
//
// The resolver installs every published epoch into the backend
// atomically with the deployment swap: blocks shared between consecutive
// epochs are retained (warm swap), blocks no surviving path references
// are released.
package exec

import (
	"context"
	"errors"
	"fmt"
	"time"

	"offloadnn/internal/core"
	"offloadnn/internal/edge"
)

// errNoModel reports an Infer for a task the installed plan does not
// admit (or before any plan was installed).
var errNoModel = errors.New("exec: no model deployed for task")

// ErrBadInput reports an input tensor whose length does not match the
// backend's expected input shape.
var ErrBadInput = errors.New("exec: input does not match model input shape")

// errReleased reports an Infer that raced an epoch swap which released
// the task's model; the caller should retry against the new epoch.
var errReleased = errors.New("exec: model released by epoch swap")

// errClosed reports use of a closed backend.
var errClosed = errors.New("exec: backend closed")

// ErrLate reports a request shed because its deadline had already passed
// before it entered a batch: serving it would burn compute on a result
// the caller's latency bound L_τ makes worthless, and drag every
// co-batched request later. The serving layer maps it to a 504-style
// envelope.
var ErrLate = errors.New("exec: request past deadline, shed")

// ErrQueueFull reports a request shed by overload backpressure: the
// model's bounded intake queue was full and this request held the latest
// deadline among the waiters (the least worth serving), so it was shed
// rather than growing an unbounded backlog.
var ErrQueueFull = errors.New("exec: batching queue full, shed")

// Segment is one stage-range of a split path assigned to this node: a
// cluster placement may pipeline a path across nodes, and each node
// installs only its contiguous slice. Blocks is always the FULL path's
// block-ID list — the range indexes into it, and keeping the whole list
// lets a quantized segment rebuild the complete path locally for
// calibration, so every node derives identical activation scales.
type Segment struct {
	// TaskID is the task the split plan serves.
	TaskID string
	// PathID and DNN identify the catalog path being split.
	PathID string
	DNN    string
	// Blocks is the full path's ordered block-ID list.
	Blocks []string
	// From and To bound this node's stage range [From, To) into Blocks.
	// From == 0 makes this the head segment (it includes the stem and
	// consumes raw frames); To == len(Blocks) makes it the tail (it
	// includes the classifier and emits logits).
	From, To int
	// Rate is the admitted request rate z·λ the plan routes into this
	// range: the batch window reads it to tell whether a second request
	// can arrive before the timer fires.
	Rate float64
}

// Validate reports a range that does not index the segment's block list.
func (s Segment) Validate() error {
	if n := len(s.Blocks); s.From < 0 || s.To > n || s.From >= s.To {
		return fmt.Errorf("exec: segment %s range [%d,%d) outside path of %d blocks", s.TaskID, s.From, s.To, n)
	}
	return nil
}

// head reports whether the segment consumes raw frames.
func (s Segment) head() bool { return s.From == 0 }

// tail reports whether the segment emits logits.
func (s Segment) tail() bool { return s.To == len(s.Blocks) }

// Plan is one epoch's deployment handed to the backend: the task
// snapshot the assignments are parallel to, the block catalog, the
// resource pool and the controller's deployment. A nil Deployment (empty
// registry) releases every model.
type Plan struct {
	// Epoch is the sequence number of the epoch being installed.
	Epoch uint64
	// Node optionally names the cluster member installing the plan;
	// empty for a standalone daemon. Labels backend diagnostics.
	Node string
	// Tasks is the task order Deployment.Solution.Assignments is
	// parallel to.
	Tasks []core.Task
	// Blocks is the catalog every path's block IDs resolve against.
	Blocks map[string]core.BlockSpec
	// Res is the capacity pool the plan was solved against.
	Res core.Resources
	// Deployment is the admission outcome; nil for an empty registry.
	Deployment *edge.Deployment
	// Segments lists the stage-range slices of split paths this node
	// serves. Every admitted assignment in Deployment is installed as one
	// more segment — the range [0, n) of its path — so the two forms of the
	// same path share one model.
	Segments []Segment
}

// Request is one admitted offload handed to the backend: the task whose
// deployed model should answer, the flattened input tensor, and the
// caller's completion deadline.
type Request struct {
	// TaskID selects the deployed model (via the installed plan's
	// task → path routing).
	TaskID string
	// Input is the flattened input tensor: a raw frame in (C, H, W)
	// order (RealConfig.Input) when FromStage is 0, otherwise the boundary
	// activation entering stage index FromStage of the task's split
	// path.
	Input []float64
	// FromStage selects which installed range serves the request: 0 (a
	// raw frame, the head or a whole path) or the From of an installed
	// mid-path segment.
	FromStage int
	// Deadline is the wall-clock instant after which the result is
	// worthless — the serving layer derives it from the task's plan-time
	// latency bound L_τ (optionally overridden per request). The zero
	// time means no deadline: the request is never shed for lateness and
	// sorts after every deadline-carrying request in EDF intake order.
	Deadline time.Time
}

// Output is the result of one executed offload.
type Output struct {
	// Logits is the model output row for the request's input; nil when
	// the backend does not run a real model (Simulated) or when the
	// serving range is a non-tail segment (see Activation).
	Logits []float64
	// Argmax is the index of the largest logit (class prediction);
	// -1 when Logits is nil.
	Argmax int
	// Activation is the boundary activation a non-tail segment emits
	// instead of logits, flattened in ActShape order; the serving layer
	// forwards it to the next hop.
	Activation []float64
	// ActShape is Activation's (C, H, W).
	ActShape [3]int
	// BatchSize is the size of the batch the request was served in.
	BatchSize int
	// Latency is the measured (Real) or modeled (Simulated) end-to-end
	// execution time of the request.
	Latency time.Duration
	// Simulated marks outputs produced by the cost model rather than a
	// real forward pass.
	Simulated bool
}

// Stats is a point-in-time snapshot of the backend's execution state,
// exported on /metrics.
type Stats struct {
	// Models is the number of live assembled models.
	Models int
	// Blocks is the number of live shared block instances.
	Blocks int
	// QueueDepth is the number of requests waiting in batching queues.
	QueueDepth int
	// LastBatchSize is the size of the most recently executed batch.
	LastBatchSize int
	// Batches and Requests count executed batches and the requests they
	// carried since the backend was constructed; Requests/Batches is the
	// achieved average batch size.
	Batches  int64
	Requests int64
	// ShedLate counts requests shed because their deadline had already
	// passed before they entered a batch (ErrLate).
	ShedLate int64
	// ShedQueueFull counts requests shed by bounded-queue backpressure
	// (ErrQueueFull) — the latest-deadline waiter when a queue overflows.
	ShedQueueFull int64
	// ShedCanceled counts requests whose caller disconnected (context
	// canceled) after enqueue: their compute is skipped when the
	// cancellation is seen before batch assembly, and their result copy
	// is skipped when it is seen after execution.
	ShedCanceled int64
	// DeadlineHits and DeadlineMisses count deadline-carrying requests by
	// outcome: a request served at or before its deadline is a hit; one
	// served late, or shed for lateness or backpressure, is a miss.
	// DeadlineHits/(DeadlineHits+DeadlineMisses) is the deadline hit
	// ratio exported on /metrics.
	DeadlineHits   int64
	DeadlineMisses int64
	// QueueSlack maps each deployed path signature to the tightest
	// remaining slack (earliest waiter deadline minus now) in its intake
	// queue; negative when an already-late request is waiting. Paths with
	// no deadline-carrying waiters are absent. Nil for backends without
	// batching queues.
	QueueSlack map[string]time.Duration
	// LastWindow is the batch window most recently applied by an
	// adaptive-window executor: BatchWindow when slack is plentiful,
	// shrunk toward zero under deadline pressure, and zero on a path whose
	// admitted rate expects no second request inside the window.
	LastWindow time.Duration
	// QuantFallbacks counts reduced-precision paths the install-time
	// accuracy gate demoted a tier (i8→f32 or f32→f64). Each demotion
	// step of each gated path counts once.
	QuantFallbacks int64
	// PathPrecisions maps each deployed path signature to the kernel
	// precision it currently runs at ("f64", "f32" or "i8") after any
	// gate demotions; nil for backends without real models.
	PathPrecisions map[string]string
}

// Backend executes admitted offloads under the currently installed plan.
// Install and Close serialize with each other (the resolver calls them
// under its solve lock); Infer is safe for concurrent use and may
// overlap an Install (requests racing a swap that releases their model
// get errReleased).
type Backend interface {
	// Install swaps the backend onto a new epoch's deployment, building
	// models for newly admitted paths, retaining those shared with the
	// previous epoch and releasing the rest. An error leaves the
	// previous plan in place.
	Install(plan *Plan) error
	// Infer runs one request's input through the model deployed for its
	// task, honoring the request deadline: a deadline-aware backend
	// orders intake earliest-deadline-first and sheds requests that are
	// already late (ErrLate) or squeezed out by backpressure
	// (ErrQueueFull) instead of serving stale results.
	Infer(ctx context.Context, req Request) (Output, error)
	// Stats snapshots the execution counters.
	Stats() Stats
	// Close releases every model and stops the batching executors.
	Close()
}
