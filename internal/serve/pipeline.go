package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"time"

	"offloadnn/internal/core"
	"offloadnn/internal/dnn"
	"offloadnn/internal/exec"
)

// CodeDeadlineHop is the 504 code for a split-path request whose
// deadline budget ran out mid-pipeline: the frame was admitted and at
// least the head segment ran, but a later hop (transfer included) left
// no budget, so the relay shed it instead of finishing work the client
// will never accept. Distinct from CodeDeadline so clients can tell a
// single-node miss from a multi-hop one.
const CodeDeadlineHop = "deadline_exceeded@hop"

// maxHopAnswer bounds the next hop's answer a relay reads back: an
// OffloadResponse or error envelope, whose hop trail comes from a
// manifest the activation decoder caps at 1 MiB.
const maxHopAnswer = 8 << 20

// unit is the one thing this node serves requests with: a stage range of
// a task's path, entered at From. A whole path is the range [0, n) with
// no next hop, filed from the epoch's own deployment; the other units
// are the segments the coordinator pushed. Units are immutable once
// their epoch is published.
type unit struct {
	SegmentSpec
	// gate admits raw frames at Rate; nil on units entered mid-path, whose
	// pipeline's head already spent the token.
	gate *gate
	// budget is the deadline budget a raw frame starts with: L_τ for a
	// whole path, BudgetMS for a head segment.
	budget time.Duration
	// planned is the plan-time end-to-end latency of a whole path; zero
	// for a segment, whose pipeline the coordinator priced, not this node.
	planned time.Duration
	// assign is the deployment's assignment behind a whole path; nil for
	// a pushed segment.
	assign *core.Assignment
}

func (u *unit) whole() bool { return u.assign != nil }

// intake is one request entering a unit: a raw frame (or an admission
// probe, a frame without input) from /v1/offload, or a boundary
// activation with its manifest from /v1/stage.
type intake struct {
	task  string
	from  int
	input []float64
	// deadlineMS is /v1/offload's budget override (OffloadRequest.DeadlineMS).
	deadlineMS float64
	// man is the upstream hop's manifest; nil for a raw frame.
	man *dnn.ActivationManifest
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// finite reports whether every x is neither NaN nor ±Inf.
func finite(xs []float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// serveUnit is the request pipeline both entry points run: look the unit
// up, admit the request through its gate (raw frames only), derive the
// deadline from the budget, run the unit's range, then answer with the
// logits or forward the boundary activation to the next hop and relay
// its verdict.
func (s *Server) serveUnit(w http.ResponseWriter, r *http.Request, in intake) {
	ep := s.resolver.Current()
	u := ep.unit(in.task, in.from)
	frame := in.man == nil
	switch {
	case !frame && (u == nil || u.whole()):
		WriteError(w, http.StatusNotFound, CodeUnknownTask,
			"no segment installed for task %q entering stage %d", in.task, in.from)
		return
	case !frame && in.man.Path != u.Path:
		WriteError(w, http.StatusBadRequest, CodeInvalidRequest,
			"activation is for path %q, segment installed for %q", in.man.Path, u.Path)
		return
	case frame && (u == nil || u.whole()) && !s.reg.Has(in.task):
		// A whole path serves only while its task is registered here; a
		// pushed segment's task lives in the coordinator's registry.
		WriteError(w, http.StatusNotFound, CodeUnknownTask, "task %q not registered", in.task)
		return
	}

	if frame {
		if r.Context().Err() != nil {
			// The client is gone: don't burn the task's gate tokens on a
			// response no one will read. 499 is nginx's "client closed
			// request" convention; the status is for the access log only.
			s.stats.aborted.Add(1)
			w.WriteHeader(499)
			return
		}
		if u == nil {
			// Registered but not admitted by the current epoch: either the
			// re-solve is still pending (retry after the debounce window)
			// or the solver rejected the task under current load.
			s.stats.recordReject(in.task)
			w.Header().Set("Retry-After", RetryAfter(s.cfg.Debounce))
			WriteError(w, http.StatusTooManyRequests, CodeNotAdmitted, "task %q not admitted by current epoch", in.task)
			return
		}
		if ok, wait := u.gate.Allow(); !ok {
			s.stats.recordReject(in.task)
			w.Header().Set("Retry-After", RetryAfter(wait))
			WriteError(w, http.StatusTooManyRequests, CodeOverRate,
				"task %q over its admitted rate %.3g req/s", in.task, u.Rate)
			return
		}
		s.stats.recordAdmit(in.task)
	}

	resp := OffloadResponse{
		Task:         in.task,
		Epoch:        ep.N,
		AdmittedRate: u.Rate,
		Path:         u.Path,
		DNN:          u.DNN,
		LatencyMS:    msOf(u.planned),
	}
	if frame && len(in.input) == 0 {
		// Admission probe: the token is spent, report the planned serving
		// parameters.
		WriteJSON(w, http.StatusOK, resp)
		return
	}

	start := s.cfg.now()
	var deadline time.Time
	deadlineCode := CodeDeadline
	if frame {
		// Deadline budget: the unit's by default, a positive DeadlineMS
		// overrides it, a negative one opts out.
		budget := u.budget
		switch {
		case in.deadlineMS > 0:
			budget = time.Duration(in.deadlineMS * float64(time.Millisecond))
		case in.deadlineMS < 0:
			budget = 0
		}
		if budget > 0 {
			deadline = start.Add(budget)
			resp.DeadlineMS = msOf(budget)
			// Under sustained deadline pressure, a request whose planned
			// latency already blows its budget is shed here — the verdict
			// is the same 504 the backend would reach, without burning a
			// queue slot another request could hit its deadline in.
			if u.planned > budget && s.overloaded() {
				s.stats.earlySheds.Add(1)
				WriteError(w, http.StatusGatewayTimeout, CodeDeadline,
					"task %q: predicted latency %.1fms exceeds deadline budget %.1fms under overload",
					in.task, msOf(u.planned), msOf(budget))
				return
			}
		}
	} else {
		deadlineCode = CodeDeadlineHop
		resp.DeadlineMS = in.man.BudgetMS
		if in.man.RemainingMS < 0 {
			s.stats.noteShed(start)
			WriteError(w, http.StatusGatewayTimeout, CodeDeadlineHop,
				"task %q: deadline budget exhausted entering hop %d", in.task, u.Hop)
			return
		}
		if in.man.RemainingMS > 0 {
			// The sender's snapshot is trusted as-is: transfer time between
			// the snapshot and this arrival is absorbed by the next
			// remaining-budget computation, not double-counted here.
			deadline = start.Add(time.Duration(in.man.RemainingMS * float64(time.Millisecond)))
		}
	}

	out, err := s.backend.Infer(r.Context(), exec.Request{TaskID: in.task, Input: in.input, FromStage: in.from, Deadline: deadline})
	if err != nil {
		s.writeInferError(w, err, deadlineCode)
		return
	}
	if !finite(out.Logits) {
		// JSON carries no NaN or ±Inf, and an input that overflows the
		// model is the client's to fix, like one of the wrong shape.
		WriteError(w, http.StatusBadRequest, CodeInvalidRequest,
			"task %q: the input drives the logits to NaN or ±Inf", in.task)
		return
	}
	if frame {
		s.stats.recordInfer(in.task, out.Latency.Seconds())
	}
	resp.MeasuredLatencyMS = msOf(out.Latency)
	resp.BatchSize = out.BatchSize
	resp.Simulated = out.Simulated
	if out.Logits != nil {
		resp.Logits = out.Logits
		am := out.Argmax
		resp.Argmax = &am
	}
	if u.whole() {
		WriteJSON(w, http.StatusOK, resp)
		// The end-to-end sample is measured here, serve-local, for a whole
		// path and when the tail's verdict comes back for a pipeline.
		s.stats.latency.Add(s.cfg.now().Sub(start).Seconds())
		return
	}

	// A pipeline hop: account it, then answer as the tail or forward.
	s.stats.recordHop(out.Latency.Seconds())
	hop := dnn.ActivationHop{Node: s.cfg.Node, LatencyMS: resp.MeasuredLatencyMS}
	if !frame {
		resp.Hops = in.man.Hops
	}
	if out.Logits != nil || out.Simulated || u.tailSeg() {
		// (A cost-model backend produces no activation to forward.)
		resp.Hops = append(resp.Hops, hop)
		if frame {
			s.stats.latency.Add(out.Latency.Seconds())
		}
		WriteJSON(w, http.StatusOK, resp)
		return
	}
	hop.ActivationBytes = len(out.Activation) * 8
	man := dnn.ActivationManifest{
		Task:     in.task,
		Path:     u.Path,
		From:     u.To,
		Shape:    out.ActShape,
		BudgetMS: resp.DeadlineMS,
		Hops:     append(resp.Hops, hop),
	}
	if !deadline.IsZero() {
		man.RemainingMS = msOf(deadline.Sub(s.cfg.now()))
		if man.RemainingMS <= 0 {
			s.stats.noteShed(s.cfg.now())
			WriteError(w, http.StatusGatewayTimeout, CodeDeadlineHop,
				"task %q: deadline budget exhausted after hop %d", in.task, u.Hop)
			return
		}
	}
	status, body, err := s.forwardActivation(r.Context(), u.Next, man, out.Activation)
	if err != nil {
		WriteError(w, http.StatusBadGateway, CodeBackend, "task %q: relay to %s: %v", in.task, u.NextNode, err)
		return
	}
	if !frame || status != http.StatusOK {
		// A middle hop relays the downstream answer, and the head a
		// downstream refusal (a hop-deadline 504, a shed 503), unchanged;
		// the codes are already from this API's vocabulary.
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		w.Write(body)
		return
	}
	var tail OffloadResponse
	if err := json.Unmarshal(body, &tail); err != nil {
		WriteError(w, http.StatusBadGateway, CodeBackend, "task %q: malformed tail response: %v", in.task, err)
		return
	}
	resp.MeasuredLatencyMS = msOf(s.cfg.now().Sub(start))
	resp.BatchSize = tail.BatchSize
	resp.Simulated = tail.Simulated
	resp.Logits = tail.Logits
	resp.Argmax = tail.Argmax
	resp.Hops = tail.Hops
	s.stats.latency.Add(resp.MeasuredLatencyMS / 1e3)
	WriteJSON(w, http.StatusOK, resp)
}

// writeInferError maps an execution-backend error onto the unified
// error envelope. deadlineCode is the 504 code lateness maps to —
// CodeDeadline for a raw frame, CodeDeadlineHop past a pipeline's head.
func (s *Server) writeInferError(w http.ResponseWriter, err error, deadlineCode string) {
	switch {
	case errors.Is(err, exec.ErrBadInput):
		WriteError(w, http.StatusBadRequest, CodeInvalidRequest, "%v", err)
	case errors.Is(err, exec.ErrLate):
		s.stats.noteShed(s.cfg.now())
		WriteError(w, http.StatusGatewayTimeout, deadlineCode, "%v", err)
	case errors.Is(err, exec.ErrQueueFull):
		s.stats.noteShed(s.cfg.now())
		w.Header().Set("Retry-After", RetryAfter(s.cfg.Debounce))
		WriteError(w, http.StatusServiceUnavailable, CodeOverload, "%v", err)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		s.stats.aborted.Add(1)
		w.WriteHeader(499)
	default:
		// ErrNoModel/ErrReleased mean the request raced an epoch swap;
		// the client retries against the new epoch like any backend
		// failure.
		WriteError(w, http.StatusInternalServerError, CodeBackend, "%v", err)
	}
}

// forwardActivation encodes the envelope and posts it to the next hop's
// /v1/stage, returning the downstream status and body.
func (s *Server) forwardActivation(ctx context.Context, next string, man dnn.ActivationManifest, act []float64) (int, []byte, error) {
	var buf bytes.Buffer
	if err := dnn.EncodeActivation(&buf, man, act); err != nil {
		return 0, nil, err
	}
	s.stats.activationBytes.Add(uint64(buf.Len()))
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, next+"/v1/stage", bytes.NewReader(buf.Bytes()))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	res, err := s.stageClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer res.Body.Close()
	body, err := io.ReadAll(io.LimitReader(res.Body, maxHopAnswer))
	if err != nil {
		return 0, nil, err
	}
	return res.StatusCode, body, nil
}
