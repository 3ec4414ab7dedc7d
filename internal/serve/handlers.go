package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"offloadnn/internal/core"
	"offloadnn/internal/dnn"
	"offloadnn/internal/metrics"
)

// TaskSpec is the JSON body of POST /v1/tasks: the request-side fields
// of a core.Task. Candidate paths are built server-side from the
// configured DNN catalog.
type TaskSpec struct {
	ID           string  `json:"id"`
	Priority     float64 `json:"priority"`
	Rate         float64 `json:"rate"`
	MinAccuracy  float64 `json:"min_accuracy"`
	MaxLatencyMS float64 `json:"max_latency_ms"`
	InputBits    float64 `json:"input_bits"`
	SNRdB        float64 `json:"snr_db"`
}

// Task converts the spec into a core.Task (without paths).
func (s TaskSpec) Task() core.Task {
	return core.Task{
		ID:          s.ID,
		Priority:    s.Priority,
		Rate:        s.Rate,
		MinAccuracy: s.MinAccuracy,
		MaxLatency:  time.Duration(s.MaxLatencyMS * float64(time.Millisecond)),
		InputBits:   s.InputBits,
		SNRdB:       s.SNRdB,
	}
}

// OffloadRequest is the JSON body of POST /v1/offload. A request without
// Input is an admission probe (pre-execution-layer behavior): it spends a
// gate token and returns the planned serving parameters. A request with
// Input runs the frame through the execution backend after the gate
// admits it.
type OffloadRequest struct {
	Task string `json:"task"`
	// Input is the flattened input tensor (C·H·W values in the
	// backend's (C, H, W) order); empty for an admission probe.
	Input []float64 `json:"input,omitempty"`
	// DeadlineMS overrides the request's deadline budget. Zero (absent)
	// uses the task's plan-time latency bound L_τ; positive replaces it;
	// negative opts the request out of any deadline. Ignored for
	// admission probes (no execution, nothing to miss).
	DeadlineMS float64 `json:"deadline_ms,omitempty"`
}

// OffloadResponse is the success body of POST /v1/offload: the epoch
// that admitted the request, the planned serving parameters, and — for
// executed requests — the model output and measured latency.
type OffloadResponse struct {
	Task         string  `json:"task"`
	Epoch        uint64  `json:"epoch"`
	AdmittedRate float64 `json:"admitted_rate"`
	Path         string  `json:"path,omitempty"`
	DNN          string  `json:"dnn,omitempty"`
	LatencyMS    float64 `json:"latency_ms"`
	// Executed fields, present only when the request carried an input.
	MeasuredLatencyMS float64   `json:"measured_latency_ms,omitempty"`
	BatchSize         int       `json:"batch_size,omitempty"`
	Logits            []float64 `json:"logits,omitempty"`
	Argmax            *int      `json:"argmax,omitempty"`
	Simulated         bool      `json:"simulated,omitempty"`
	// DeadlineMS is the effective deadline budget the request ran under
	// (plan-time L_τ or the per-request override); absent when the
	// request carried no deadline. Clients compare it against
	// MeasuredLatencyMS for client-side hit-rate accounting.
	DeadlineMS float64 `json:"deadline_ms,omitempty"`
	// Hops is the per-hop breakdown of a split-path request (one entry
	// per pipeline segment, head first); absent for whole-path serving.
	Hops []dnn.ActivationHop `json:"hops,omitempty"`
}

// taskStatus is one entry of GET /v1/tasks.
type taskStatus struct {
	ID           string  `json:"id"`
	Priority     float64 `json:"priority"`
	Rate         float64 `json:"rate"`
	Admitted     bool    `json:"admitted"`
	AdmittedRate float64 `json:"admitted_rate"`
	Path         string  `json:"path,omitempty"`
	DNN          string  `json:"dnn,omitempty"`
	LatencyMS    float64 `json:"latency_ms,omitempty"`
}

func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/tasks", s.handleRegister)
	mux.HandleFunc("GET /v1/tasks", s.handleListTasks)
	mux.HandleFunc("DELETE /v1/tasks/{id}", s.handleDeregister)
	mux.HandleFunc("POST /v1/offload", s.handleOffload)
	mux.HandleFunc("POST /v1/stage", s.handleStage)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// WriteJSON writes v as a JSON response with the given status. v is
// encoded before the status is sent, so a value JSON cannot carry (a NaN,
// say) is answered 500 with the error envelope, never with the status it
// asked for and an empty body.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		status = http.StatusInternalServerError
		body, _ = json.Marshal(errorBody{Error: errorDetail{Code: CodeBackend, Message: "encoding the response: " + err.Error()}})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(body, '\n'))
}

// Machine-readable error codes of the unified error envelope. Every
// non-2xx response across the API carries
// {"error": {"code": <code>, "message": <human text>}}.
const (
	// CodeInvalidRequest: malformed body or invalid task fields (400).
	CodeInvalidRequest = "invalid_request"
	// CodeTaskExists: registration under a live task ID (409).
	CodeTaskExists = "task_exists"
	// CodeUnknownTask: operation on an ID that is not registered (404).
	CodeUnknownTask = "unknown_task"
	// CodeNotAdmitted: the current epoch does not admit the task (429).
	CodeNotAdmitted = "not_admitted"
	// CodeOverRate: traffic beyond the task's admitted rate z·λ (429).
	CodeOverRate = "over_rate"
	// CodeDraining: registration refused while the server drains (503).
	CodeDraining = "draining"
	// CodeBackend: the execution backend failed the admitted request
	// (500; retried requests may land on the next epoch's models).
	CodeBackend = "backend_failed"
	// CodeDeadline: the request's deadline expired before (or while) it
	// waited for a batch slot, so the runtime shed it instead of serving
	// a stale result (504).
	CodeDeadline = "deadline_exceeded"
	// CodeOverload: backpressure shed the request — its model's bounded
	// intake queue was full and this request held the latest deadline
	// among the waiters (503 with Retry-After).
	CodeOverload = "overloaded"
)

// errorBody is the unified JSON error envelope.
type errorBody struct {
	Error errorDetail `json:"error"`
}

type errorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// WriteError writes the unified error envelope; the coordinator answers
// with it too, so clients parse one shape against either daemon.
func WriteError(w http.ResponseWriter, status int, code, format string, args ...any) {
	WriteJSON(w, status, errorBody{Error: errorDetail{Code: code, Message: fmt.Sprintf(format, args...)}})
}

// RetryAfter formats a Retry-After header value: whole seconds, at
// least 1.
func RetryAfter(d time.Duration) string {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var spec TaskSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		WriteError(w, http.StatusBadRequest, CodeInvalidRequest, "invalid task spec: %v", err)
		return
	}
	if err := s.Register(spec.Task(), nil); err != nil {
		if errors.Is(err, ErrDraining) {
			WriteError(w, http.StatusServiceUnavailable, CodeDraining, "%v", err)
			return
		}
		if errors.Is(err, ErrExists) {
			WriteError(w, http.StatusConflict, CodeTaskExists, "%v", err)
			return
		}
		WriteError(w, http.StatusBadRequest, CodeInvalidRequest, "%v", err)
		return
	}
	// 202: the task is registered; its admission verdict arrives with
	// the next epoch, within the debounce window.
	WriteJSON(w, http.StatusAccepted, map[string]any{
		"id":         spec.ID,
		"status":     "pending",
		"generation": s.reg.Generation(),
	})
}

func (s *Server) handleDeregister(w http.ResponseWriter, r *http.Request) {
	if err := s.Deregister(r.PathValue("id")); err != nil {
		WriteError(w, http.StatusNotFound, CodeUnknownTask, "%v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleListTasks(w http.ResponseWriter, r *http.Request) {
	tasks, _, _ := s.reg.Snapshot()
	ep := s.resolver.Current()
	out := make([]taskStatus, 0, len(tasks))
	for _, t := range tasks {
		st := taskStatus{ID: t.ID, Priority: t.Priority, Rate: t.Rate}
		if u := ep.unit(t.ID, 0); u != nil && u.whole() {
			st.Admitted = true
			st.AdmittedRate = u.Rate
			st.LatencyMS = msOf(u.planned)
			st.Path = u.Path
			st.DNN = u.DNN
		}
		out = append(out, st)
	}
	WriteJSON(w, http.StatusOK, out)
}

func (s *Server) handleOffload(w http.ResponseWriter, r *http.Request) {
	s.stats.requests.Add(1)
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, MaxOffloadBody))
	var req OffloadRequest
	if err == nil {
		req, err = DecodeOffload(buf.Bytes())
	}
	if buf.Cap() <= MaxOffloadBody { // one a near-limit body grew is left to the GC
		bodyPool.Put(buf)
	}
	if err != nil {
		WriteError(w, http.StatusBadRequest, CodeInvalidRequest, "invalid offload request: %v", err)
		return
	}
	s.serveUnit(w, r, intake{task: req.Task, input: req.Input, deadlineMS: req.DeadlineMS})
}

// handleStage serves POST /v1/stage: one boundary-activation handoff
// inside a split pipeline. The body is an activation envelope
// (dnn.EncodeActivation); the response is either the tail's
// OffloadResponse (JSON) or a relayed error envelope. The decoder bounds
// the body: it reads one envelope and refuses a shape past its cap.
func (s *Server) handleStage(w http.ResponseWriter, r *http.Request) {
	man, act, err := dnn.DecodeActivation(r.Body)
	if err != nil {
		WriteError(w, http.StatusBadRequest, CodeInvalidRequest, "%v", err)
		return
	}
	s.serveUnit(w, r, intake{task: man.Task, from: man.From, input: act, man: &man})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	h := s.Health()
	status := http.StatusOK
	if h.State == Draining {
		// Load balancers read 503 as "stop routing here"; degraded
		// stays 200 because the daemon still serves off its last plan.
		status = http.StatusServiceUnavailable
	}
	body := map[string]any{
		"status":               h.State.String(),
		"solve_tier":           h.tier,
		"epoch":                h.Epoch,
		"generation":           h.generation,
		"current":              h.current,
		"generation_lag":       h.generationLag,
		"epoch_age_seconds":    h.epochAge.Seconds(),
		"stale_for_seconds":    h.staleFor.Seconds(),
		"consecutive_failures": h.consecutiveFailures,
		"overloaded":           h.overloaded,
		"recent_sheds":         h.recentSheds,
		"tasks":                s.reg.Len(),
		"uptime_seconds":       s.cfg.now().Sub(s.stats.start).Seconds(),
	}
	if h.lastError != "" {
		body["last_solve_error"] = h.lastError
	}
	WriteJSON(w, status, body)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	ep := s.resolver.Current()
	var epoch uint64
	if ep != nil {
		epoch = ep.N
	}
	e := metrics.NewExposition(w)
	e.Gauge("offloadnn_uptime_seconds", "Seconds since the server started.").Float(s.cfg.now().Sub(s.stats.start).Seconds())
	e.Gauge("offloadnn_tasks_registered", "Tasks currently registered with the controller.").Int(int64(s.reg.Len()))
	e.Counter("offloadnn_epoch", "Sequence number of the active deployment epoch.").Int(int64(epoch))
	e.Counter("offloadnn_solves_total", "DOT solver invocations.").Int(int64(s.stats.solves.Load()))
	e.Counter("offloadnn_solve_errors_total", "DOT solver invocations that failed.").Int(int64(s.stats.solveErrors.Load()))
	e.Counter("offloadnn_solve_panics_total", "Solver panics recovered into solve errors.").Int(int64(s.stats.solvePanicsTotal()))
	f := e.Gauge("offloadnn_solve_duration_seconds", "Duration of the most recent solve, overall and per solver tier.")
	f.Float(time.Duration(s.stats.lastSolveNanos.Load()).Seconds())
	solveTiers := []core.Tier{core.TierHeuristic, core.TierApprox} // the two sides of pickTier
	for _, t := range solveTiers {
		if s.stats.tierSolveCount(t) > 0 {
			f.Float(s.stats.tierLastSolveLatency(t).Seconds(), "tier", t.String())
		}
	}
	f = e.Gauge("offloadnn_solve_tier", "Solver tier of the last published epoch, one-hot per tier.")
	for _, t := range solveTiers {
		f.Bool(ep != nil && ep.Deployment != nil && ep.Tier == t, "tier", t.String())
	}
	f = e.Counter("offloadnn_solve_tier_total", "Published epochs per solver tier.")
	for _, t := range solveTiers {
		f.Int(int64(s.stats.tierSolveCount(t)), "tier", t.String())
	}
	h := s.Health()
	e.Gauge("offloadnn_health_state", "Serving condition: 0 healthy, 1 degraded, 2 draining.").Int(int64(h.State))
	e.Gauge("offloadnn_consecutive_solve_failures", "Current run of failed re-solves.").Int(int64(h.consecutiveFailures))
	e.Gauge("offloadnn_epoch_age_seconds", "Age of the published plan (uptime before the first solve).").Float(h.epochAge.Seconds())
	e.Gauge("offloadnn_epoch_stale_seconds", "How long the plan has trailed the registry; 0 while current.").Float(h.staleFor.Seconds())
	e.Counter("offloadnn_offload_requests_total", "Offload requests received.").Int(int64(s.stats.requests.Load()))
	e.Counter("offloadnn_offload_aborted_total", "Offload requests whose client disconnected before gate work.").Int(int64(s.stats.abortedTotal()))
	taskIDs := s.stats.taskIDs()
	f = e.Counter("offloadnn_offload_admitted_total", "Offload requests admitted, per task.")
	for _, id := range taskIDs {
		f.Int(int64(s.stats.admitted(id)), "task", id)
	}
	f = e.Counter("offloadnn_offload_rejected_total", "Offload requests rejected, per task.")
	for _, id := range taskIDs {
		f.Int(int64(s.stats.rejected(id)), "task", id)
	}
	if ep != nil && ep.Deployment != nil {
		f = e.Gauge("offloadnn_admitted_rate", "Admitted frame rate z*lambda per task, frames/s.")
		for i := range ep.Tasks {
			if rate := ep.admittedRate(ep.Tasks[i].ID); rate > 0 {
				f.Float(rate, "task", ep.Tasks[i].ID)
			}
		}
	}
	// Split-pipeline families: segment routing plus per-hop accounting.
	if segs := s.Segments(); len(segs) > 0 {
		splitTasks := make(map[string]bool)
		for _, sp := range segs {
			splitTasks[sp.Task] = true
		}
		e.Gauge("offloadnn_split_paths", "Split-path pipelines this node serves a segment of.").Int(int64(len(splitTasks)))
		f = e.Gauge("offloadnn_split_segments", "Installed stage-range segments, one series per route.")
		for _, sp := range segs {
			f.Int(1, "task", sp.Task, "from", strconv.Itoa(sp.From), "to", strconv.Itoa(sp.To), "hop", strconv.Itoa(sp.Hop))
		}
	}
	e.Counter("offloadnn_activation_bytes", "Boundary-activation envelope bytes forwarded to next hops.").Int(int64(s.stats.activationBytes.Load()))
	if s.stats.hopLatency.Len() > 0 {
		e.Summary("offloadnn_hop_latency_seconds", "Split-segment execution latency quantiles on this node.").Quantiles(s.stats.hopLatency)
	}
	e.Gauge("offloadnn_latency_samples", "End-to-end latency samples in the quantile window.").Int(int64(s.stats.latency.Len()))
	if s.stats.latency.Len() > 0 {
		e.Summary("offloadnn_latency_seconds", "Measured end-to-end latency quantiles of executed offloads.").Quantiles(s.stats.latency)
	}
	// Execution-layer families: per-task measured inference latency plus
	// the backend's batching state.
	f = e.Summary("offloadnn_infer_latency_seconds", "Measured inference latency quantiles per task (executed offloads only).")
	for _, id := range taskIDs {
		if win := s.stats.inferWindow(id); win != nil {
			f.Quantiles(win, "task", id)
		}
	}
	bs := s.backend.Stats()
	e.Gauge("offloadnn_batch_size", "Size of the most recently executed inference batch.").Int(int64(bs.LastBatchSize))
	e.Gauge("offloadnn_backend_queue_depth", "Requests waiting in the backend's batching queues.").Int(int64(bs.QueueDepth))
	e.Gauge("offloadnn_backend_models", "Live assembled path models in the execution backend.").Int(int64(bs.Models))
	e.Gauge("offloadnn_backend_blocks", "Live shared block instances in the execution backend.").Int(int64(bs.Blocks))
	if len(bs.PathPrecisions) > 0 {
		f = e.Gauge("offloadnn_model_precision", "Kernel precision each deployed path runs at (post accuracy-gate), one series per path.")
		for _, sig := range metrics.SortedKeys(bs.PathPrecisions) {
			f.Int(1, "path", sig, "precision", bs.PathPrecisions[sig])
		}
	}
	e.Counter("offloadnn_quant_fallback_total", "Precision-tier demotions applied by the install-time accuracy gate.").Int(bs.QuantFallbacks)
	// Deadline-aware runtime families.
	hitRatio := 1.0
	if total := bs.DeadlineHits + bs.DeadlineMisses; total > 0 {
		hitRatio = float64(bs.DeadlineHits) / float64(total)
	}
	e.Gauge("offloadnn_deadline_hit_ratio", "Fraction of deadline-carrying requests served at or before their deadline; 1 with no samples.").Float(hitRatio)
	f = e.Counter("offloadnn_shed_total", "Requests shed by the deadline-aware runtime, by reason.")
	f.Int(bs.ShedLate+int64(s.stats.EarlySheds()), "reason", "late")
	f.Int(bs.ShedQueueFull, "reason", "queue_full")
	f.Int(bs.ShedCanceled, "reason", "canceled")
	e.Gauge("offloadnn_batch_window_seconds", "Batch window most recently applied by the adaptive executor; 0 on a path whose admitted rate expects no second request inside it.").Float(bs.LastWindow.Seconds())
	e.Gauge("offloadnn_overload", "1 while backend sheds inside the overload window exceed the threshold.").Bool(h.overloaded)
	if len(bs.QueueSlack) > 0 {
		f = e.Gauge("offloadnn_queue_slack_seconds", "Tightest remaining deadline slack per model intake queue; negative means a late waiter.")
		for _, sig := range metrics.SortedKeys(bs.QueueSlack) {
			f.Float(bs.QueueSlack[sig].Seconds(), "path", sig)
		}
	}
}
