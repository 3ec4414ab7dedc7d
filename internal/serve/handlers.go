package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"time"

	"offloadnn/internal/core"
	"offloadnn/internal/dnn"
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
	// Input is the flattened input tensor (C·H·W values, the backend's
	// InputShape order); empty for an admission probe.
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

// TaskStatus is one entry of GET /v1/tasks.
type TaskStatus struct {
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

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
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

func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: errorDetail{Code: code, Message: fmt.Sprintf(format, args...)}})
}

// boolGauge renders a bool as a 0/1 metric value.
func boolGauge(b bool) int {
	if b {
		return 1
	}
	return 0
}

// retryAfter formats a Retry-After header value: whole seconds, at
// least 1.
func retryAfter(d time.Duration) string {
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
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, "invalid task spec: %v", err)
		return
	}
	if err := s.Register(spec.Task(), nil); err != nil {
		if errors.Is(err, ErrDraining) {
			writeError(w, http.StatusServiceUnavailable, CodeDraining, "%v", err)
			return
		}
		if errors.Is(err, ErrExists) {
			writeError(w, http.StatusConflict, CodeTaskExists, "%v", err)
			return
		}
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, "%v", err)
		return
	}
	// 202: the task is registered; its admission verdict arrives with
	// the next epoch, within the debounce window.
	writeJSON(w, http.StatusAccepted, map[string]any{
		"id":         spec.ID,
		"status":     "pending",
		"generation": s.reg.Generation(),
	})
}

func (s *Server) handleDeregister(w http.ResponseWriter, r *http.Request) {
	if err := s.Deregister(r.PathValue("id")); err != nil {
		writeError(w, http.StatusNotFound, CodeUnknownTask, "%v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleListTasks(w http.ResponseWriter, r *http.Request) {
	tasks, _, _ := s.reg.Snapshot()
	ep := s.resolver.Current()
	out := make([]TaskStatus, 0, len(tasks))
	for _, t := range tasks {
		st := TaskStatus{ID: t.ID, Priority: t.Priority, Rate: t.Rate}
		if u := ep.unit(t.ID, 0); u != nil && u.whole() {
			st.Admitted = true
			st.AdmittedRate = u.Rate
			st.LatencyMS = msOf(u.planned)
			st.Path = u.Path
			st.DNN = u.DNN
		}
		out = append(out, st)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleOffload(w http.ResponseWriter, r *http.Request) {
	s.stats.requests.Add(1)
	var req OffloadRequest
	// 1 MiB: a full-quality input tensor serialized as JSON numbers
	// (e.g. 3x32x32 floats) comfortably fits; anything bigger is abuse.
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, "invalid offload request: %v", err)
		return
	}
	s.serveUnit(w, r, intake{task: req.Task, input: req.Input, deadlineMS: req.DeadlineMS})
}

// handleStage serves POST /v1/stage: one boundary-activation handoff
// inside a split pipeline. The body is an activation envelope
// (dnn.EncodeActivation); the response is either the tail's
// OffloadResponse (JSON) or a relayed error envelope.
func (s *Server) handleStage(w http.ResponseWriter, r *http.Request) {
	man, act, err := dnn.DecodeActivation(http.MaxBytesReader(w, r.Body, maxStageBody))
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, "%v", err)
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
		"solve_tier":           h.Tier,
		"epoch":                h.Epoch,
		"generation":           h.Generation,
		"current":              h.Current,
		"generation_lag":       h.GenerationLag,
		"epoch_age_seconds":    h.EpochAge.Seconds(),
		"stale_for_seconds":    h.StaleFor.Seconds(),
		"consecutive_failures": h.ConsecutiveFailures,
		"overloaded":           h.Overloaded,
		"recent_sheds":         h.RecentSheds,
		"tasks":                s.reg.Len(),
		"uptime_seconds":       s.cfg.Now().Sub(s.stats.start).Seconds(),
	}
	if h.LastError != "" {
		body["last_solve_error"] = h.LastError
	}
	writeJSON(w, status, body)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	ep := s.resolver.Current()
	var epoch uint64
	if ep != nil {
		epoch = ep.N
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	// family writes the exposition-format metadata once per metric family.
	family := func(name, typ, help string) {
		fmt.Fprintf(w, "# HELP %s %s\n", name, help)
		fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
	}
	family("offloadnn_uptime_seconds", "gauge", "Seconds since the server started.")
	fmt.Fprintf(w, "offloadnn_uptime_seconds %g\n", s.cfg.Now().Sub(s.stats.start).Seconds())
	family("offloadnn_tasks_registered", "gauge", "Tasks currently registered with the controller.")
	fmt.Fprintf(w, "offloadnn_tasks_registered %d\n", s.reg.Len())
	family("offloadnn_epoch", "counter", "Sequence number of the active deployment epoch.")
	fmt.Fprintf(w, "offloadnn_epoch %d\n", epoch)
	family("offloadnn_solves_total", "counter", "DOT solver invocations.")
	fmt.Fprintf(w, "offloadnn_solves_total %d\n", s.stats.Solves())
	family("offloadnn_solve_errors_total", "counter", "DOT solver invocations that failed.")
	fmt.Fprintf(w, "offloadnn_solve_errors_total %d\n", s.stats.SolveErrors())
	family("offloadnn_solve_panics_total", "counter", "Solver panics recovered into solve errors.")
	fmt.Fprintf(w, "offloadnn_solve_panics_total %d\n", s.stats.SolvePanics())
	family("offloadnn_solve_duration_seconds", "gauge", "Duration of the most recent solve, overall and per solver tier.")
	fmt.Fprintf(w, "offloadnn_solve_duration_seconds %g\n", s.stats.LastSolveLatency().Seconds())
	solveTiers := []core.Tier{core.TierHeuristic, core.TierApprox} // the two sides of pickTier
	for _, t := range solveTiers {
		if s.stats.TierSolves(t) > 0 {
			fmt.Fprintf(w, "offloadnn_solve_duration_seconds{tier=%q} %g\n", t.String(), s.stats.TierLastSolveLatency(t).Seconds())
		}
	}
	family("offloadnn_solve_tier", "gauge", "Solver tier of the last published epoch, one-hot per tier.")
	for _, t := range solveTiers {
		fmt.Fprintf(w, "offloadnn_solve_tier{tier=%q} %d\n", t.String(), boolGauge(ep != nil && ep.Deployment != nil && ep.Tier == t))
	}
	family("offloadnn_solve_tier_total", "counter", "Published epochs per solver tier.")
	for _, t := range solveTiers {
		fmt.Fprintf(w, "offloadnn_solve_tier_total{tier=%q} %d\n", t.String(), s.stats.TierSolves(t))
	}
	h := s.Health()
	family("offloadnn_health_state", "gauge", "Serving condition: 0 healthy, 1 degraded, 2 draining.")
	fmt.Fprintf(w, "offloadnn_health_state %d\n", int(h.State))
	family("offloadnn_consecutive_solve_failures", "gauge", "Current run of failed re-solves.")
	fmt.Fprintf(w, "offloadnn_consecutive_solve_failures %d\n", h.ConsecutiveFailures)
	family("offloadnn_epoch_age_seconds", "gauge", "Age of the published plan (uptime before the first solve).")
	fmt.Fprintf(w, "offloadnn_epoch_age_seconds %g\n", h.EpochAge.Seconds())
	family("offloadnn_epoch_stale_seconds", "gauge", "How long the plan has trailed the registry; 0 while current.")
	fmt.Fprintf(w, "offloadnn_epoch_stale_seconds %g\n", h.StaleFor.Seconds())
	family("offloadnn_offload_requests_total", "counter", "Offload requests received.")
	fmt.Fprintf(w, "offloadnn_offload_requests_total %d\n", s.stats.Requests())
	family("offloadnn_offload_aborted_total", "counter", "Offload requests whose client disconnected before gate work.")
	fmt.Fprintf(w, "offloadnn_offload_aborted_total %d\n", s.stats.Aborted())
	family("offloadnn_offload_admitted_total", "counter", "Offload requests admitted, per task.")
	for _, id := range s.stats.taskIDs() {
		fmt.Fprintf(w, "offloadnn_offload_admitted_total{task=%q} %d\n", id, s.stats.Admitted(id))
	}
	family("offloadnn_offload_rejected_total", "counter", "Offload requests rejected, per task.")
	for _, id := range s.stats.taskIDs() {
		fmt.Fprintf(w, "offloadnn_offload_rejected_total{task=%q} %d\n", id, s.stats.Rejected(id))
	}
	if ep != nil && ep.Deployment != nil {
		family("offloadnn_admitted_rate", "gauge", "Admitted frame rate z*lambda per task, frames/s.")
		for i := range ep.Tasks {
			id := ep.Tasks[i].ID
			if rate := ep.AdmittedRate(id); rate > 0 {
				fmt.Fprintf(w, "offloadnn_admitted_rate{task=%q} %g\n", id, rate)
			}
		}
	}
	// Split-pipeline families: segment routing plus per-hop accounting.
	if segs := s.Segments(); len(segs) > 0 {
		splitTasks := make(map[string]bool)
		for _, sp := range segs {
			splitTasks[sp.Task] = true
		}
		family("offloadnn_split_paths", "gauge", "Split-path pipelines this node serves a segment of.")
		fmt.Fprintf(w, "offloadnn_split_paths %d\n", len(splitTasks))
		family("offloadnn_split_segments", "gauge", "Installed stage-range segments, one series per route.")
		for _, sp := range segs {
			fmt.Fprintf(w, "offloadnn_split_segments{task=%q,from=\"%d\",to=\"%d\",hop=\"%d\"} 1\n", sp.Task, sp.From, sp.To, sp.Hop)
		}
	}
	family("offloadnn_activation_bytes", "counter", "Boundary-activation envelope bytes forwarded to next hops.")
	fmt.Fprintf(w, "offloadnn_activation_bytes %d\n", s.stats.ActivationBytes())
	if s.stats.HopLatency().Len() > 0 {
		if qs, err := s.stats.HopLatency().Quantiles(50, 95, 99); err == nil {
			family("offloadnn_hop_latency_seconds", "summary", "Split-segment execution latency quantiles on this node.")
			for i, q := range []string{"0.5", "0.95", "0.99"} {
				fmt.Fprintf(w, "offloadnn_hop_latency_seconds{quantile=%q} %g\n", q, qs[i])
			}
		}
	}
	family("offloadnn_latency_samples", "gauge", "End-to-end latency samples in the quantile window.")
	fmt.Fprintf(w, "offloadnn_latency_samples %d\n", s.stats.latency.Len())
	if qs, err := s.stats.latency.Quantiles(50, 95, 99); err == nil {
		family("offloadnn_latency_seconds", "summary", "End-to-end offload latency quantiles.")
		for i, q := range []string{"0.5", "0.95", "0.99"} {
			fmt.Fprintf(w, "offloadnn_latency_seconds{quantile=%q} %g\n", q, qs[i])
		}
	}
	// Execution-layer families: per-task measured inference latency plus
	// the backend's batching state.
	family("offloadnn_infer_latency_seconds", "summary", "Measured inference latency quantiles per task (executed offloads only).")
	for _, id := range s.stats.taskIDs() {
		win := s.stats.InferWindow(id)
		if win == nil {
			continue
		}
		if qs, err := win.Quantiles(50, 95, 99); err == nil {
			for i, q := range []string{"0.5", "0.95", "0.99"} {
				fmt.Fprintf(w, "offloadnn_infer_latency_seconds{task=%q,quantile=%q} %g\n", id, q, qs[i])
			}
		}
	}
	bs := s.backend.Stats()
	family("offloadnn_batch_size", "gauge", "Size of the most recently executed inference batch.")
	fmt.Fprintf(w, "offloadnn_batch_size %d\n", bs.LastBatchSize)
	family("offloadnn_backend_queue_depth", "gauge", "Requests waiting in the backend's batching queues.")
	fmt.Fprintf(w, "offloadnn_backend_queue_depth %d\n", bs.QueueDepth)
	family("offloadnn_backend_models", "gauge", "Live assembled path models in the execution backend.")
	fmt.Fprintf(w, "offloadnn_backend_models %d\n", bs.Models)
	family("offloadnn_backend_blocks", "gauge", "Live shared block instances in the execution backend.")
	fmt.Fprintf(w, "offloadnn_backend_blocks %d\n", bs.Blocks)
	if len(bs.PathPrecisions) > 0 {
		family("offloadnn_model_precision", "gauge", "Kernel precision each deployed path runs at (post accuracy-gate), one series per path.")
		sigs := make([]string, 0, len(bs.PathPrecisions))
		for sig := range bs.PathPrecisions {
			sigs = append(sigs, sig)
		}
		sort.Strings(sigs)
		for _, sig := range sigs {
			fmt.Fprintf(w, "offloadnn_model_precision{path=%q,precision=%q} 1\n", sig, bs.PathPrecisions[sig])
		}
	}
	family("offloadnn_quant_fallback_total", "counter", "Precision-tier demotions applied by the install-time accuracy gate.")
	fmt.Fprintf(w, "offloadnn_quant_fallback_total %d\n", bs.QuantFallbacks)
	family("offloadnn_weights_mmap_bytes", "gauge", "Resident bytes of artifact weight buffers aliased zero-copy by live blocks.")
	fmt.Fprintf(w, "offloadnn_weights_mmap_bytes %d\n", bs.WeightBytes)
	// Deadline-aware runtime families.
	family("offloadnn_deadline_hit_ratio", "gauge", "Fraction of deadline-carrying requests served at or before their deadline; 1 with no samples.")
	hitRatio := 1.0
	if total := bs.DeadlineHits + bs.DeadlineMisses; total > 0 {
		hitRatio = float64(bs.DeadlineHits) / float64(total)
	}
	fmt.Fprintf(w, "offloadnn_deadline_hit_ratio %g\n", hitRatio)
	family("offloadnn_shed_total", "counter", "Requests shed by the deadline-aware runtime, by reason.")
	fmt.Fprintf(w, "offloadnn_shed_total{reason=\"late\"} %d\n", bs.ShedLate+int64(s.stats.EarlySheds()))
	fmt.Fprintf(w, "offloadnn_shed_total{reason=\"queue_full\"} %d\n", bs.ShedQueueFull)
	fmt.Fprintf(w, "offloadnn_shed_total{reason=\"canceled\"} %d\n", bs.ShedCanceled)
	family("offloadnn_batch_window_seconds", "gauge", "Batch window most recently applied by the adaptive executor; 0 on a path whose admitted rate expects no second request inside it.")
	fmt.Fprintf(w, "offloadnn_batch_window_seconds %g\n", bs.LastWindow.Seconds())
	family("offloadnn_overload", "gauge", "1 while backend sheds inside the overload window exceed the threshold.")
	fmt.Fprintf(w, "offloadnn_overload %d\n", boolGauge(h.Overloaded))
	if len(bs.QueueSlack) > 0 {
		family("offloadnn_queue_slack_seconds", "gauge", "Tightest remaining deadline slack per model intake queue; negative means a late waiter.")
		sigs := make([]string, 0, len(bs.QueueSlack))
		for sig := range bs.QueueSlack {
			sigs = append(sigs, sig)
		}
		sort.Strings(sigs)
		for _, sig := range sigs {
			fmt.Fprintf(w, "offloadnn_queue_slack_seconds{path=%q} %g\n", sig, bs.QueueSlack[sig].Seconds())
		}
	}
}
