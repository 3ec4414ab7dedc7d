// Package serve turns the one-shot OffloaDNN reproduction into an online
// edge-serving subsystem: a long-running daemon that accepts task
// registrations over HTTP, continuously re-optimizes the DOT admission
// plan as tasks come and go, and enforces the solved admission ratios on
// the live offload path.
//
// The design maps the paper's Fig. 4 workflow onto a serving loop:
//
//	admission request  → Registry (concurrent-safe task table)
//	DOT solve          → resolver (debounced epoch re-solve on churn)
//	slice/compute      → edge.Controller.Deploy
//	deployment         → Epoch published via atomic.Pointer (RCU-style)
//	rate notification  → gate (token bucket at z·λ, 429 beyond it)
//
// Requests read the current epoch without locking; re-solves publish a
// fresh immutable epoch and never block the request path. Over-rate
// traffic is rejected with Retry-After — graceful degradation, never an
// unbounded queue.
package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"sync/atomic"
	"time"

	"offloadnn/internal/core"
	"offloadnn/internal/exec"
	"offloadnn/internal/faultinject"
	"offloadnn/internal/workload"
)

// ErrDraining reports a registration attempted while the server is
// draining (Drain/Close was called): new work is refused while existing
// tasks keep serving off the last epoch through the drain window.
var ErrDraining = errors.New("serve: server is draining")

// DefaultSolveTimeout is the per-epoch solve deadline. An epoch that
// misses it fails like any other solver error: the last plan keeps
// serving and the resolver backs off and retries. Both tiers sit well
// inside it at 10k tasks (TestSerialExact10k,
// TestScaleEpochUnderDefaultDeadline).
const DefaultSolveTimeout = 2 * time.Second

// The control plane's timings and thresholds.
const (
	// latencyWindow is the latency-quantile window size in samples.
	latencyWindow = 1024
	// backoffMax caps the failure backoff. The backoff starts at the
	// debounce window and doubles per consecutive failure, with ±20%
	// jitter; a debounce longer than the cap raises the cap to it.
	backoffMax = 5 * time.Second
	// degradedAfter is the consecutive-failure count at which /healthz
	// turns degraded.
	degradedAfter = 3
	// staleAfter is how long the published plan may trail the registry
	// before /healthz turns degraded.
	staleAfter = 10 * time.Second
	// overloadWindow slides over backend shed verdicts (late or
	// queue-full); overloadAfter sheds inside it turn /healthz degraded
	// and arm the admission gate's early deadline shed.
	overloadWindow = 5 * time.Second
	overloadAfter  = 10
)

// defaultApproxAfter is the registry size from which the resolver runs the approximate admission tier instead of the exact
// session. The exact heuristic admits more at every size, but its
// session is what a large cold epoch pays for: with the 10k-task epoch
// of bench's solve-scale workload routed to it, setup_s read 0.39 →
// 0.77–0.84 s and rss_mb 60.6 → 115–117 MB. bench has a workload on
// each side of the rule: epoch-churn (≈ 20 tasks) and solve-scale (10k).
const defaultApproxAfter = 512

// Config parameterizes a serving daemon.
type Config struct {
	// Res is the edge/radio capacity pool every epoch is solved against.
	Res core.Resources
	// Alpha weights admission against resource cost (DOT objective).
	Alpha float64
	// Catalog builds candidate paths for tasks submitted without any
	// (the HTTP route). Zero value: the Table-IV small catalog.
	Catalog workload.CatalogParams
	// blocks optionally pre-seeds the shared block catalog.
	blocks map[string]core.BlockSpec
	// Debounce is the churn batching window before a re-solve
	// (default 100 ms).
	Debounce time.Duration
	// now is the clock used by the admission gates and uptime
	// (default time.Now); injectable for deterministic tests.
	now func() time.Time
	// Faults optionally arms the serving stack's fault-injection points
	// (see internal/faultinject). Nil — the default — leaves every
	// point a no-op; chaos tests and the edgeserve -fault flag set it.
	Faults *faultinject.Injector
	// Backend is the execution layer every published epoch is installed
	// into and admitted offloads with a payload run through. Nil — the
	// default — uses the cost-model backend (exec.NewSimulated), so offloads answer with planned latencies
	// and no logits; wire an exec.Real for tensor-backed inference. The
	// server owns the backend: Close closes it.
	Backend exec.Backend
	// Logf, when set, receives re-solve failures and other background
	// diagnostics (e.g. log.Printf). Nil discards them.
	Logf func(string, ...any)
	// Node optionally names this daemon as a cluster member. It labels
	// the plans installed into the execution backend (exec.Plan.Node)
	// and is reported by the cluster membership protocol; empty for a
	// standalone daemon.
	Node string
}

// Server is the serving daemon: registry + resolver + HTTP surface.
// Create it with New, serve its Handler, and Close it to stop the
// re-solver.
type Server struct {
	cfg      Config
	reg      *Registry
	resolver *resolver
	backend  exec.Backend
	stats    *Stats
	mux      *http.ServeMux
	draining atomic.Bool
	// segments is the split-path segment set pushed to the node, sorted by
	// route key (see segments.go); nil until the first ReplacePlan.
	segments atomic.Pointer[[]SegmentSpec]
	// stageClient posts boundary activations to the next hop of a split
	// path; overridable in tests.
	stageClient *http.Client
}

// New validates the configuration and starts the epoch re-solver.
func New(cfg Config) (*Server, error) {
	if cfg.Res.Capacity == nil {
		return nil, fmt.Errorf("serve: config needs a radio capacity model")
	}
	if cfg.Res.TrainBudgetSeconds <= 0 {
		return nil, fmt.Errorf("serve: train budget must be positive, got %v", cfg.Res.TrainBudgetSeconds)
	}
	if cfg.Alpha < 0 || cfg.Alpha > 1 {
		return nil, fmt.Errorf("serve: alpha %v outside [0,1]", cfg.Alpha)
	}
	if cfg.Debounce <= 0 {
		cfg.Debounce = 100 * time.Millisecond
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	if cfg.Catalog.NumDNNs == 0 {
		cfg.Catalog = workload.SmallCatalogParams()
	}
	if cfg.Backend == nil {
		cfg.Backend = exec.NewSimulated()
	}
	s := &Server{
		cfg:         cfg,
		reg:         NewRegistry(cfg.Catalog, cfg.blocks),
		backend:     cfg.Backend,
		stats:       newStats(cfg.now()),
		stageClient: &http.Client{Timeout: 30 * time.Second},
	}
	s.resolver = newResolver(cfg, s.reg, s.stats, s.Segments)
	s.mux = s.routes()
	return s, nil
}

// Drain switches the server into draining mode: new registrations are
// refused (ErrDraining, 503 over HTTP) while offloads for already
// registered tasks keep serving off the last published epoch, so a
// rolling restart sheds load without dropping in-flight traffic.
// Idempotent; there is no un-drain.
func (s *Server) Drain() { s.draining.Store(true) }

// Close drains the server, stops the background re-solver, then closes
// the execution backend (in that order: the resolver is the only caller
// of Install, so stopping it first means no epoch can race the
// backend's teardown). In-flight HTTP requests keep serving off the
// last published epoch; ones mid-inference get ErrReleased.
func (s *Server) Close() {
	s.Drain()
	s.resolver.Close()
	s.backend.Close()
}

// Register adds a task (kicking a debounced re-solve). Tasks without
// candidate paths get them built from the configured catalog; pre-built
// tasks may bring their referenced blocks along.
func (s *Server) Register(t core.Task, blocks map[string]core.BlockSpec) error {
	if s.draining.Load() {
		return ErrDraining
	}
	if err := s.reg.Register(t, blocks); err != nil {
		return err
	}
	s.resolver.Kick()
	return nil
}

// Deregister withdraws a task (kicking a debounced re-solve).
func (s *Server) Deregister(id string) error {
	if err := s.reg.Deregister(id); err != nil {
		return err
	}
	s.resolver.Kick()
	return nil
}

// ReplacePlan swaps the node's whole plan — the pre-built task set and
// the split-path segment set — and synchronously publishes one epoch
// serving both: the cluster-member plan push. norm, when non-nil,
// overrides the objective pricing of every subsequent solve with the
// coordinator's fleet-wide capacity totals (core.Resources.Norm), so the
// member reprices exactly as the placement did. The plan is charged to
// the node (see reserve) before anything is stored, so a refused push —
// core.ErrOverCapacity when the budgets cannot hold it — leaves the
// previous plan whole. Unchanged tasks keep their registry structs, so
// consecutive pushes of a stable placement re-solve incrementally, and an
// identical push publishes nothing and reports false. A push to a
// draining server is refused like any other registration.
func (s *Server) ReplacePlan(tasks []core.Task, blocks map[string]core.BlockSpec, norm *core.Resources, segments []SegmentSpec) (bool, error) {
	if s.draining.Load() {
		return false, ErrDraining
	}
	segs, err := sortedSegments(segments)
	if err != nil {
		return false, err
	}
	net, err := s.reserve(tasks, blocks, norm, segs)
	if err != nil {
		return false, err
	}
	changed, err := s.reg.replace(tasks, blocks)
	if err != nil {
		return false, err
	}
	if s.resolver.setBudget(net.Res, net.Predeployed) {
		changed = true
	}
	if !reflect.DeepEqual(s.Segments(), segs) {
		s.segments.Store(&segs)
		changed = true
	}
	if !changed {
		return false, nil
	}
	// Forced: neither a segment nor a budget change bumps the registry
	// generation a plain resolve short-circuits on.
	return true, s.resolver.ForceResolve()
}

// reserve charges a pushed plan to the node: its segments are reserved at
// the pushed block specs, and its tasks, solved on the node's budgets as
// the coordinator solved them, must pass Check beside them. It returns
// the instance net of the segments every later epoch is solved against.
func (s *Server) reserve(tasks []core.Task, blocks map[string]core.BlockSpec, norm *core.Resources, segs []SegmentSpec) (*core.Instance, error) {
	full := core.Instance{Tasks: tasks, Blocks: blocks, Res: s.cfg.Res, Alpha: s.cfg.Alpha}
	full.Res.Norm = norm
	net := full
	if err := net.Reserve(Reservations(segs)...); err != nil {
		return nil, fmt.Errorf("serve: segments: %w", err)
	}
	if len(segs) == 0 || len(tasks) == 0 {
		return &net, nil
	}
	ctx, cancel := context.WithTimeout(s.resolver.ctx, DefaultSolveTimeout)
	defer cancel()
	sol, err := core.SolveSpec(ctx, &full, core.SolverSpec{})
	if err == nil {
		err = net.Check(sol.Assignments)
	}
	if err != nil {
		return nil, fmt.Errorf("serve: whole paths beside the segments: %w", err)
	}
	return &net, nil
}

// Resources returns the node's capacity pool — the budgets a cluster
// member advertises to its coordinator. Epochs are solved against it,
// net of any pushed segments.
func (s *Server) Resources() core.Resources { return s.cfg.Res }

// Node returns the configured cluster-member node ID, empty for a
// standalone daemon.
func (s *Server) Node() string { return s.cfg.Node }

// ResolveNow synchronously brings the published epoch up to date with
// the registry, bypassing the debounce (used at daemon startup and in
// tests). It is a no-op when the epoch is already current.
func (s *Server) ResolveNow() error { return s.resolver.ResolveNow() }

// ForceResolve re-solves and republishes unconditionally (the epoch
// benchmark's entry point).
func (s *Server) ForceResolve() error { return s.resolver.ForceResolve() }

// Current returns the published epoch, nil before the first solve.
func (s *Server) Current() *Epoch { return s.resolver.Current() }

// Registry exposes the task table.
func (s *Server) Registry() *Registry { return s.reg }

// Stats exposes the live counters.
func (s *Server) Stats() *Stats { return s.stats }

// Backend exposes the execution layer the server serves inference
// through.
func (s *Server) Backend() exec.Backend { return s.backend }

// overloaded reports sustained deadline pressure in the execution
// runtime: at least overloadAfter backend sheds (late or queue-full)
// landed inside the trailing overloadWindow. While true, /healthz
// reports degraded and the offload path sheds deadline-carrying
// requests whose predicted latency already exceeds their budget before
// they burn a backend queue slot.
func (s *Server) overloaded() bool {
	return s.stats.recentSheds(overloadWindow, s.cfg.now()) >= overloadAfter
}

// ServeHTTP implements http.Handler over the daemon's API surface.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }
