package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"offloadnn/internal/core"
	"offloadnn/internal/faultinject"
	"offloadnn/internal/workload"
)

func getMetricsBody(t *testing.T, srv *Server) string {
	t.Helper()
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("metrics status %d", w.Code)
	}
	return w.Body.String()
}

func getSolveTier(t *testing.T, srv *Server) string {
	t.Helper()
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var h struct {
		SolveTier string `json:"solve_tier"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &h); err != nil {
		t.Fatalf("healthz body: %v", err)
	}
	return h.SolveTier
}

// scaleServer starts a daemon sized for ScaleScenario(n) with the first
// `registered` of its tasks registered, and returns the full task list.
func scaleServer(t *testing.T, cfg Config, n, registered int) (*Server, []core.Task) {
	t.Helper()
	in, err := workload.ScaleScenario(n)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Res, cfg.Alpha, cfg.blocks, cfg.Debounce = in.Res, in.Alpha, in.Blocks, time.Hour
	srv := newTestServer(t, cfg)
	for _, task := range in.Tasks[:registered] {
		if err := srv.Register(task, nil); err != nil {
			t.Fatal(err)
		}
	}
	return srv, in.Tasks
}

// TestAutoTierEscalatesBySize walks the auto tier across its size rule:
// 511 tasks solve on the exact session, the 512th moves the epoch to the
// approximate solver, deregistering it moves it back — and the chosen
// tier is visible on the epoch, /healthz and /metrics.
func TestAutoTierEscalatesBySize(t *testing.T) {
	srv, tasks := scaleServer(t, Config{}, defaultApproxAfter, defaultApproxAfter-1)
	if err := srv.ResolveNow(); err != nil {
		t.Fatal(err)
	}
	if ep := srv.Current(); ep.Tier != core.TierHeuristic {
		t.Fatalf("%d tasks solved at tier %v, want heuristic", len(ep.Tasks), ep.Tier)
	}
	if got := getSolveTier(t, srv); got != "heuristic" {
		t.Fatalf("healthz solve_tier = %q", got)
	}

	last := tasks[defaultApproxAfter-1]
	if err := srv.Register(last, nil); err != nil {
		t.Fatal(err)
	}
	if err := srv.ResolveNow(); err != nil {
		t.Fatal(err)
	}
	if ep := srv.Current(); ep.Tier != core.TierApprox {
		t.Fatalf("%d tasks solved at tier %v, want approx", len(ep.Tasks), ep.Tier)
	}
	if got := getSolveTier(t, srv); got != "approx" {
		t.Fatalf("healthz solve_tier = %q", got)
	}

	metrics := getMetricsBody(t, srv)
	for _, want := range []string{
		`offloadnn_solve_tier{tier="approx"} 1`,
		`offloadnn_solve_tier{tier="heuristic"} 0`,
		`offloadnn_solve_tier_total{tier="approx"} 1`,
		`offloadnn_solve_tier_total{tier="heuristic"} 1`,
		`offloadnn_solve_duration_seconds{tier="approx"}`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if strings.Contains(metrics, `tier="optimal"`) {
		t.Error("metrics carry a series for the optimal tier, which no epoch can run on")
	}

	// Dropping back under the boundary returns to the exact tier.
	if err := srv.Deregister(last.ID); err != nil {
		t.Fatal(err)
	}
	if err := srv.ResolveNow(); err != nil {
		t.Fatal(err)
	}
	if ep := srv.Current(); ep.Tier != core.TierHeuristic {
		t.Fatalf("after deregister solved at tier %v, want heuristic", ep.Tier)
	}
}

// TestSolveTimeoutKeepsPlanAndRetriesExact pins what a blown epoch
// deadline is: a solver error like any other. The hung solve fails with
// DeadlineExceeded after DefaultSolveTimeout, the previous epoch keeps
// serving, and the very next epoch runs the exact tier again — nothing
// holds the resolver on another tier.
func TestSolveTimeoutKeepsPlanAndRetriesExact(t *testing.T) {
	inj := faultinject.New(1)
	srv := newTestServer(t, Config{Debounce: time.Hour, Faults: inj})
	registerSmall(t, srv, 2)
	if err := srv.ResolveNow(); err != nil {
		t.Fatal(err)
	}
	before := srv.Current()
	if before.Tier != core.TierHeuristic {
		t.Fatalf("baseline epoch at tier %v", before.Tier)
	}

	inj.Set(faultinject.PointSolverHang, faultinject.Rule{EveryN: 1, Count: 1})
	if err := srv.ForceResolve(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("hung solve: err %v, want DeadlineExceeded", err)
	}
	if got := srv.Current(); got != before {
		t.Fatalf("deadline miss replaced epoch %d with %d", before.N, got.N)
	}
	if got := srv.resolver.ConsecutiveFailures(); got != 1 {
		t.Fatalf("consecutive failures = %d after one deadline miss, want 1", got)
	}

	if err := srv.ForceResolve(); err != nil {
		t.Fatalf("retry after deadline miss: %v", err)
	}
	ep := srv.Current()
	if ep.N != before.N+1 || ep.Tier != core.TierHeuristic {
		t.Fatalf("retry published epoch %d at tier %v, want %d at heuristic", ep.N, ep.Tier, before.N+1)
	}
}

// TestScaleEpochUnderDefaultDeadline is the 10k-task acceptance bound:
// one epoch over the full scale scenario must publish through the serve
// daemon inside DefaultSolveTimeout, on the approximate tier the
// auto escalation picks.
func TestScaleEpochUnderDefaultDeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-task epoch")
	}
	in, err := workload.ScaleScenario(10000)
	if err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, Config{
		Res:      in.Res,
		Alpha:    in.Alpha,
		Debounce: time.Hour,
	})
	changed, err := srv.ReplacePlan(in.Tasks, in.Blocks, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("ReplacePlan reported no change")
	}
	ep := srv.Current()
	if ep == nil || ep.Deployment == nil {
		t.Fatal("no epoch published")
	}
	if len(ep.Tasks) != 10000 {
		t.Fatalf("epoch has %d tasks", len(ep.Tasks))
	}
	if ep.Tier != core.TierApprox {
		t.Fatalf("10k epoch solved at tier %v, want approx", ep.Tier)
	}
	bound := DefaultSolveTimeout
	if raceDetectorEnabled {
		// The race detector slows the epoch several-fold; the real
		// deadline bound is pinned by the non-race run.
		bound = 5 * DefaultSolveTimeout
	}
	if ep.solveLatency >= bound {
		t.Fatalf("10k epoch took %v, deadline %v", ep.solveLatency, bound)
	}
	if n := ep.Deployment.Solution.Breakdown.AdmittedTasks; n == 0 {
		t.Fatal("10k epoch admitted nothing")
	}
	if got := getSolveTier(t, srv); got != "approx" {
		t.Fatalf("healthz solve_tier = %q", got)
	}
}
