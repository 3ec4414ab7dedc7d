package serve

import (
	"encoding/json"
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

// TestAutoTierEscalatesBySize checks the auto tier switches to the
// approximate solver at the configured registry size, and that the
// chosen tier is visible on the epoch, /healthz and /metrics.
func TestAutoTierEscalatesBySize(t *testing.T) {
	srv := newTestServer(t, Config{Debounce: time.Hour, ApproxAfter: 3})
	registerSmall(t, srv, 2)
	if err := srv.ResolveNow(); err != nil {
		t.Fatal(err)
	}
	if ep := srv.Current(); ep.Tier != core.TierHeuristic {
		t.Fatalf("2 tasks solved at tier %v, want heuristic", ep.Tier)
	}
	if got := getSolveTier(t, srv); got != "heuristic" {
		t.Fatalf("healthz solve_tier = %q", got)
	}

	task, err := workload.SmallTask(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Register(task, nil); err != nil {
		t.Fatal(err)
	}
	if err := srv.ResolveNow(); err != nil {
		t.Fatal(err)
	}
	ep := srv.Current()
	if ep.Tier != core.TierApprox {
		t.Fatalf("3 tasks solved at tier %v, want approx", ep.Tier)
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

	// Dropping back under the threshold de-escalates to the exact tier.
	if err := srv.Deregister(task.ID); err != nil {
		t.Fatal(err)
	}
	if err := srv.ResolveNow(); err != nil {
		t.Fatal(err)
	}
	if ep := srv.Current(); ep.Tier != core.TierHeuristic {
		t.Fatalf("after deregister solved at tier %v, want heuristic", ep.Tier)
	}
}

// TestPinnedTierWins checks an explicitly configured Solver tier overrides the
// auto escalation in both directions.
func TestPinnedTierWins(t *testing.T) {
	approx := newTestServer(t, Config{
		Debounce: time.Hour,
		Solver:   core.SolverSpec{Tier: core.TierApprox},
	})
	registerSmall(t, approx, 2)
	if err := approx.ResolveNow(); err != nil {
		t.Fatal(err)
	}
	if ep := approx.Current(); ep.Tier != core.TierApprox {
		t.Fatalf("pinned approx solved at tier %v", ep.Tier)
	}

	optimal := newTestServer(t, Config{
		Debounce: time.Hour,
		Solver:   core.SolverSpec{Tier: core.TierOptimal},
	})
	registerSmall(t, optimal, 2)
	if err := optimal.ResolveNow(); err != nil {
		t.Fatal(err)
	}
	if ep := optimal.Current(); ep.Tier != core.TierOptimal {
		t.Fatalf("pinned optimal solved at tier %v", ep.Tier)
	}

	// Exceeding ApproxAfter with a pinned heuristic stays heuristic.
	pinned := newTestServer(t, Config{
		Debounce:    time.Hour,
		ApproxAfter: 2,
		Solver:      core.SolverSpec{Tier: core.TierHeuristic},
	})
	registerSmall(t, pinned, 3)
	if err := pinned.ResolveNow(); err != nil {
		t.Fatal(err)
	}
	if ep := pinned.Current(); ep.Tier != core.TierHeuristic {
		t.Fatalf("pinned heuristic solved at tier %v", ep.Tier)
	}
}

func TestBadSolverTierRejected(t *testing.T) {
	_, err := New(Config{
		Res:    smallResources(),
		Alpha:  0.5,
		Solver: core.SolverSpec{Tier: core.Tier(42)},
	})
	if err == nil {
		t.Fatal("New accepted an unknown solver tier")
	}
}

// TestDeadlinePressureEscalation checks the auto tier's hysteresis: a
// solve that blows the epoch deadline holds the next pressureHold
// epochs on the approximate tier, then the exact heuristic is probed
// again.
func TestDeadlinePressureEscalation(t *testing.T) {
	inj := faultinject.New(1)
	srv := newTestServer(t, Config{
		Debounce:     time.Hour,
		SolveTimeout: 20 * time.Millisecond,
		Faults:       inj,
	})
	registerSmall(t, srv, 2)
	if err := srv.ResolveNow(); err != nil {
		t.Fatal(err)
	}
	if ep := srv.Current(); ep.Tier != core.TierHeuristic {
		t.Fatalf("baseline epoch at tier %v", ep.Tier)
	}

	// One hung solve: the epoch deadline fires and arms the pressure.
	inj.Set(faultinject.PointSolverHang, faultinject.Rule{EveryN: 1, Count: 1})
	if err := srv.ForceResolve(); err == nil {
		t.Fatal("hung solve succeeded")
	}
	if got := srv.resolver.pressureLeft; got != pressureHold {
		t.Fatalf("pressureLeft = %d after deadline, want %d", got, pressureHold)
	}

	// The next pressureHold epochs run on the approximate tier...
	for i := 0; i < pressureHold; i++ {
		if err := srv.ForceResolve(); err != nil {
			t.Fatalf("epoch %d under pressure: %v", i, err)
		}
		if ep := srv.Current(); ep.Tier != core.TierApprox {
			t.Fatalf("epoch %d under pressure at tier %v, want approx", i, ep.Tier)
		}
	}
	if got := srv.resolver.pressureLeft; got != 0 {
		t.Fatalf("pressureLeft = %d after hold, want 0", got)
	}

	// ...then the exact tier is probed again.
	if err := srv.ForceResolve(); err != nil {
		t.Fatal(err)
	}
	if ep := srv.Current(); ep.Tier != core.TierHeuristic {
		t.Fatalf("post-pressure probe at tier %v, want heuristic", ep.Tier)
	}
}

// TestScaleEpochUnderDefaultDeadline is the 10k-task acceptance bound:
// one epoch over the full scale scenario must publish through the serve
// daemon inside the default SolveTimeout, on the approximate tier the
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
		// SolveTimeout left zero: the default 2s epoch deadline is the
		// bound under test.
	})
	changed, err := srv.ReplaceTasks(in.Tasks, in.Blocks, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("ReplaceTasks reported no change")
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
	if ep.SolveLatency >= bound {
		t.Fatalf("10k epoch took %v, deadline %v", ep.SolveLatency, bound)
	}
	if n := ep.Deployment.Solution.Breakdown.AdmittedTasks; n == 0 {
		t.Fatal("10k epoch admitted nothing")
	}
	if got := getSolveTier(t, srv); got != "approx" {
		t.Fatalf("healthz solve_tier = %q", got)
	}
}
