package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"offloadnn/internal/core"
	"offloadnn/internal/edge"
	"offloadnn/internal/faultinject"
	"offloadnn/internal/workload"
)

// registerSmall registers Table-IV small-scenario tasks 1..n.
func registerSmall(t *testing.T, srv *Server, n int) {
	t.Helper()
	for i := 1; i <= n; i++ {
		task, err := workload.SmallTask(i)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Register(task, nil); err != nil {
			t.Fatal(err)
		}
	}
}

// healthBody mirrors the /healthz JSON for assertions.
type healthBody struct {
	Status              string  `json:"status"`
	Epoch               uint64  `json:"epoch"`
	Current             bool    `json:"current"`
	GenerationLag       uint64  `json:"generation_lag"`
	StaleForSeconds     float64 `json:"stale_for_seconds"`
	ConsecutiveFailures uint64  `json:"consecutive_failures"`
	LastSolveError      string  `json:"last_solve_error"`
}

func getHealth(t *testing.T, srv *Server) (int, healthBody) {
	t.Helper()
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var h healthBody
	if err := json.Unmarshal(w.Body.Bytes(), &h); err != nil {
		t.Fatalf("healthz body: %v", err)
	}
	return w.Code, h
}

func offloadRec(srv *Server, id string) *httptest.ResponseRecorder {
	body := strings.NewReader(fmt.Sprintf(`{"task":%q}`, id))
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/offload", body))
	return w
}

func TestBackoffSchedule(t *testing.T) {
	const base, max = 100 * time.Millisecond, 5 * time.Second
	mid := func() float64 { return 0.5 } // jitter factor exactly 1.0
	want := []time.Duration{
		100 * time.Millisecond, // n ≤ 1 → base
		100 * time.Millisecond,
		200 * time.Millisecond,
		400 * time.Millisecond,
		800 * time.Millisecond,
		1600 * time.Millisecond,
		3200 * time.Millisecond,
		5 * time.Second, // capped
		5 * time.Second,
	}
	for i, w := range want {
		if got := backoffDelay(base, max, i, mid); got != w {
			t.Fatalf("backoffDelay(n=%d) = %v, want %v", i, got, w)
		}
	}
	// Jitter bounds: factor spans [0.8, 1.2).
	if got := backoffDelay(base, max, 1, func() float64 { return 0 }); got != 80*time.Millisecond {
		t.Fatalf("low jitter: %v, want 80ms", got)
	}
	if got := backoffDelay(base, max, 1, func() float64 { return 0.999 }); got < 100*time.Millisecond || got >= 120*time.Millisecond {
		t.Fatalf("high jitter: %v, want in [100ms, 120ms)", got)
	}
}

// TestSolveLatencyUsesInjectedClock pins the satellite fix: with a
// deterministic clock the measured solve latency must come from that
// clock (and so be zero while it stands still), not from wall time.
func TestSolveLatencyUsesInjectedClock(t *testing.T) {
	clock := newFakeClock()
	srv := newTestServer(t, Config{Debounce: time.Hour, now: clock.Now})
	registerSmall(t, srv, 2)
	if err := srv.ResolveNow(); err != nil {
		t.Fatal(err)
	}
	ep := srv.Current()
	if ep.solveLatency != 0 {
		t.Fatalf("SolveLatency = %v on a static injected clock, want 0", ep.solveLatency)
	}
	if !ep.publishedAt.Equal(clock.Now()) {
		t.Fatalf("PublishedAt = %v, want the injected clock's %v", ep.publishedAt, clock.Now())
	}
}

// TestSolverPanicSurvival injects panics into the solve step and checks
// they become counted solve errors: the last-good epoch keeps serving
// and the next clean solve publishes again.
func TestSolverPanicSurvival(t *testing.T) {
	inj := faultinject.New(1)
	srv := newTestServer(t, Config{Debounce: time.Hour, Faults: inj})
	registerSmall(t, srv, 3)
	if err := srv.ResolveNow(); err != nil {
		t.Fatal(err)
	}
	good := srv.Current()

	inj.Set(faultinject.PointSolverPanic, faultinject.Rule{EveryN: 1, Count: 2})
	task, err := workload.SmallTask(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Register(task, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		err := srv.ResolveNow()
		if err == nil || !strings.Contains(err.Error(), "panic") {
			t.Fatalf("resolve %d under injected panic: err %v, want recovered panic", i, err)
		}
	}
	if got := srv.Stats().solvePanicsTotal(); got != 2 {
		t.Fatalf("SolvePanics = %d, want 2", got)
	}
	if srv.Current() != good {
		t.Fatal("failed solves replaced the last-good epoch")
	}
	if w := offloadRec(srv, "task-1"); w.Code != http.StatusOK {
		t.Fatalf("offload during fault: status %d, want 200 off the last-good epoch", w.Code)
	}

	// Fault exhausted: the next solve publishes and admits the new task.
	if err := srv.ResolveNow(); err != nil {
		t.Fatalf("resolve after fault cleared: %v", err)
	}
	if ep := srv.Current(); ep.N != good.N+1 || ep.generation != srv.Registry().Generation() {
		t.Fatalf("epoch %d gen %d after recovery, want %d and current", ep.N, ep.generation, good.N+1)
	}
	if got := srv.resolver.ConsecutiveFailures(); got != 0 {
		t.Fatalf("consecutive failures %d after success, want 0", got)
	}
}

// TestResolverLoopSurvivesPanics is the acceptance check for the live
// loop: with solver.panic firing on every solve for a while, the
// resolver goroutine must survive, back off, and converge once the
// fault clears — epochs resume without any external intervention.
func TestResolverLoopSurvivesPanics(t *testing.T) {
	inj := faultinject.New(1)
	inj.Set(faultinject.PointSolverPanic, faultinject.Rule{EveryN: 1, Count: 4})
	srv := newTestServer(t, Config{Debounce: time.Millisecond, Faults: inj})
	registerSmall(t, srv, 3)

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		ep := srv.Current()
		if ep != nil && ep.generation == srv.Registry().Generation() {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	ep := srv.Current()
	if ep == nil || ep.generation != srv.Registry().Generation() {
		t.Fatal("resolver loop never recovered from injected panics")
	}
	if got := inj.Fires(faultinject.PointSolverPanic); got != 4 {
		t.Fatalf("panic point fired %d times, want 4 (loop died early?)", got)
	}
	if got := srv.Stats().solvePanicsTotal(); got != 4 {
		t.Fatalf("SolvePanics = %d, want 4", got)
	}
}

// TestSolveTimeoutIncrementalHang bounds a hang injected into the very
// first solve, before any epoch or session exists: it fails with
// DeadlineExceeded after DefaultSolveTimeout, and the next solve builds
// the session and publishes cleanly.
func TestSolveTimeoutIncrementalHang(t *testing.T) {
	inj := faultinject.New(1)
	inj.Set(faultinject.PointSolverHang, faultinject.Rule{EveryN: 1, Count: 1})
	srv := newTestServer(t, Config{Debounce: time.Hour, Faults: inj})
	registerSmall(t, srv, 2)
	if err := srv.ResolveNow(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("hung solve: err %v, want context.DeadlineExceeded", err)
	}
	if ep := srv.Current(); ep != nil {
		t.Fatalf("hung first solve published epoch %d", ep.N)
	}
	if err := srv.ResolveNow(); err != nil {
		t.Fatalf("solve after hang: %v", err)
	}
	if ep := srv.Current(); ep == nil || ep.generation != srv.Registry().Generation() {
		t.Fatal("no current epoch after the hang cleared")
	}
}

// TestSolveFailuresDropSessionAndRecover pins what recovery is without a
// second solve path: every failed solve drops the SolverSession and leaves
// the previous epoch serving, the failure run counts up and degrades
// /healthz from the third, and the first clean epoch rebuilds the session
// on the heuristic tier and publishes the plan a from-scratch
// core.SolveOffloaDNN gives for the same registry. It runs on the 4-task
// small scenario and on a 300-task registry, wide enough that a rebuilt
// session solving anything but the one exact heuristic shows.
func TestSolveFailuresDropSessionAndRecover(t *testing.T) {
	t.Run("small", func(t *testing.T) {
		inj := faultinject.New(1)
		srv := newTestServer(t, Config{Debounce: time.Hour, Faults: inj})
		registerSmall(t, srv, 3)
		last, err := workload.SmallTask(4)
		if err != nil {
			t.Fatal(err)
		}
		solveFailuresDropSessionAndRecover(t, srv, inj, last)
	})
	t.Run("scale-300", func(t *testing.T) {
		inj := faultinject.New(1)
		srv, tasks := scaleServer(t, Config{Faults: inj}, 300, 299)
		solveFailuresDropSessionAndRecover(t, srv, inj, tasks[299])
	})
}

// solveFailuresDropSessionAndRecover takes a server with everything but
// `last` registered and walks it through five failed solves and the
// recovery.
func solveFailuresDropSessionAndRecover(t *testing.T, srv *Server, inj *faultinject.Injector, last core.Task) {
	if err := srv.ResolveNow(); err != nil {
		t.Fatal(err)
	}
	if !sessionLive(srv) {
		t.Fatal("no incremental session after a clean solve")
	}
	before := srv.Current()

	const failures = 5
	inj.Set(faultinject.PointSolverError, faultinject.Rule{EveryN: 1, Count: failures})
	if err := srv.Register(last, nil); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= failures; i++ {
		if err := srv.ResolveNow(); !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("failure %d: err %v, want injected", i, err)
		}
		if sessionLive(srv) {
			t.Fatalf("failure %d left the incremental session live", i)
		}
		if got := srv.Current(); got != before {
			t.Fatalf("failure %d replaced epoch %d with %d", i, before.N, got.N)
		}
		if got := srv.resolver.ConsecutiveFailures(); got != uint64(i) {
			t.Fatalf("failure %d: consecutive failures = %d", i, got)
		}
		wantStatus := "healthy"
		if i >= degradedAfter {
			wantStatus = "degraded"
		}
		if _, h := getHealth(t, srv); h.Status != wantStatus {
			t.Fatalf("failure %d: /healthz %q, want %q", i, h.Status, wantStatus)
		}
	}

	// Fault exhausted: the next epoch rebuilds the session from the
	// registry and equals the from-scratch heuristic.
	if err := srv.ResolveNow(); err != nil {
		t.Fatalf("solve after the failure run: %v", err)
	}
	ep := srv.Current()
	if ep.N != before.N+1 || ep.Tier != core.TierHeuristic {
		t.Fatalf("recovery published epoch %d at tier %v, want %d at heuristic", ep.N, ep.Tier, before.N+1)
	}
	if !sessionLive(srv) {
		t.Fatal("clean epoch did not rebuild the incremental session")
	}
	if code, h := getHealth(t, srv); code != http.StatusOK || h.Status != "healthy" || h.ConsecutiveFailures != 0 {
		t.Fatalf("after recovery: /healthz %d %+v", code, h)
	}
	tasks, blocks, _ := srv.Registry().Snapshot()
	full, err := core.SolveOffloaDNN(&core.Instance{Tasks: tasks, Blocks: blocks, Res: srv.Resources(), Alpha: srv.cfg.Alpha})
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]float64)
	for i, a := range full.Assignments {
		if a.Admitted() {
			want[a.TaskID] = a.Z * tasks[i].Rate
		}
	}
	samePlan(t, "rebuilt session vs from scratch", ep.Deployment.Solution.Cost, full.Cost, ep.Deployment.AdmittedRates, want)
}

// sessionLive peeks at the resolver's incremental session under its
// solve lock.
func sessionLive(srv *Server) bool {
	srv.resolver.solveMu.Lock()
	defer srv.resolver.solveMu.Unlock()
	return srv.resolver.session != nil
}

// TestDeployErrorFault fails the controller's deploy step after a
// successful solve; the resolver counts it and recovers next round.
func TestDeployErrorFault(t *testing.T) {
	inj := faultinject.New(1)
	inj.Set(faultinject.PointDeployError, faultinject.Rule{EveryN: 1, Count: 1})
	srv := newTestServer(t, Config{Debounce: time.Hour, Faults: inj})
	registerSmall(t, srv, 2)
	err := srv.ResolveNow()
	if !errors.Is(err, edge.ErrDeploy) || !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("deploy fault: err %v, want ErrDeploy wrapping ErrInjected", err)
	}
	if err := srv.ResolveNow(); err != nil {
		t.Fatalf("resolve after deploy fault: %v", err)
	}
	if ep := srv.Current(); ep == nil || ep.Deployment == nil {
		t.Fatal("no deployment after recovery")
	}
}

// TestHealthTransitions walks /healthz across the acceptance scenario:
// healthy → degraded under injected panics (still serving off the
// last-good epoch) → healthy again once solves recover.
func TestHealthTransitions(t *testing.T) {
	inj := faultinject.New(1)
	clock := newFakeClock()
	srv := newTestServer(t, Config{Debounce: time.Hour, now: clock.Now, Faults: inj})
	registerSmall(t, srv, 3)
	if err := srv.ResolveNow(); err != nil {
		t.Fatal(err)
	}
	code, h := getHealth(t, srv)
	if code != http.StatusOK || h.Status != "healthy" || !h.Current {
		t.Fatalf("baseline health: code %d, %+v, want healthy and current", code, h)
	}

	inj.Set(faultinject.PointSolverPanic, faultinject.Rule{EveryN: 1})
	task, err := workload.SmallTask(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Register(task, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := srv.ResolveNow(); err == nil {
			t.Fatal("injected panic did not fail the solve")
		}
	}
	code, h = getHealth(t, srv)
	if code != http.StatusOK || h.Status != "degraded" {
		t.Fatalf("health under failures: code %d status %q, want 200/degraded", code, h.Status)
	}
	if h.ConsecutiveFailures != 3 || h.GenerationLag == 0 {
		t.Fatalf("degraded detail: %+v, want 3 consecutive failures and generation lag", h)
	}
	if !strings.Contains(h.LastSolveError, "panic") {
		t.Fatalf("last_solve_error %q does not name the panic", h.LastSolveError)
	}
	// Degraded ≠ down: offloads keep serving off the last-good epoch.
	if w := offloadRec(srv, "task-1"); w.Code != http.StatusOK {
		t.Fatalf("offload while degraded: status %d, want 200", w.Code)
	}

	inj.Clear(faultinject.PointSolverPanic)
	if err := srv.ResolveNow(); err != nil {
		t.Fatalf("resolve after clearing fault: %v", err)
	}
	code, h = getHealth(t, srv)
	if code != http.StatusOK || h.Status != "healthy" || !h.Current || h.ConsecutiveFailures != 0 {
		t.Fatalf("health after recovery: code %d, %+v, want healthy/current/0 failures", code, h)
	}
	if h.LastSolveError != "" {
		t.Fatalf("last_solve_error %q survived recovery", h.LastSolveError)
	}
}

// TestHealthStaleDegraded degrades on plan staleness alone: churn that
// stays unsolved past staleAfter flips /healthz without a single solve
// failure.
func TestHealthStaleDegraded(t *testing.T) {
	clock := newFakeClock()
	srv := newTestServer(t, Config{Debounce: time.Hour, now: clock.Now})
	registerSmall(t, srv, 2)
	if err := srv.ResolveNow(); err != nil {
		t.Fatal(err)
	}
	task, err := workload.SmallTask(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Register(task, nil); err != nil {
		t.Fatal(err)
	}
	clock.Advance(9 * time.Second)
	if _, h := getHealth(t, srv); h.Status != "healthy" {
		t.Fatalf("status %q inside the staleness budget, want healthy", h.Status)
	}
	clock.Advance(2 * time.Second)
	_, h := getHealth(t, srv)
	if h.Status != "degraded" || h.StaleForSeconds < 10 {
		t.Fatalf("status %q stale %.0fs, want degraded past staleAfter", h.Status, h.StaleForSeconds)
	}
	if err := srv.ResolveNow(); err != nil {
		t.Fatal(err)
	}
	if _, h := getHealth(t, srv); h.Status != "healthy" || h.StaleForSeconds != 0 {
		t.Fatalf("after re-solve: %+v, want healthy and no staleness", h)
	}
}

// TestDrainingMode: Drain refuses new registrations (503) while
// offloads keep serving, and /healthz flips to 503/draining.
func TestDrainingMode(t *testing.T) {
	srv := newTestServer(t, Config{Debounce: time.Hour})
	registerSmall(t, srv, 2)
	if err := srv.ResolveNow(); err != nil {
		t.Fatal(err)
	}
	srv.Drain()

	code, h := getHealth(t, srv)
	if code != http.StatusServiceUnavailable || h.Status != "draining" {
		t.Fatalf("draining health: code %d status %q, want 503/draining", code, h.Status)
	}
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/tasks",
		strings.NewReader(`{"id":"late","priority":0.5,"rate":5,"min_accuracy":0.5,"max_latency_ms":200,"input_bits":1e5,"snr_db":20}`)))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("register while draining: status %d, want 503", w.Code)
	}
	var body errorBody
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil || body.Error.Code != CodeDraining {
		t.Fatalf("register while draining: body %s, want code %q", w.Body, CodeDraining)
	}
	if w := offloadRec(srv, "task-1"); w.Code != http.StatusOK {
		t.Fatalf("offload while draining: status %d, want 200 through the drain window", w.Code)
	}
	task, err := workload.SmallTask(5)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Register(task, nil); !errors.Is(err, ErrDraining) {
		t.Fatalf("programmatic register while draining: err %v, want ErrDraining", err)
	}
}

// TestOffloadAbortedClientNotCharged: a request whose client already
// disconnected is counted as aborted and consumes no gate tokens.
func TestOffloadAbortedClientNotCharged(t *testing.T) {
	srv := newTestServer(t, Config{Debounce: time.Hour})
	registerSmall(t, srv, 1)
	if err := srv.ResolveNow(); err != nil {
		t.Fatal(err)
	}

	req := httptest.NewRequest(http.MethodPost, "/v1/offload", strings.NewReader(`{"task":"task-1"}`))
	ctx, cancel := context.WithCancel(req.Context())
	cancel() // the client is gone before the handler runs
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req.WithContext(ctx))
	if w.Code != 499 {
		t.Fatalf("aborted offload: status %d, want 499", w.Code)
	}
	if got := srv.Stats().abortedTotal(); got != 1 {
		t.Fatalf("Aborted = %d, want 1", got)
	}
	if got := srv.Stats().admitted("task-1") + srv.Stats().rejected("task-1"); got != 0 {
		t.Fatalf("aborted request produced %d admit/reject verdicts, want 0", got)
	}
	// The burst token the aborted request did not consume is still there.
	if w := offloadRec(srv, "task-1"); w.Code != http.StatusOK {
		t.Fatalf("offload after abort: status %d, want 200", w.Code)
	}

	// The aborted counter is exported.
	mw := httptest.NewRecorder()
	srv.ServeHTTP(mw, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if !strings.Contains(mw.Body.String(), "offloadnn_offload_aborted_total 1") {
		t.Fatal("metrics missing offloadnn_offload_aborted_total 1")
	}
}

// TestChaosChurnSoak hammers the daemon with registry churn and
// offloads while solver.error fires with p=0.3; run under -race this is
// the chaos acceptance soak. After the fault clears the loop must
// converge onto the latest generation with a working plan.
func TestChaosChurnSoak(t *testing.T) {
	inj := faultinject.New(42)
	inj.Set(faultinject.PointSolverError, faultinject.Rule{P: 0.3})
	srv := newTestServer(t, Config{Debounce: time.Millisecond, Faults: inj})
	registerSmall(t, srv, 3)
	// Ignore the verdict: with p=0.3 this may fail; the soak only needs
	// a first attempt in flight.
	srv.ResolveNow()

	var wg sync.WaitGroup
	const rounds = 25
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base, err := workload.SmallTask(4 + g)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < rounds; i++ {
				task := base
				task.ID = fmt.Sprintf("%s-r%d", base.ID, i)
				if err := srv.Register(task, nil); err != nil {
					t.Errorf("churn register: %v", err)
					return
				}
				if err := srv.Deregister(task.ID); err != nil {
					t.Errorf("churn deregister: %v", err)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds*4; i++ {
				id := fmt.Sprintf("task-%d", i%3+1)
				switch w := offloadRec(srv, id); w.Code {
				case http.StatusOK, http.StatusTooManyRequests:
				default:
					t.Errorf("offload %s under chaos: status %d: %s", id, w.Code, w.Body)
					return
				}
				hw := httptest.NewRecorder()
				srv.ServeHTTP(hw, httptest.NewRequest(http.MethodGet, "/healthz", nil))
				mw := httptest.NewRecorder()
				srv.ServeHTTP(mw, httptest.NewRequest(http.MethodGet, "/metrics", nil))
			}
		}()
	}
	wg.Wait()

	// Force solves until the point has demonstrably fired — how many the
	// background loop produced during the churn is timing-dependent.
	for i := 0; i < 200 && inj.Fires(faultinject.PointSolverError) == 0; i++ {
		srv.ForceResolve()
	}

	// Clear the fault (dropping its counters) and converge.
	fires := inj.Fires(faultinject.PointSolverError)
	inj.Clear(faultinject.PointSolverError)
	if err := srv.ResolveNow(); err != nil {
		t.Fatalf("converging resolve after chaos: %v", err)
	}
	ep := srv.Current()
	if ep == nil || ep.generation != srv.Registry().Generation() {
		t.Fatal("no current epoch after chaos cleared")
	}
	if srv.Registry().Len() != 3 {
		t.Fatalf("registry has %d tasks after chaos, want the 3 base tasks", srv.Registry().Len())
	}
	if fires == 0 {
		t.Fatal("chaos soak never actually injected a failure")
	}
	if w := offloadRec(srv, "task-1"); w.Code != http.StatusOK && w.Code != http.StatusTooManyRequests {
		t.Fatalf("post-chaos offload: status %d", w.Code)
	}
}
