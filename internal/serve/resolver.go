package serve

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"offloadnn/internal/core"
	"offloadnn/internal/edge"
	"offloadnn/internal/exec"
	"offloadnn/internal/faultinject"
)

// Epoch is one installed pass of the Fig. 4 loop: the deployment the
// controller produced for a snapshot of the registry, plus the admission
// gates enforcing its notified rates. Epochs are immutable once
// published; the request path reads whichever epoch is current through
// an atomic pointer (RCU-style), so offloads never block on a re-solve
// and a re-solve never waits for in-flight requests.
type Epoch struct {
	// N is the epoch sequence number, starting at 1.
	N uint64
	// generation is the registry generation the epoch was solved from.
	generation uint64
	// Tasks is the registry snapshot the solver saw, in registration
	// order (parallel to Deployment.Solution.Assignments).
	Tasks []core.Task
	// Deployment is the admission outcome; nil when the registry was
	// empty at solve time.
	Deployment *edge.Deployment
	// solveLatency is how long the solve-and-deploy step took.
	solveLatency time.Duration
	// Tier is the solver tier that produced the epoch's plan
	// (the zero core.Tier, "auto", for an empty registry).
	Tier core.Tier
	// publishedAt is when the epoch was installed, on the resolver's
	// clock; the health state machine ages the plan against it.
	publishedAt time.Time

	// units is the node's serving table for the life of the epoch, keyed
	// exec.RouteKey(task, from): the deployment's whole paths plus the
	// segments pushed to the node, built once at publish.
	units map[string]*unit
}

// unit returns what serves the task's requests entering at stage from,
// nil when the epoch has nothing installed there.
func (e *Epoch) unit(task string, from int) *unit {
	if e == nil {
		return nil
	}
	return e.units[exec.RouteKey(task, from)]
}

// addUnit files a unit under its route key (a pushed segment replaces the
// whole path of the same task) and gives a raw-frame unit its admission
// gate. A publish must not re-grant a burst: a task the previous epoch
// served keeps that epoch's gate while its admitted rate is unchanged,
// and on a rate change gets a new gate carrying the old bucket across.
// Only a newly served task starts with a full bucket.
func (e *Epoch) addUnit(prev *Epoch, u *unit, now func() time.Time) {
	if u.headSeg() {
		switch old := prev.unit(u.Task, 0); {
		case old == nil:
			u.gate = newGate(u.Rate, now)
		case old.Rate == u.Rate:
			u.gate = old.gate
		default:
			u.gate = old.gate.rerated(u.Rate)
		}
	}
	e.units[exec.RouteKey(u.Task, u.From)] = u
}

// admittedRate returns the task's notified rate z·λ, zero when the epoch
// does not admit it.
func (e *Epoch) admittedRate(id string) float64 {
	if e == nil || e.Deployment == nil {
		return 0
	}
	return e.Deployment.AdmittedRates[id]
}

// Assignment returns the task's admitted assignment.
func (e *Epoch) Assignment(id string) (core.Assignment, bool) {
	if u := e.unit(id, 0); u != nil && u.whole() {
		return *u.assign, true
	}
	return core.Assignment{}, false
}

// resolver owns the epoch lifecycle: it watches the registry for churn,
// debounces it, re-runs the admission round and atomically publishes the
// resulting epoch. A kick during an in-flight solve is retained, so the
// loop always converges onto the latest registry generation.
//
// On the heuristic tier the resolver runs incrementally: it keeps a
// core.SolverSession across epochs and feeds it the task delta between
// the session's state and the registry snapshot, so only the cliques the
// churn touched are rebuilt. The approximate tier is a full solve through
// core.SolveSpec.
//
// The resolver is built to survive its solver. A panic inside the solve
// step is recovered into a counted solve error; a hung solve is bounded
// by DefaultSolveTimeout; a failed epoch drops the session, so the
// next one rebuilds it from the registry; and consecutive failures back
// off exponentially (capped, jittered) instead of retrying hot. In every
// failure mode the last-good epoch keeps serving.
type resolver struct {
	// cfg is the server's configuration.
	cfg   Config
	reg   *Registry
	ctrl  *edge.Controller
	stats *Stats
	// segments supplies the node's pushed split-path segment set; every
	// epoch installs and serves it, so segment models and routes swap
	// atomically with the deployment.
	segments func() []SegmentSpec
	// jitter draws the backoff jitter factor source in [0,1);
	// injectable for deterministic schedule tests.
	jitter func() float64

	cur  atomic.Pointer[Epoch]
	kick chan struct{}
	done chan struct{}
	wg   sync.WaitGroup
	once sync.Once

	// ctx is canceled by Close so an in-flight incremental solve aborts
	// instead of delaying shutdown.
	ctx    context.Context
	cancel context.CancelFunc

	// fails counts consecutive solve failures; zeroed on success. Read
	// by the health state machine and /metrics without solveMu.
	fails atomic.Uint64
	// staleSince is when the published plan first fell behind the
	// registry (unix nanos on the injected clock); zero while current.
	// Kick sets it, a publish clears it.
	staleSince atomic.Int64

	// solveMu serializes epoch production (numbering + publication);
	// readers never take it.
	solveMu sync.Mutex
	epochN  uint64
	// session is the live SolverSession (nil before the first non-empty
	// solve and after any error, so the next epoch rebuilds from
	// scratch). Guarded by solveMu.
	session *core.SolverSession
	// budget is the pool every epoch is solved against, net of the pushed
	// segments and priced at the pushed norm; resident marks the blocks
	// the segments hold. Guarded by solveMu.
	budget   core.Resources
	resident map[string]bool
}

func newResolver(cfg Config, reg *Registry, stats *Stats, segments func() []SegmentSpec) *resolver {
	ctrl := edge.NewController(cfg.Res)
	ctrl.Faults = cfg.Faults
	ctx, cancel := context.WithCancel(context.Background())
	r := &resolver{
		cfg:      cfg,
		reg:      reg,
		ctrl:     ctrl,
		stats:    stats,
		segments: segments,
		budget:   cfg.Res,
		jitter:   rand.Float64,
		kick:     make(chan struct{}, 1),
		done:     make(chan struct{}),
		ctx:      ctx,
		cancel:   cancel,
	}
	r.wg.Add(1)
	go r.loop()
	return r
}

// Current returns the published epoch, nil before the first solve.
func (r *resolver) Current() *Epoch { return r.cur.Load() }

// ConsecutiveFailures returns the current run of failed solves.
func (r *resolver) ConsecutiveFailures() uint64 { return r.fails.Load() }

// StaleSince returns when the published plan first fell behind the
// registry, and false while the plan is current.
func (r *resolver) StaleSince() (time.Time, bool) {
	ns := r.staleSince.Load()
	if ns == 0 {
		return time.Time{}, false
	}
	return time.Unix(0, ns), true
}

// Kick signals that the registry changed. Coalesces: kicks arriving
// while one is pending fold into it. The first kick after a publish
// starts the staleness clock the health state machine reads.
func (r *resolver) Kick() {
	r.staleSince.CompareAndSwap(0, r.cfg.now().UnixNano())
	select {
	case r.kick <- struct{}{}:
	default:
	}
}

// Close stops the loop, cancels any in-flight incremental solve, and
// waits for the loop to exit.
func (r *resolver) Close() {
	r.once.Do(func() {
		close(r.done)
		r.cancel()
	})
	r.wg.Wait()
}

// loop debounces churn into epochs: the first kick opens a batching
// window of Config.Debounce; everything that arrives within it lands in the
// same re-solve, and churn during the solve leaves a pending kick that
// triggers the next round. A failed re-solve retries with capped
// exponential backoff instead of waiting for (or being re-triggered hot
// by) further churn, so a persistently failing solver costs a bounded
// solve rate and the loop still converges the moment it recovers.
func (r *resolver) loop() {
	defer r.wg.Done()
	for {
		select {
		case <-r.done:
			return
		case <-r.kick:
		}
		if !r.sleep(r.cfg.Debounce) {
			return
		}
		for {
			err := r.ResolveNow()
			if err == nil {
				break
			}
			if r.cfg.Logf != nil {
				r.cfg.Logf("serve: epoch re-solve: %v", err)
			}
			if !r.sleep(r.backoffDelay()) {
				return
			}
			// Drain any kick that arrived while backing off: the retry
			// snapshots the latest generation anyway, and consuming it
			// here keeps churn from bypassing the backoff via the outer
			// select.
			select {
			case <-r.kick:
			default:
			}
		}
	}
}

// sleep waits d, returning false when the resolver closed first.
func (r *resolver) sleep(d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-r.done:
		return false
	case <-t.C:
		return true
	}
}

// backoffDelay returns the wait before the next retry given the current
// consecutive-failure count: from the debounce window up to backoffMax,
// or up to the debounce when that is longer.
func (r *resolver) backoffDelay() time.Duration {
	base := r.cfg.Debounce
	return backoffDelay(base, max(base, backoffMax), int(r.fails.Load()), r.jitter)
}

// backoffDelay computes base·2^(n−1) capped at max, scaled by a jitter
// factor in [0.8, 1.2) drawn from jitter() ∈ [0,1). n is the
// consecutive-failure count (n ≤ 1 yields base).
func backoffDelay(base, max time.Duration, n int, jitter func() float64) time.Duration {
	d := base
	for i := 1; i < n && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	if jitter != nil {
		d = time.Duration(float64(d) * (0.8 + 0.4*jitter()))
	}
	return d
}

// ResolveNow synchronously produces and publishes an epoch for the
// current registry state. It is a no-op when the published epoch already
// matches the registry generation. On solver error (or recovered solver
// panic) the previous epoch stays in place — requests keep being served
// under the old plan — and the error is returned.
func (r *resolver) ResolveNow() error { return r.resolve(false) }

// ForceResolve re-solves and republishes even when the published epoch
// is current — the serving-path cost benchmarks measure this.
func (r *resolver) ForceResolve() error { return r.resolve(true) }

func (r *resolver) resolve(force bool) error {
	r.solveMu.Lock()
	defer r.solveMu.Unlock()
	tasks, blocks, gen := r.reg.Snapshot()
	if cur := r.cur.Load(); !force && cur != nil && cur.generation == gen {
		r.staleSince.Store(0) // a pending kick raced an already-current epoch
		return nil
	}
	start := r.cfg.now()
	prev, segs := r.cur.Load(), r.segments()
	ep := &Epoch{generation: gen, Tasks: tasks, units: make(map[string]*unit, len(tasks)+len(segs))}
	if len(tasks) == 0 {
		r.session = nil // an empty registry resets the incremental session
	} else {
		dep, solved, err := r.produce(tasks, blocks)
		if err != nil {
			r.recordFailure(err)
			return err
		}
		// solved is the task order the assignments are parallel to (the
		// session's registration order on the incremental path).
		tasks = solved
		ep.Tasks = solved
		ep.Deployment = dep
		ep.Tier = dep.Solution.Tier
		// The predicted latencies are the unscaled planning costs — the
		// same arithmetic the emulator and the simulated backend apply
		// their factors to.
		costs := edge.PlanCosts(tasks, blocks, r.cfg.Res, dep, 0)
		for i := range dep.Solution.Assignments {
			a := &dep.Solution.Assignments[i]
			if !a.Admitted() {
				continue
			}
			ep.addUnit(prev, &unit{
				SegmentSpec: SegmentSpec{Task: a.TaskID, Path: a.Path.ID, DNN: a.Path.DNN,
					Blocks: a.Path.Blocks, To: len(a.Path.Blocks), Rate: dep.AdmittedRates[a.TaskID]},
				budget:  dep.LatencyBounds[a.TaskID],
				planned: costs[a.TaskID].Total(),
				assign:  a,
			}, r.cfg.now)
		}
	}
	execSegs := make([]exec.Segment, 0, len(segs))
	for _, sp := range segs {
		ep.addUnit(prev, &unit{SegmentSpec: sp, budget: time.Duration(sp.BudgetMS * float64(time.Millisecond))}, r.cfg.now)
		execSegs = append(execSegs, sp.execSegment())
	}
	// Install the deployment into the execution backend before the epoch
	// becomes visible: a failed install (e.g. a path naming a block the
	// model template cannot realize) keeps the previous epoch — and the
	// previous backend plan — serving.
	if err := r.cfg.Backend.Install(&exec.Plan{
		Epoch:      r.epochN + 1,
		Node:       r.cfg.Node,
		Tasks:      ep.Tasks,
		Blocks:     blocks,
		Res:        r.cfg.Res,
		Deployment: ep.Deployment,
		Segments:   execSegs,
	}); err != nil {
		err = fmt.Errorf("serve: backend install: %w", err)
		r.recordFailure(err)
		return err
	}
	ep.solveLatency = r.cfg.now().Sub(start)
	ep.publishedAt = r.cfg.now()
	r.epochN++
	ep.N = r.epochN
	r.cur.Store(ep)
	r.stats.solves.Add(1)
	r.stats.lastSolveNanos.Store(int64(ep.solveLatency))
	if ep.Deployment != nil {
		r.stats.recordSolveTier(ep.Tier, ep.solveLatency)
	}
	r.recordSuccess()
	return nil
}

// pickTier is the size rule: the approximate admission tier from
// defaultApproxAfter registered tasks, the exact incremental heuristic
// below.
func pickTier(n int) core.Tier {
	if n >= defaultApproxAfter {
		return core.TierApprox
	}
	return core.TierHeuristic
}

// produce runs the solve-and-deploy step under panic isolation and the
// DefaultSolveTimeout deadline, returning the deployment and the task order its
// assignments are parallel to. The solution comes from the session on the
// heuristic tier and from a full core.SolveSpec solve on the approximate
// one — the session, if any, then stays cached for when the registry
// shrinks back under defaultApproxAfter. Caller holds solveMu.
func (r *resolver) produce(tasks []core.Task, blocks map[string]core.BlockSpec) (dep *edge.Deployment, solved []core.Task, err error) {
	ctx, cancel := context.WithTimeout(r.ctx, DefaultSolveTimeout)
	defer cancel()
	defer func() {
		if p := recover(); p != nil {
			r.stats.solvePanics.Add(1)
			if r.cfg.Logf != nil {
				r.cfg.Logf("serve: recovered solver panic: %v\n%s", p, debug.Stack())
			}
			dep, solved, err = nil, nil, fmt.Errorf("serve: recovered solver panic: %v", p)
		}
	}()
	// Fault-injection points: no-ops unless a chaos test or the
	// edgeserve -fault flag armed them.
	for _, point := range []string{
		faultinject.PointSolverError,
		faultinject.PointSolverPanic,
		faultinject.PointSolverHang,
	} {
		if err := r.cfg.Faults.Hit(ctx, point); err != nil {
			return nil, nil, err
		}
	}
	var in *core.Instance
	var sol *core.Solution
	tier := pickTier(len(tasks))
	incremental := tier == core.TierHeuristic
	if incremental {
		in, sol, err = r.solveSession(ctx, tasks, blocks)
	} else {
		in = &core.Instance{Tasks: tasks, Blocks: blocks, Res: r.budget, Alpha: r.cfg.Alpha, Predeployed: r.resident}
		sol, err = core.SolveSpec(ctx, in, core.SolverSpec{Tier: tier})
	}
	if err == nil {
		dep, err = r.ctrl.Deploy(in, sol)
	}
	if err != nil {
		return nil, nil, err
	}
	if incremental {
		// Assignments are parallel to the session's task order (which
		// tracks registration order); publish a copy of that order — the
		// session edits its own in place.
		return dep, r.session.Tasks(), nil
	}
	return dep, tasks, nil
}

// setBudget installs the budget and resident blocks of every subsequent
// solve and reports whether either changed. A change drops the
// incremental session: its cached state was built against the old
// budgets and prices. ReplacePlan forces a re-solve when anything changed.
func (r *resolver) setBudget(res core.Resources, resident map[string]bool) bool {
	r.solveMu.Lock()
	defer r.solveMu.Unlock()
	if sameBudget(r.budget, res) && maps.Equal(r.resident, resident) {
		return false
	}
	r.budget, r.resident = res, resident
	r.session = nil
	return true
}

// sameBudget compares two pools by the fields a solve reads, the pricing
// override's included.
func sameBudget(a, b core.Resources) bool {
	if (a.Norm == nil) != (b.Norm == nil) || a.Norm != nil && !sameBudget(*a.Norm, *b.Norm) {
		return false
	}
	a.Norm, b.Norm, a.Capacity, b.Capacity = nil, nil, nil, nil
	return a == b
}

// recordFailure counts a failed epoch and drops the session: an error or a
// recovered panic mid-solve leaves its state of unknown consistency, so
// the next epoch rebuilds it from the registry. Caller holds solveMu.
func (r *resolver) recordFailure(err error) {
	r.session = nil
	r.stats.solveErrors.Add(1)
	r.stats.setLastSolveError(err)
	r.fails.Add(1)
}

// recordSuccess resets the failure run. Caller holds solveMu.
func (r *resolver) recordSuccess() {
	r.fails.Store(0)
	r.staleSince.Store(0)
	r.stats.setLastSolveError(nil)
}

// solveSession solves through the solver session: it diffs the session's
// task set against the registry snapshot into a TaskDelta (building the
// session on first use) and re-solves incrementally, returning the
// session's instance with the solution. Caller holds solveMu; on error
// recordFailure drops the session.
func (r *resolver) solveSession(ctx context.Context, tasks []core.Task, blocks map[string]core.BlockSpec) (*core.Instance, *core.Solution, error) {
	var delta core.TaskDelta
	if r.session == nil {
		sess, err := core.NewSolverSession(&core.Instance{
			Tasks:       tasks,
			Blocks:      blocks,
			Res:         r.budget,
			Alpha:       r.cfg.Alpha,
			Predeployed: r.resident,
		})
		if err != nil {
			return nil, nil, err
		}
		r.session = sess
	} else {
		delta = sessionDelta(r.session, tasks, blocks)
	}
	sol, err := r.session.Resolve(ctx, delta)
	if err != nil {
		return nil, nil, err
	}
	return r.session.Instance(), sol, nil
}

// sessionDelta computes the churn between a session's task set and a
// registry snapshot. Tasks are matched by ID; a task whose only change is
// its request rate becomes a rate update (which invalidates no cached
// cliques), any other change becomes a remove + re-add. Path slices are
// compared by identity (length plus backing array), which holds across
// snapshots because the registry builds a task's paths once at
// registration and every Snapshot copy shares them.
func sessionDelta(sess *core.SolverSession, tasks []core.Task, blocks map[string]core.BlockSpec) core.TaskDelta {
	var delta core.TaskDelta
	inst := sess.Instance()
	for id, b := range blocks {
		if _, ok := inst.Blocks[id]; !ok {
			if delta.AddBlocks == nil {
				delta.AddBlocks = make(map[string]core.BlockSpec)
			}
			delta.AddBlocks[id] = b
		}
	}
	have := make(map[string]*core.Task, len(inst.Tasks))
	for i := range inst.Tasks {
		have[inst.Tasks[i].ID] = &inst.Tasks[i]
	}
	want := make(map[string]bool, len(tasks))
	for i := range tasks {
		t := &tasks[i]
		want[t.ID] = true
		prev, ok := have[t.ID]
		switch {
		case !ok:
			delta.Add = append(delta.Add, *t)
		case taskUnchangedExceptRate(prev, t):
			if prev.Rate != t.Rate {
				if delta.Rate == nil {
					delta.Rate = make(map[string]float64)
				}
				delta.Rate[t.ID] = t.Rate
			}
		default:
			delta.Remove = append(delta.Remove, t.ID)
			delta.Add = append(delta.Add, *t)
		}
	}
	for id := range have {
		if !want[id] {
			delta.Remove = append(delta.Remove, id)
		}
	}
	return delta
}

// taskUnchangedExceptRate reports whether two snapshots of a task differ
// at most in their request rate — the one field that does not enter tree
// construction.
func taskUnchangedExceptRate(a, b *core.Task) bool {
	return a.Priority == b.Priority &&
		a.MinAccuracy == b.MinAccuracy &&
		a.MaxLatency == b.MaxLatency &&
		a.InputBits == b.InputBits &&
		a.SNRdB == b.SNRdB &&
		sameQualities(a.Qualities, b.Qualities) &&
		samePaths(a.Paths, b.Paths)
}

func sameQualities(a, b []core.QualityLevel) bool {
	if len(a) != len(b) {
		return false
	}
	return len(a) == 0 || &a[0] == &b[0]
}

func samePaths(a, b []core.PathSpec) bool {
	if len(a) != len(b) {
		return false
	}
	return len(a) == 0 || &a[0] == &b[0]
}
