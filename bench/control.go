package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"offloadnn/internal/core"
	"offloadnn/internal/edge"
	"offloadnn/internal/exec"
	"offloadnn/internal/serve"
	"offloadnn/internal/workload"
)

// The control-plane workloads are fixed-count: their operation counts
// follow from -seconds (sized so the default run takes about that long
// on the reference box) and not from how fast the box is, so the
// admission sums they report repeat exactly.

// noDebounce keeps the servers' background re-solver out of the way: the
// benchmark resolves explicitly, and times exactly that.
const noDebounce = time.Hour

const (
	// churnEventsPerSecond sizes epoch-churn: an event takes ≈0.9 ms, and
	// each of the run's slices gets 500 of them, 25 beyond its p95.
	churnEventsPerSecond = 1000
	// churnMinLive keeps half the scenario registered through the churn.
	churnMinLive = 10
)

// checkEpoch re-checks a published epoch against the DOT constraints.
func checkEpoch(ep *serve.Epoch, blocks map[string]core.BlockSpec, res core.Resources, alpha float64) error {
	if ep == nil || ep.Deployment == nil {
		return fmt.Errorf("no deployment published")
	}
	in := &core.Instance{Tasks: ep.Tasks, Blocks: blocks, Res: res, Alpha: alpha}
	return in.Check(ep.Deployment.Solution.Assignments)
}

// registerAll registers an instance's tasks. The block catalog rides
// along with the first task only: the registry merges it entry by entry
// on every call it is handed to.
func registerAll(srv *serve.Server, inst *core.Instance) error {
	blocks := inst.Blocks
	for _, t := range inst.Tasks {
		if err := srv.Register(t, blocks); err != nil {
			return err
		}
		blocks = nil
	}
	return nil
}

// applyChurn performs one event through the server's public registration
// calls. A rate change is a deregister and a re-register of the same task
// at the new rate; the resolver sees one rate delta.
func applyChurn(srv *serve.Server, inst *core.Instance, e churnEvent) error {
	t := inst.Tasks[e.Task]
	if e.Kind != churnRegister {
		if err := srv.Deregister(t.ID); err != nil {
			return err
		}
	}
	if e.Kind != churnDeregister {
		t.Rate *= e.Factor
		return srv.Register(t, nil)
	}
	return nil
}

func runEpochChurn(rc *runCtx) error {
	inst, err := workload.LargeScenario(workload.LoadHigh)
	if err != nil {
		return err
	}
	count := int(churnEventsPerSecond * rc.seconds)
	warm := count / 20
	in := &inputs{Churn: genChurn(rc.rng(), len(inst.Tasks), warm+count, churnMinLive)}
	rc.digest = in.digest()

	real, err := exec.NewReal(realConfig())
	if err != nil {
		return err
	}
	var backend exec.Backend = real
	rec := newRecorder()
	if rc.trace {
		backend = &tracingBackend{Backend: real, rec: rec}
	}
	srv, err := serve.New(serve.Config{Res: inst.Res, Alpha: inst.Alpha, Debounce: noDebounce, Backend: backend})
	if err != nil {
		real.Close()
		return err
	}
	defer srv.Close()
	if err := registerAll(srv, inst); err != nil {
		return err
	}
	t0 := time.Now()
	if err := srv.ResolveNow(); err != nil {
		return err
	}
	cold := time.Since(t0)
	if err := checkEpoch(srv.Current(), inst.Blocks, inst.Res, inst.Alpha); err != nil {
		return fmt.Errorf("first epoch: %w", err)
	}
	rc.setupDone(cold)
	coldSpans := rec.take()
	runtime.GC() // as in runFrames: enter the measured phase at a fixed point of the collector's cycle

	var publish, self, installs []float64 // ms
	var byKind [3][]float64               // publish by churnKind
	var admission float64
	var measured time.Duration
	for i, e := range in.Churn {
		if err := applyChurn(srv, inst, e); err != nil {
			return err
		}
		t0 := time.Now()
		err := srv.ResolveNow()
		d := time.Since(t0)
		spans := rec.take()
		if i < warm {
			continue
		}
		rc.attempted++
		measured += d
		if err != nil {
			rc.failed++
			rc.note("event %d: %v", i, err)
			continue
		}
		ep := srv.Current()
		if err := checkEpoch(ep, inst.Blocks, inst.Res, inst.Alpha); err != nil {
			rc.wrong++
			rc.note("event %d: epoch %d fails Check: %v", i, ep.N, err)
		}
		publish = append(publish, ms(d))
		byKind[e.Kind] = append(byKind[e.Kind], ms(d))
		admission += ep.Deployment.Solution.Breakdown.WeightedAdmission
		if rc.trace {
			// serve's own share of the publish: the span minus the
			// backend install under it and the solver's own runtime.
			var install time.Duration
			for _, sp := range spans {
				install += sp.dur()
			}
			self = append(self, ms(d-install-ep.Deployment.Solution.Runtime))
			installs = append(installs, ms(install))
		}
	}
	if len(publish) == 0 {
		return fmt.Errorf("no epoch published")
	}
	// As in a data-plane pass, the timings are those of the best-decile
	// slice (see bestShare), here of equally many consecutive events each.
	n := sliceCount(rc.window())
	bySlice := make([][]float64, n)
	for i, d := range publish {
		bySlice[i*n/len(publish)] = append(bySlice[i*n/len(publish)], d)
	}
	var rates []float64 // epochs per second of publishing
	for _, l := range bySlice {
		if len(l) > 0 {
			rates = append(rates, 1000*float64(len(l))/sum(l))
		}
	}
	asc := sorted(publish)
	_, tailQ := tail(asc, 0.95)
	p99, q99 := tail(asc, 0.99)
	p50s, tails := sliceFigures(bySlice, tailQ)
	rc.note("epochs: %d published of %d events (%d warm-up discarded) | publish n=%d, best-decile slice of %d: p50 %.3f ms p%g %.3f ms, %.1f epochs/s | whole run (diagnostic): p50 %.3f ms p%g %.3f ms p%g %.3f ms, %.1f epochs/s",
		len(publish), rc.attempted, warm, len(asc), len(rates), bestLow(p50s), tailQ*100, bestLow(tails), bestHigh(rates),
		quantile(asc, 0.5), tailQ*100, quantile(asc, tailQ), q99*100, p99, float64(len(publish))/measured.Seconds())
	rc.note("publish p50 by event: deregister n=%d %.3f ms, register n=%d %.3f ms, rate change n=%d %.3f ms",
		len(byKind[churnDeregister]), median(byKind[churnDeregister]), len(byKind[churnRegister]), median(byKind[churnRegister]),
		len(byKind[churnRate]), median(byKind[churnRate]))
	if !rc.trace {
		rc.set("op_p50_ms", bestLow(p50s))
		rc.set("op_p95_ms", bestLow(tails))
		rc.set("ops_per_s", bestHigh(rates))
		rc.set("weighted_admission", admission/float64(len(publish)))
		// Memory is read with the scenario as it was first registered, so
		// it does not depend on which tasks and rates the seed's last
		// events left behind.
		gone := make(map[int]bool)
		for _, e := range in.Churn {
			gone[e.Task] = e.Kind == churnDeregister
		}
		for t, task := range inst.Tasks {
			if !gone[t] {
				if err := srv.Deregister(task.ID); err != nil {
					return err
				}
			}
			if err := srv.Register(task, nil); err != nil {
				return err
			}
		}
		if err := srv.ResolveNow(); err != nil {
			return err
		}
		return rc.measureRSS()
	}

	rc.set("serve.epoch_self_p50_ms", median(self))
	rc.set("exec.install_warm_p50_ms", median(installs))
	for _, sp := range coldSpans {
		rc.set("exec.install_cold_ms", ms(sp.dur()))
	}
	st := srv.Backend().Stats()
	rc.set("exec.models", float64(st.Models))
	rc.set("exec.blocks", float64(st.Blocks))
	rc.set("exec.quant_fallbacks", float64(st.QuantFallbacks))
	rc.set("bench.failed_share", float64(rc.failed)/float64(rc.attempted))
	rc.set("bench.wrong_answers", float64(rc.wrong))
	if err := probeSession(rc, inst, in.Churn); err != nil {
		return err
	}
	sol, err := core.SolveOffloaDNN(inst)
	if err != nil {
		return err
	}
	return probeDeploy(rc, "edge.deploy_ms.20", inst, sol)
}

// probeSession replays the churn on a bare core.SolverSession: what the
// publish would cost were the solver all of it.
func probeSession(rc *runCtx, inst *core.Instance, churn []churnEvent) error {
	sess, err := core.NewSolverSession(inst)
	if err != nil {
		return err
	}
	ctx := context.Background()
	if _, err := sess.Resolve(ctx, core.TaskDelta{}); err != nil {
		return err
	}
	var durs []float64
	for _, e := range churn {
		t := inst.Tasks[e.Task]
		var delta core.TaskDelta
		switch e.Kind {
		case churnDeregister:
			delta.Remove = []string{t.ID}
		case churnRegister:
			delta.Add = []core.Task{t}
		case churnRate:
			delta.Rate = map[string]float64{t.ID: t.Rate * e.Factor}
		}
		t0 := time.Now()
		if _, err := sess.Resolve(ctx, delta); err != nil {
			return fmt.Errorf("session replay: %w", err)
		}
		durs = append(durs, ms(time.Since(t0)))
	}
	rc.set("core.session_resolve_p50_ms", median(durs))
	return nil
}

// probeDeploy times edge.Controller.Deploy of a solved instance.
func probeDeploy(rc *runCtx, name string, inst *core.Instance, sol *core.Solution) error {
	ctrl := edge.NewController(inst.Res)
	v, err := timeIt(func() error {
		_, err := ctrl.Deploy(inst, sol)
		return err
	})
	rc.set(name, v)
	return err
}

const (
	// scaleTasks and exactTasks size solve-scale's two instances.
	scaleTasks = 10000
	exactTasks = 512
)

// scaleInstance builds a scale scenario with the seeded ±10 % λ jitter.
func scaleInstance(tasks int, jitter []float64) (*core.Instance, error) {
	inst, err := workload.ScaleScenario(tasks)
	if err != nil {
		return nil, err
	}
	for i := range inst.Tasks {
		inst.Tasks[i].Rate *= jitter[i]
	}
	return inst, nil
}

func runSolveScale(rc *runCtx) error {
	// 5 epochs at 10k tasks and 24 exact solves at 512, with the set-up
	// children's epochs before them, fill the default fifteen seconds.
	epochs := max(3, int(rc.seconds/3))
	solves := max(3, int(rc.seconds*1.6))
	in := &inputs{Jitter: genJitter(rc.rng(), scaleTasks)}
	rc.digest = in.digest()

	t0 := time.Now()
	big, err := scaleInstance(scaleTasks, in.Jitter)
	if err != nil {
		return err
	}
	rc.set("workload.scale_10k_build_s", time.Since(t0).Seconds())
	// A default-configuration server: auto tier, simulated backend.
	srv, err := serve.New(serve.Config{Res: big.Res, Alpha: big.Alpha, Debounce: noDebounce})
	if err != nil {
		return err
	}
	defer srv.Close()
	if err := registerAll(srv, big); err != nil {
		return err
	}
	var admission10k float64
	var epoch10k []float64 // seconds
	for i := 0; i < epochs; i++ {
		t0 := time.Now()
		err := srv.ForceResolve()
		d := time.Since(t0)
		rc.attempted++
		if err != nil {
			if i == 0 {
				return fmt.Errorf("first 10k epoch: %w", err)
			}
			rc.failed++
			rc.note("10k epoch %d: %v", i, err)
			continue
		}
		ep := srv.Current()
		if err := checkEpoch(ep, big.Blocks, big.Res, big.Alpha); err != nil {
			rc.wrong++
			rc.note("10k epoch %d fails Check: %v", ep.N, err)
		}
		admission10k = ep.Deployment.Solution.Breakdown.WeightedAdmission
		if i == 0 {
			rc.setupDone(d)
		}
		epoch10k = append(epoch10k, d.Seconds())
		rc.note("10k epoch %d: %.3f s, tier %s, Σz·p %.6f", ep.N, d.Seconds(), ep.Tier, admission10k)
	}

	// Every exact solve gets an instance of its own, jittered by another
	// stretch of the seeded vector: how long one instance takes to solve
	// depends on its rates by up to a tenth, and a figure taken over many
	// says what the solver costs, not which rates the seed drew.
	var small *core.Instance // the first of them, which the probes reuse
	var exact []float64      // ms
	var admission512 float64
	var sol *core.Solution
	for i := 0; i < solves; i++ {
		inst, err := scaleInstance(exactTasks, in.Jitter[i*exactTasks%(scaleTasks-exactTasks):])
		if err != nil {
			return err
		}
		t0 := time.Now()
		s, err := core.SolveOffloaDNN(inst)
		d := time.Since(t0)
		rc.attempted++
		if err != nil {
			rc.failed++
			rc.note("exact solve %d: %v", i, err)
			continue
		}
		if err := inst.Check(s.Assignments); err != nil {
			rc.wrong++
			rc.note("exact solve %d fails Check: %v", i, err)
		}
		exact = append(exact, ms(d))
		if sol == nil {
			small, sol, admission512 = inst, s, s.Breakdown.WeightedAdmission
		}
	}
	if sol == nil {
		return fmt.Errorf("no exact solve succeeded")
	}
	// Every solve is a slice of its own (see bestShare): too few for a
	// tail, so both latencies are the best-decile solve's.
	asc := sorted(exact)
	rates := make([]float64, len(exact)) // solves per second
	for i, d := range exact {
		rates[i] = 1000 / d
	}
	rc.note("exact %d-task solves: n=%d best-decile %.1f ms, %.3f solves/s | all (diagnostic): median %.1f ms, fastest %.1f ms, Σz·p of the first %.6f, each %.0f ms",
		exactTasks, len(asc), bestLow(exact), bestHigh(rates), quantile(asc, 0.5), asc[0], admission512, exact)
	if !rc.trace {
		rc.set("op_p50_ms", bestLow(exact))
		rc.set("op_p95_ms", bestLow(exact))
		rc.set("ops_per_s", bestHigh(rates))
		rc.set("weighted_admission", admission10k)
		return rc.measureRSS()
	}

	rc.set("serve.epoch_10k_s", median(epoch10k))
	rc.set("core.weighted_admission_512", admission512)
	rc.set("bench.failed_share", float64(rc.failed)/float64(rc.attempted))
	rc.set("bench.wrong_answers", float64(rc.wrong))
	v, err := timeIt(func() error {
		_, err := core.BuildTree(small)
		return err
	})
	if err != nil {
		return err
	}
	rc.set("core.build_tree_ms", v)
	// The first branch's paths, re-allocated from scratch.
	branch := append([]core.Assignment(nil), sol.Assignments...)
	t0 = time.Now()
	if err := small.OptimizeAllocation(branch); err != nil {
		return err
	}
	rc.set("core.optimize_allocation_ms", ms(time.Since(t0)))

	ctx := context.Background()
	sharded, err := core.SolveSpec(ctx, big, core.SolverSpec{Tier: core.TierHeuristic})
	if err != nil {
		return err
	}
	approx, err := core.SolveSpec(ctx, big, core.SolverSpec{Tier: core.TierApprox})
	if err != nil {
		return err
	}
	rc.set("core.solve_sharded_10k_s", sharded.Runtime.Seconds())
	rc.set("core.solve_approx_10k_s", approx.Runtime.Seconds())
	rc.set("core.approx_admission_ratio", approx.Breakdown.WeightedAdmission/sharded.Breakdown.WeightedAdmission)
	return probeDeploy(rc, "edge.deploy_ms.10k", big, approx)
}
