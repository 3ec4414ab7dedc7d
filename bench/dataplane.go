package main

import (
	"fmt"
	"math"
	"net/http"
	"runtime"
	"slices"
	"time"

	"offloadnn/internal/core"
	"offloadnn/internal/exec"
	"offloadnn/internal/workload"
)

// The three single-node data-plane workloads share one shape: bring a
// deployment up in-process, build the oracle, warm up, then either one
// measured pass with no tracing code in the request path (end-to-end
// metrics) or an untraced baseline pass followed by a traced pass and
// the micro-probes (per-layer metrics).

// A pass is judged in slices of sliceSeconds, each request in the slice it
// was due (open loop) or issued (closed loop) in, and the timings the pass
// reports end to end are those of its best-decile slice (see bestShare).
// A paper-large slice whose generator ran later than maxLatenessMS at p99
// measured whatever stalled the generator, not the server: it is left out
// of every number, and a pass that loses more than half its slices
// invalidates the run.
const (
	maxLatenessMS = 10
	sliceSeconds  = 0.5
	minSlices     = 8
)

// sliceCount is how many slices a pass of length d is cut into.
func sliceCount(d time.Duration) int { return max(minSlices, int(d.Seconds()/sliceSeconds+0.5)) }

// frameWorkload parameterises one of them.
type frameWorkload struct {
	instance func() (*core.Instance, error)
	// deadlineMS goes out with every frame: 0 for the plan-time L_τ,
	// negative for no deadline.
	deadlineMS float64
	loop       func(s *frameSite, in *inputs, d time.Duration) loopResult
	// allowed are the statuses the workload's design produces; any
	// other answer is a failed operation.
	allowed []int
	// strictLateness applies maxLatenessMS.
	strictLateness bool
}

func runPaperLarge(rc *runCtx) error {
	return runFrames(rc, frameWorkload{
		instance: func() (*core.Instance, error) { return workload.LargeScenario(workload.LoadHigh) },
		loop: func(s *frameSite, in *inputs, d time.Duration) loopResult {
			return s.openLoop(periodicArrivals(s.tasks, in, d), d, true)
		},
		// 429 is the gate enforcing a fractional z: an outcome, counted
		// as a missed deadline, not a failure.
		allowed:        []int{http.StatusOK, http.StatusTooManyRequests},
		strictLateness: true,
	})
}

func runFramesSaturate(rc *runCtx) error {
	return runFrames(rc, frameWorkload{
		instance:   func() (*core.Instance, error) { return sharedInstance(), nil },
		deadlineMS: -1,
		loop: func(s *frameSite, in *inputs, d time.Duration) loopResult {
			return s.closedLoop(32, in, d)
		},
		allowed: []int{http.StatusOK},
	})
}

// overloadRate is frames-overload's fixed offered load, 1.3–1.8× what
// frames-saturate measures the reference box can serve, depending on how
// busy its host is.
const overloadRate = 800

func runFramesOverload(rc *runCtx) error {
	return runFrames(rc, frameWorkload{
		instance: func() (*core.Instance, error) { return sharedInstance(), nil },
		loop: func(s *frameSite, in *inputs, d time.Duration) loopResult {
			return s.openLoop(fixedRateArrivals(len(s.tasks), overloadRate, in, d), d, false)
		},
		// 504 and 503 are the runtime shedding late and overflowing
		// requests by design.
		allowed: []int{http.StatusOK, http.StatusGatewayTimeout, http.StatusServiceUnavailable},
	})
}

// passStats condenses one pass. attempted, failed and wrong count every
// request of the pass, the other fields the kept slices only.
type passStats struct {
	attempted, failed, wrong int

	sent, ok, inTime, refused, shed, dropped int
	latencies                                []float64 // ms, ascending, 200s only
	elapsed                                  time.Duration
	latenessP99                              float64
	slices, lateSlices                       int

	// One entry per kept slice: its median latency, its latency at tailQ
	// (the highest percentile the whole pass supports, up to p95) and its
	// 200s per second.
	sliceP50, sliceTail, sliceRate []float64
	tailQ                          float64
}

// opP50, opTail and opRate are the pass's end-to-end figures.
func (p passStats) opP50() float64 { return bestLow(p.sliceP50) }

func (p passStats) opTail() float64 { return bestLow(p.sliceTail) }

func (p passStats) opRate() float64 { return bestHigh(p.sliceRate) }

// wholeP50 is the median over every kept request, which is what the
// per-layer medians of a traced pass add up to.
func (p passStats) wholeP50() float64 { return quantile(p.latencies, 0.5) }

func summarize(res loopResult, bound func(task int) time.Duration, allowed []int, strictLateness bool) passStats {
	n := sliceCount(res.window)
	slice := func(s sample) int { return min(int(s.due*time.Duration(n)/res.window), n-1) }
	late := make([]bool, n)
	p := passStats{slices: n, elapsed: res.elapsed}
	if strictLateness {
		lateness := make([][]float64, n)
		for _, s := range res.samples {
			lateness[slice(s)] = append(lateness[slice(s)], ms(s.late))
		}
		for i, l := range lateness {
			if late[i] = quantile(sorted(l), 0.99) > maxLatenessMS; late[i] {
				p.lateSlices++
			}
		}
	}
	p.elapsed = res.elapsed * time.Duration(n-p.lateSlices) / time.Duration(n)
	bySlice := make([][]float64, n) // ms, 200s only
	var lateness []float64
	for _, s := range res.samples {
		p.attempted++
		if s.wrong {
			p.wrong++
		}
		if !slices.Contains(allowed, s.status) {
			p.failed++
		}
		if late[slice(s)] {
			continue
		}
		p.sent++
		lateness = append(lateness, ms(s.late))
		switch {
		case s.status == http.StatusOK:
			p.ok++
			p.latencies = append(p.latencies, ms(s.latency))
			bySlice[slice(s)] = append(bySlice[slice(s)], ms(s.latency))
			if b := bound(s.task); b <= 0 || s.latency <= b {
				p.inTime++
			}
		case s.status == http.StatusTooManyRequests:
			p.refused++
		case s.status == http.StatusGatewayTimeout || s.status == http.StatusServiceUnavailable:
			p.shed++
		case s.status == statusDropped:
			p.dropped++
		}
	}
	slices.Sort(p.latencies)
	p.latenessP99 = quantile(sorted(lateness), 0.99)
	_, p.tailQ = tail(p.latencies, 0.95)
	per := res.window.Seconds() / float64(n)
	for i, l := range bySlice {
		if !late[i] {
			p.sliceRate = append(p.sliceRate, float64(len(l))/per)
		}
	}
	p.sliceP50, p.sliceTail = sliceFigures(bySlice, p.tailQ)
	return p
}

// reportPass prints a pass's line — counts by outcome, then the
// best-decile slice's latency median, tail percentile and 200s per
// second, beside the same three over the whole pass (diagnostic, as is
// p99) — and invalidates the run when the pass lost more than half its
// slices to a late generator.
func (rc *runCtx) reportPass(label string, p passStats) {
	p99, q99 := tail(p.latencies, 0.99)
	rc.note("%s: sent %d ok %d in-time %d refused %d shed %d dropped %d failed %d wrong %d | latency n=%d, best-decile slice of %d: p50 %.3f ms p%g %.3f ms, %.1f ok/s | whole pass (diagnostic): p50 %.3f ms p%g %.3f ms p%g %.3f ms, %.1f ok/s | generator late p99 %.3f ms",
		label, p.sent, p.ok, p.inTime, p.refused, p.shed, p.dropped, p.failed, p.wrong,
		len(p.latencies), len(p.sliceRate), p.opP50(), p.tailQ*100, p.opTail(), p.opRate(),
		p.wholeP50(), p.tailQ*100, quantile(p.latencies, p.tailQ), q99*100, p99, float64(p.ok)/p.elapsed.Seconds(), p.latenessP99)
	if p.lateSlices > 0 {
		rc.note("%s: %d of %d slices left out, generator lateness p99 over %d ms", label, p.lateSlices, p.slices, maxLatenessMS)
	}
	if p.lateSlices > p.slices/2 {
		rc.invalid = fmt.Sprintf("generator ran more than %d ms late at p99 in %d of %d slices", maxLatenessMS, p.lateSlices, p.slices)
	}
}

func runFrames(rc *runCtx, fw frameWorkload) error {
	inst, err := fw.instance()
	if err != nil {
		return err
	}
	rng := rc.rng()
	in := &inputs{
		Frames: genFrames(rng, len(inst.Tasks)),
		Phases: genUnit(rng, len(inst.Tasks)),
		Wobble: genUnit(rng, pickLen),
		Picks:  genPicks(rng),
	}
	rc.digest = in.digest()
	var rec *recorder
	if rc.trace {
		rec = newRecorder()
	}
	site, err := newFrameSite(inst, in, fw.deadlineMS, rec)
	if err != nil {
		return err
	}
	defer site.srv.Close()
	rc.setupDone(site.coldEpoch)
	if err := site.buildOracle(in); err != nil {
		return err
	}
	bound := func(t int) time.Duration {
		if fw.deadlineMS < 0 {
			return 0
		}
		return inst.Tasks[t].MaxLatency
	}
	fw.loop(site, in, warmup)
	// Collect set-up's garbage (the oracle's backend above all) so every
	// run enters its measured pass at the same point of the collector's
	// cycle; otherwise peak RSS depends on where set-up happened to
	// leave the heap target.
	runtime.GC()

	if !rc.trace {
		p := summarize(fw.loop(site, in, rc.window()), bound, fw.allowed, fw.strictLateness)
		rc.reportPass("measured", p)
		rc.attempted, rc.failed, rc.wrong = p.attempted, p.failed, p.wrong
		rc.set("op_p50_ms", p.opP50())
		rc.set("op_p95_ms", p.opTail())
		rc.set("ops_per_s", p.opRate())
		rc.set("weighted_admission", site.srv.Current().Deployment.Solution.Breakdown.WeightedAdmission)
		return rc.measureRSS()
	}

	// Traced run: the same loop twice, recorder off then on.
	base := summarize(fw.loop(site, in, rc.window()*2/5), bound, fw.allowed, fw.strictLateness)
	rc.reportPass("untraced", base)
	before := site.srv.Backend().Stats()
	earlyBefore := site.srv.Stats().EarlySheds()
	rec.on.Store(true)
	p := summarize(fw.loop(site, in, rc.window()*3/5), bound, fw.allowed, fw.strictLateness)
	rec.on.Store(false)
	after := site.srv.Backend().Stats()
	rc.reportPass("traced", p)
	rc.attempted, rc.failed, rc.wrong = p.attempted, p.failed, p.wrong
	spans := rec.take()
	if err := writeSpans(rc.outDir, rc.workload, spans); err != nil {
		return err
	}

	rc.set("bench.gen_late_p99_ms", p.latenessP99)
	rc.set("bench.gen_dropped", float64(p.dropped))
	rc.set("bench.trace_overhead_ratio", p.wholeP50()/base.wholeP50())
	rc.set("bench.deadline_hit_ratio", float64(p.inTime)/float64(p.sent))
	rc.set("bench.failed_share", float64(p.failed)/float64(p.attempted))
	rc.set("bench.wrong_answers", float64(p.wrong))
	rc.set("serve.refused_share", float64(p.refused)/float64(p.sent))
	rc.set("serve.early_sheds", float64(site.srv.Stats().EarlySheds()-earlyBefore))
	rc.setExecStats(before, after)

	probes := newForwardProbes()
	sigOf := make(map[string]string, len(site.tasks))
	for t := range site.tasks {
		sigOf[site.tasks[t].ID] = site.paths[t]
	}
	inferOf := make(map[int64]*span) // exec.infer span by parent
	var infer, wait, deployedB1 []float64
	for i := range spans {
		sp := &spans[i]
		switch {
		case sp.Name == "exec.install":
			rc.set("exec.install_cold_ms", ms(sp.dur()))
		case sp.Name == "exec.infer" && sp.Batch > 0:
			inferOf[sp.Parent] = sp
			sig := sigOf[sp.Task]
			fwd, err := probes.forwardMS(sig, site.precisions[sig], sp.Batch)
			if err != nil {
				return err
			}
			b1, err := probes.forwardMS(sig, site.precisions[sig], 1)
			if err != nil {
				return err
			}
			infer = append(infer, ms(sp.dur()))
			wait = append(wait, ms(sp.dur())-fwd)
			deployedB1 = append(deployedB1, b1)
		}
	}
	var self []float64
	for i := range spans {
		if sp := &spans[i]; sp.Name == "serve.offload" && sp.Status == http.StatusOK {
			if child := inferOf[sp.ID]; child != nil {
				self = append(self, ms(sp.dur()-child.dur()))
			}
		}
	}
	inferAsc := sorted(infer)
	inferP95, _ := tail(inferAsc, 0.95)
	rc.set("serve.offload_self_p50_ms", median(self))
	rc.set("exec.infer_p50_ms", quantile(inferAsc, 0.5))
	rc.set("exec.infer_p95_ms", inferP95)
	rc.set("exec.wait_p50_ms", median(wait))
	rc.set("dnn.forward_deployed_b1_ms", mean(deployedB1))
	rc.note("spans: %d serve.offload with exec.infer child, %d served exec.infer", len(self), len(infer))
	if fw.strictLateness {
		// Attribution must close where nothing queues: the layers'
		// medians add up to the end-to-end median.
		sum := median(self) + median(wait) + mean(deployedB1)
		rc.set("bench.attribution_gap", math.Abs(sum/p.wholeP50()-1))
		rc.note("attribution: serve self %.3f + exec wait %.3f + forward %.3f = %.3f ms vs offload p50 %.3f ms",
			median(self), median(wait), mean(deployedB1), sum, p.wholeP50())
	}
	if err := probeModel(rc); err != nil {
		return err
	}
	return probeKernels(rc)
}

// setExecStats reports the execution backend's counters over a pass.
func (rc *runCtx) setExecStats(before, after exec.Stats) {
	if b := after.Batches - before.Batches; b > 0 {
		rc.set("exec.avg_batch", float64(after.Requests-before.Requests)/float64(b))
	}
	rc.set("exec.shed_late", float64(after.ShedLate-before.ShedLate))
	rc.set("exec.shed_queue_full", float64(after.ShedQueueFull-before.ShedQueueFull))
	rc.set("exec.shed_canceled", float64(after.ShedCanceled-before.ShedCanceled))
	hits, misses := after.DeadlineHits-before.DeadlineHits, after.DeadlineMisses-before.DeadlineMisses
	ratio := 1.0 // the program's own convention when nothing carried a deadline
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	rc.set("exec.deadline_hit_ratio", ratio)
	rc.set("exec.quant_fallbacks", float64(after.QuantFallbacks))
	rc.set("exec.models", float64(after.Models))
	rc.set("exec.blocks", float64(after.Blocks))
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}
