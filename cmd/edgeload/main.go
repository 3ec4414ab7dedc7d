// Command edgeload drives an edgeserve daemon with live traffic: it
// registers the Table-IV small-scenario tasks over HTTP, fires offload
// requests at each task's request rate λ (optionally scaled above it to
// probe the admission gates), and reports the admitted throughput
// against the daemon's notified rates z·λ. With -churn it follows a
// deterministic arrival/departure timeline instead, forcing the daemon
// through repeated epoch re-solves mid-load.
//
// Usage:
//
//	edgeload                              # 5 tasks, 10 s at λ against :8080
//	edgeload -duration 30s -scale 2       # overdrive at 2λ: expect 429s
//	edgeload -churn -seed 3               # dynamic arrivals and departures
//
// With -payload each offload carries a real input tensor (shape -input,
// channels fixed at 3, matching edgeserve -backend real) and the
// response's logits are validated: an admitted offload that comes back
// without a well-formed logit vector counts as an error.
//
//	edgeload -payload -input 8x8          # drive real inference end to end
//
// With -burst the arrival process spikes periodically — a flash crowd
// at burst× the base rate for -burst-for out of every -burst-every —
// and -deadline attaches an explicit per-request deadline (without it
// the server derives one from the task's latency bound L_τ). 504
// (deadline_exceeded) and 503 (overloaded) answers count as sheds, the
// runtime's deliberate load shedding, and the payload report adds
// client-side p50/p99 and deadline-hit-rate:
//
//	edgeload -payload -burst 10 -burst-every 3s -burst-for 1s -deadline 20ms
//
// A target that answers GET /v1/cluster/nodes is an edgecluster
// coordinator: the loader then waits for the cluster-wide placement
// instead of the daemon's epoch, and adds a summary line with client-side
// latency quantiles, throughput and the admission ratio. Every answer is
// classified by its status and error-envelope code, whatever the target:
// 502 node_unreachable is failover (a member died and the re-placement is
// moving its tasks), not an error.
//
// Cluster responses that traveled a split pipeline carry per-hop
// metadata; the loader reports the hop count and a per-hop latency
// breakdown, and 504s whose budget died mid-pipeline
// (deadline_exceeded@hop) are counted apart from single-node deadline
// misses.
//
// The loader exits 1 on a transport error, an unclassified answer or an
// executed offload without a well-formed logit vector.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"offloadnn/internal/cluster"
	"offloadnn/internal/core"
	"offloadnn/internal/dnn"
	"offloadnn/internal/serve"
	"offloadnn/internal/workload"
)

// verdict classifies one offload answer.
type verdict int

const (
	verdictOK       verdict = iota
	verdictLimited          // 429: over the admitted rate, or not admitted
	verdictMissing          // 404: unknown task
	verdictLate             // 504 deadline_exceeded
	verdictHopShed          // 504 deadline_exceeded@hop: the budget died mid-pipeline
	verdictShed             // 503 overloaded: a full intake queue shed it
	verdictFailover         // 502 node_unreachable: the owning member is gone
	verdictOther            // transport errors and anything unclassified
	numVerdicts
)

// verdictCols heads each verdict's column in the report table.
var verdictCols = [numVerdicts]string{"ok", "429", "404", "504", "504@hop", "503", "failover", "err"}

// classify maps an offload answer's status and error-envelope code onto
// its verdict.
func classify(status int, code string) verdict {
	switch {
	case status == http.StatusOK:
		return verdictOK
	case status == http.StatusTooManyRequests:
		return verdictLimited
	case status == http.StatusNotFound:
		return verdictMissing
	case status == http.StatusGatewayTimeout && code == serve.CodeDeadline:
		return verdictLate
	case status == http.StatusGatewayTimeout && code == serve.CodeDeadlineHop:
		return verdictHopShed
	case status == http.StatusServiceUnavailable && code == serve.CodeOverload:
		return verdictShed
	case status == http.StatusBadGateway && code == cluster.CodeNodeUnreachable:
		return verdictFailover
	}
	return verdictOther
}

// counts tallies one task's offload verdicts.
type counts struct {
	sent         int
	n            [numVerdicts]int
	badLogits    int     // 200s with a missing/malformed logit vector
	multiHop     int     // 200s whose response traveled ≥2 pipeline hops
	deadlined    int     // 200s that carried a deadline budget
	deadlineHits int     // ...answered within that budget, client-side
	notified     float64 // last admitted_rate the daemon reported
	inferMS      float64 // last measured inference latency
}

// loader is the shared HTTP client and result table.
type loader struct {
	base        string
	client      *http.Client
	payload     []float64 // input tensor sent with each offload; nil = probe mode
	coordinator bool      // the target is an edgecluster coordinator
	deadlineMS  float64   // per-request deadline override; 0 sends none (server applies L_τ)
	burst       float64   // flash-crowd rate multiplier during spikes; ≤1 = steady arrivals
	burstEvery  time.Duration
	burstFor    time.Duration

	mu     sync.Mutex
	byTask map[string]*counts
	latMS  []float64 // client-side latency of every answered offload
	// hopLatMS collects split-pipeline segment latencies by hop index
	// (from the response's hops metadata); hopNodes the node IDs seen at
	// each index.
	hopLatMS map[int][]float64
	hopNodes map[int]map[string]bool
}

// recordHops folds one multi-hop response's metadata into the per-hop
// breakdown. Caller holds l.mu.
func (l *loader) recordHops(hops []dnn.ActivationHop) {
	for i, h := range hops {
		l.hopLatMS[i] = append(l.hopLatMS[i], h.LatencyMS)
		nodes, ok := l.hopNodes[i]
		if !ok {
			nodes = make(map[string]bool)
			l.hopNodes[i] = nodes
		}
		nodes[h.Node] = true
	}
}

func (l *loader) task(id string) *counts {
	l.mu.Lock()
	defer l.mu.Unlock()
	c, ok := l.byTask[id]
	if !ok {
		c = &counts{}
		l.byTask[id] = c
	}
	return c
}

func (l *loader) postJSON(path string, body, out any) (int, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	resp, err := l.client.Post(l.base+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}

func (l *loader) register(task core.Task) error {
	spec := serve.TaskSpec{
		ID:           task.ID,
		Priority:     task.Priority,
		Rate:         task.Rate,
		MinAccuracy:  task.MinAccuracy,
		MaxLatencyMS: float64(task.MaxLatency) / float64(time.Millisecond),
		InputBits:    task.InputBits,
		SNRdB:        task.SNRdB,
	}
	status, err := l.postJSON("/v1/tasks", spec, nil)
	if err != nil {
		return err
	}
	if status != http.StatusAccepted && status != http.StatusConflict {
		return fmt.Errorf("register %s: status %d", task.ID, status)
	}
	return nil
}

func (l *loader) deregister(id string) error {
	req, err := http.NewRequest(http.MethodDelete, l.base+"/v1/tasks/"+id, nil)
	if err != nil {
		return err
	}
	resp, err := l.client.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	return nil
}

// waitCurrent polls /healthz until the daemon's epoch covers the latest
// registration churn. Against a coordinator it instead waits for the
// cluster-wide placement to reach the registry generation.
func (l *loader) waitCurrent(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := l.client.Get(l.base + "/healthz")
		if err != nil {
			return err
		}
		var h struct {
			Epoch      uint64 `json:"epoch"`
			Current    bool   `json:"current"`
			Generation uint64 `json:"generation"`
			Placement  struct {
				Seq        uint64 `json:"seq"`
				Generation uint64 `json:"generation"`
			} `json:"placement"`
		}
		err = json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if l.coordinator {
			if h.Placement.Seq > 0 && h.Placement.Generation >= h.Generation {
				return nil
			}
		} else if h.Current && h.Epoch > 0 {
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("daemon epoch never caught up within %v", timeout)
}

// clusterNodes reads the target's member list. ok reports a
// coordinator: an edgeserve daemon answers GET /v1/cluster/nodes 404.
func (l *loader) clusterNodes() (n int, ok bool) {
	resp, err := l.client.Get(l.base + "/v1/cluster/nodes")
	if err != nil {
		return 0, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, false
	}
	var nodes []json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&nodes); err != nil {
		return 0, false
	}
	return len(nodes), true
}

// offloadLoop fires requests for one task at rate λ·scale until the
// context ends. With -burst armed, arrivals spike to λ·scale·burst for
// burstFor out of every burstEvery — a periodic flash crowd over the
// base rate.
func (l *loader) offloadLoop(ctx context.Context, task core.Task, scale float64) {
	begun := time.Now()
	c := l.task(task.ID)
	// Arrivals are open-loop: every tick fires its request concurrently,
	// so a flash crowd lands as offered load instead of collapsing to
	// one in-flight request per task. The in-flight bound caps the
	// pile-up when the server falls far behind.
	inflight := make(chan struct{}, 128)
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		mult := scale
		if l.burst > 1 && l.burstEvery > 0 && time.Since(begun)%l.burstEvery < l.burstFor {
			mult *= l.burst
		}
		period := time.Duration(float64(time.Second) / (task.Rate * mult))
		select {
		case <-ctx.Done():
			return
		case <-time.After(period):
		}
		select {
		case <-ctx.Done():
			return
		case inflight <- struct{}{}:
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-inflight }()
			l.offloadOnce(task.ID, c)
		}()
	}
}

// postOffload fires one offload and, on an error status, also reads the
// error envelope's code (so a mid-pipeline deadline_exceeded@hop can be
// told apart from a single-node 504).
func (l *loader) postOffload(req serve.OffloadRequest) (int, string, serve.OffloadResponse, error) {
	var or serve.OffloadResponse
	buf, err := json.Marshal(req)
	if err != nil {
		return 0, "", or, err
	}
	resp, err := l.client.Post(l.base+"/v1/offload", "application/json", bytes.NewReader(buf))
	if err != nil {
		return 0, "", or, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		return resp.StatusCode, "", or, json.NewDecoder(resp.Body).Decode(&or)
	}
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	// An unparseable error body leaves the code empty: a 429 or 404 still
	// classifies by status, a 502, 503 or 504 then counts as an error.
	_ = json.NewDecoder(resp.Body).Decode(&env)
	return resp.StatusCode, env.Error.Code, or, nil
}

// offloadOnce fires one offload request and records its verdict.
func (l *loader) offloadOnce(taskID string, c *counts) {
	req := serve.OffloadRequest{Task: taskID, Input: l.payload, DeadlineMS: l.deadlineMS}
	sentAt := time.Now()
	status, code, or, err := l.postOffload(req)
	elapsedMS := float64(time.Since(sentAt)) / float64(time.Millisecond)
	v := verdictOther
	if err == nil {
		v = classify(status, code)
	}
	l.mu.Lock()
	c.sent++
	c.n[v]++
	if err == nil && (l.coordinator || l.payload != nil) {
		l.latMS = append(l.latMS, elapsedMS)
	}
	if v == verdictOK {
		c.notified = or.AdmittedRate
		if len(or.Hops) > 1 {
			c.multiHop++
			l.recordHops(or.Hops)
		}
		if l.payload != nil {
			c.inferMS = or.MeasuredLatencyMS
			if !or.Simulated && !validLogits(or) {
				c.badLogits++
			}
			if or.DeadlineMS > 0 {
				c.deadlined++
				if elapsedMS <= or.DeadlineMS {
					c.deadlineHits++
				}
			}
		}
	}
	l.mu.Unlock()
}

// validLogits checks an executed offload's model output: a non-empty,
// finite logit vector whose argmax field indexes into it.
func validLogits(or serve.OffloadResponse) bool {
	if len(or.Logits) == 0 || or.Argmax == nil {
		return false
	}
	if *or.Argmax < 0 || *or.Argmax >= len(or.Logits) {
		return false
	}
	for _, v := range or.Logits {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// makePayload builds the deterministic 3×h×w input tensor every payload
// offload carries.
func makePayload(h, w int) []float64 {
	in := make([]float64, 3*h*w)
	for i := range in {
		in[i] = float64(i%13) / 13
	}
	return in
}

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", "http://127.0.0.1:8080", "edgeserve base URL")
	tasks := flag.Int("tasks", 5, "number of scenario tasks (small: 1..5, scale: any)")
	scenario := flag.String("scenario", "small", "static task scenario: small (Table-IV) | scale (solver-scale registry; offload traffic driven for the first 64 tasks)")
	duration := flag.Duration("duration", 10*time.Second, "load duration")
	scale := flag.Float64("scale", 1.0, "request-rate multiplier on each task's λ")
	churn := flag.Bool("churn", false, "follow the deterministic churn timeline instead of a static task set")
	seed := flag.Int64("seed", 1, "churn timeline seed")
	payload := flag.Bool("payload", false, "send a real input tensor with each offload and validate the returned logits")
	inputShape := flag.String("input", "8x8", "payload input HxW (channels fixed at 3; match edgeserve -input)")
	deadline := flag.Duration("deadline", 0, "per-request deadline sent as deadline_ms (0 = server derives it from the task's latency bound)")
	burst := flag.Float64("burst", 0, "flash-crowd arrival mode: rate multiplier applied during periodic spikes (<=1 disables)")
	burstEvery := flag.Duration("burst-every", 5*time.Second, "spike period with -burst")
	burstFor := flag.Duration("burst-for", 1*time.Second, "spike length with -burst")
	flag.Parse()
	if *scale <= 0 {
		fmt.Fprintf(os.Stderr, "edgeload: -scale %v must be positive\n", *scale)
		return 2
	}

	l := &loader{
		base:       *addr,
		client:     &http.Client{Timeout: 5 * time.Second},
		byTask:     make(map[string]*counts),
		hopLatMS:   make(map[int][]float64),
		hopNodes:   make(map[int]map[string]bool),
		deadlineMS: float64(*deadline) / float64(time.Millisecond),
		burst:      *burst,
		burstEvery: *burstEvery,
		burstFor:   *burstFor,
	}
	_, l.coordinator = l.clusterNodes()
	if *payload {
		var h, w int
		if _, err := fmt.Sscanf(*inputShape, "%dx%d", &h, &w); err != nil || h <= 0 || w <= 0 {
			fmt.Fprintf(os.Stderr, "edgeload: bad -input %q (want HxW, e.g. 8x8)\n", *inputShape)
			return 2
		}
		l.payload = makePayload(h, w)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *duration)
	defer cancel()
	var wg sync.WaitGroup
	start := func(task core.Task, stop context.Context) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.offloadLoop(stop, task, *scale)
		}()
	}

	if *churn {
		events, err := workload.ChurnTimeline(workload.ChurnParams{Tasks: *tasks, Duration: *duration, Seed: *seed})
		if err != nil {
			fmt.Fprintln(os.Stderr, "edgeload:", err)
			return 2
		}
		begun := time.Now()
		cancels := make(map[string]context.CancelFunc)
		for _, e := range events {
			if d := e.At - time.Since(begun); d > 0 {
				select {
				case <-ctx.Done():
				case <-time.After(d):
				}
			}
			if ctx.Err() != nil {
				break
			}
			switch e.Kind {
			case workload.ChurnRegister:
				if err := l.register(e.Task); err != nil {
					fmt.Fprintln(os.Stderr, "edgeload:", err)
					return 1
				}
				fmt.Printf("%7.2fs register   %s\n", time.Since(begun).Seconds(), e.Task.ID)
				taskCtx, taskCancel := context.WithCancel(ctx)
				cancels[e.Task.ID] = taskCancel
				start(e.Task, taskCtx)
			case workload.ChurnDeregister:
				if stop, ok := cancels[e.Task.ID]; ok {
					stop()
					delete(cancels, e.Task.ID)
				}
				if err := l.deregister(e.Task.ID); err != nil {
					fmt.Fprintln(os.Stderr, "edgeload:", err)
					return 1
				}
				fmt.Printf("%7.2fs deregister %s\n", time.Since(begun).Seconds(), e.Task.ID)
			}
		}
		<-ctx.Done()
	} else {
		// set is the registered task list; drive holds the subset whose
		// offload traffic the loader generates.
		var set, drive []core.Task
		settle := 5 * time.Second
		switch *scenario {
		case "small":
			if *tasks < 1 || *tasks > 5 {
				fmt.Fprintf(os.Stderr, "edgeload: -tasks %d outside 1..5\n", *tasks)
				return 2
			}
			for i := 1; i <= *tasks; i++ {
				task, err := workload.SmallTask(i)
				if err != nil {
					fmt.Fprintln(os.Stderr, "edgeload:", err)
					return 2
				}
				set = append(set, task)
			}
			drive = set
		case "scale":
			// Solver-scale run: the registry (and with it the resolver's
			// tier selection) is the thing under load, not the offload
			// path, so only the first tasks generate traffic.
			in, err := workload.ScaleScenario(*tasks)
			if err != nil {
				fmt.Fprintln(os.Stderr, "edgeload:", err)
				return 2
			}
			set = in.Tasks
			drive = set
			if len(drive) > 64 {
				drive = drive[:64]
			}
			settle = 60 * time.Second
		default:
			fmt.Fprintf(os.Stderr, "edgeload: unknown scenario %q (want small|scale)\n", *scenario)
			return 2
		}
		for _, task := range set {
			if err := l.register(task); err != nil {
				fmt.Fprintln(os.Stderr, "edgeload:", err)
				return 1
			}
		}
		if err := l.waitCurrent(settle); err != nil {
			fmt.Fprintln(os.Stderr, "edgeload:", err)
			return 1
		}
		for _, task := range drive {
			start(task, ctx)
		}
		<-ctx.Done()
	}
	wg.Wait()

	// Report.
	l.mu.Lock()
	ids := make([]string, 0, len(l.byTask))
	for id := range l.byTask {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	exit := 0
	fmt.Printf("\n%-10s %6s", "task", "sent")
	for _, col := range verdictCols {
		fmt.Printf(" %8s", col)
	}
	fmt.Printf(" %9s %14s %12s %10s\n", "badlogit", "notified(z·λ)", "achieved/s", "infer(ms)")
	var deadlined, hits, shedLate, shedOverload int
	for _, id := range ids {
		c := l.byTask[id]
		fmt.Printf("%-10s %6d", id, c.sent)
		for _, n := range c.n {
			fmt.Printf(" %8d", n)
		}
		fmt.Printf(" %9d %14.2f %12.2f %10.3f\n",
			c.badLogits, c.notified, float64(c.n[verdictOK])/duration.Seconds(), c.inferMS)
		deadlined += c.deadlined
		hits += c.deadlineHits
		shedLate += c.n[verdictLate]
		shedOverload += c.n[verdictShed]
		if c.n[verdictOther] > 0 || c.badLogits > 0 {
			exit = 1
		}
	}
	if l.payload != nil {
		// Client-side deadline accounting: served-within-budget over every
		// deadline-carrying outcome (served or shed). Sheds are the
		// runtime's deliberate misses, so they count in the denominator.
		sort.Float64s(l.latMS)
		fmt.Printf("\npayload: p50 %.2f ms, p99 %.2f ms", percentile(l.latMS, 0.50), percentile(l.latMS, 0.99))
		if carried := deadlined + shedLate + shedOverload; carried > 0 {
			fmt.Printf(", deadline-hit-rate %.3f (%d carried), shed late=%d overload=%d",
				float64(hits)/float64(carried), carried, shedLate, shedOverload)
		}
		fmt.Println()
	}

	// Split-pipeline accounting applies to payload and cluster reports
	// alike: any mode can ride a multi-hop route.
	var multiHop, shedHop int
	for _, id := range ids {
		multiHop += l.byTask[id].multiHop
		shedHop += l.byTask[id].n[verdictHopShed]
	}
	if multiHop > 0 || shedHop > 0 {
		fmt.Printf("\nsplit: %d multi-hop answers, %d shed as %s\n", multiHop, shedHop, serve.CodeDeadlineHop)
		for hop := 0; hop < len(l.hopLatMS); hop++ {
			lats := append([]float64(nil), l.hopLatMS[hop]...)
			sort.Float64s(lats)
			nodes := make([]string, 0, len(l.hopNodes[hop]))
			for n := range l.hopNodes[hop] {
				nodes = append(nodes, n)
			}
			sort.Strings(nodes)
			fmt.Printf("  hop %d %v: n=%d, p50 %.3f ms, p99 %.3f ms\n",
				hop, nodes, len(lats), percentile(lats, 0.50), percentile(lats, 0.99))
		}
	}

	if l.coordinator {
		var ok, failover int
		var notified, offered float64
		for id, c := range l.byTask {
			ok += c.n[verdictOK]
			failover += c.n[verdictFailover]
			notified += c.notified
			// Offered rate λ comes from the task's small-scenario index.
			var idx int
			if _, err := fmt.Sscanf(id, "task-%d", &idx); err == nil {
				if t, err := workload.SmallTask(idx); err == nil {
					offered += t.Rate
				}
			}
		}
		admission := 0.0
		if offered > 0 {
			admission = notified / offered
		}
		sort.Float64s(l.latMS)
		nodes, _ := l.clusterNodes()
		fmt.Printf("\ncluster: %d nodes, %.1f req/s served, p50 %.2f ms, p99 %.2f ms, admission ratio %.3f, %d failover answers\n",
			nodes, float64(ok)/duration.Seconds(), percentile(l.latMS, 0.50), percentile(l.latMS, 0.99), admission, failover)
	}
	l.mu.Unlock()
	return exit
}

// percentile reads quantile q from an ascending-sorted sample set.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
