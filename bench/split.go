package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"time"

	"offloadnn/internal/cluster"
	"offloadnn/internal/core"
	"offloadnn/internal/exec"
	"offloadnn/internal/radio"
	"offloadnn/internal/serve"
)

// split-pipeline: a coordinator and two 0.7 GB members on loopback
// listeners serve one task whose only path is 4 × 0.3 GB, so it must run
// as a 2-hop pipeline. It is the only workload that opens sockets, with
// one keep-alive client connection per CPU.

const splitTaskID = "cam-split"

var splitBlocks = []string{"split/s1", "split/s2", "split/s3", "split/s4"}

func splitScenario() (core.Task, map[string]core.BlockSpec) {
	blocks := make(map[string]core.BlockSpec, len(splitBlocks))
	for _, id := range splitBlocks {
		blocks[id] = core.BlockSpec{ID: id, ComputeSeconds: 1e-4, MemoryGB: 0.3, TrainSeconds: 1}
	}
	return core.Task{
		ID: splitTaskID, Priority: 1,
		Rate:        2000, // far above what two closed-loop clients send: the head's gate never refuses
		MinAccuracy: 0.9, MaxLatency: 500 * time.Millisecond, InputBits: 1e4, SNRdB: 20,
		Paths: []core.PathSpec{{ID: "split/full", DNN: "split", Blocks: splitBlocks, Accuracy: 0.95}},
	}, blocks
}

func splitResources(memoryGB float64) core.Resources {
	return core.Resources{
		RBs: 50, ComputeSeconds: 2.5, MemoryGB: memoryGB, TrainBudgetSeconds: 1000,
		Capacity: radio.FixedRate{Rate: 1e9},
	}
}

func splitConfig() *cluster.SplitConfig {
	return &cluster.SplitConfig{Model: dataModel, Input: [3]int{frameC, frameH, frameW}}
}

// listener is one HTTP server on a loopback port.
type listener struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		l.srv.Serve(ln) // returns ErrServerClosed after close
	}()
	return l, nil
}

func (l *listener) close() {
	l.srv.Close()
	<-l.done
}

// splitCluster is the deployment under test.
type splitCluster struct {
	coord   *cluster.Coordinator
	front   *listener
	members []*serve.Server
	fronts  []*listener
}

func (c *splitCluster) close() {
	c.front.close()
	c.coord.Close()
	for i := range c.members {
		c.fronts[i].close()
		c.members[i].Close()
	}
}

// newSplitCluster starts the members and the coordinator, joins the
// members over the coordinator's HTTP API and places the task.
func newSplitCluster(rec *recorder) (c *splitCluster, placeNow time.Duration, err error) {
	task, blocks := splitScenario()
	c = &splitCluster{}
	defer func() {
		if err != nil {
			c.close()
		}
	}()
	c.coord, err = cluster.NewCoordinator(cluster.Config{
		Debounce: noDebounce, HeartbeatTimeout: time.Hour, // no agents beat here; nothing may go stale mid-run
		BandwidthFloorMbps: -1, Capacity: splitResources(0).Capacity, Split: splitConfig(),
	})
	if err != nil {
		return nil, 0, err
	}
	var h http.Handler = c.coord
	if rec != nil {
		h = traced(rec, "coordinator", map[string]string{"/v1/offload": "cluster.offload"}, h)
	}
	if c.front, err = listen(h); err != nil {
		return nil, 0, err
	}
	if err = c.coord.Registry().Register(task, blocks); err != nil {
		return nil, 0, err
	}
	for _, id := range []string{"a", "b"} {
		real, err := exec.NewReal(realConfig())
		if err != nil {
			return nil, 0, err
		}
		var backend exec.Backend = real
		if rec != nil {
			backend = &tracingBackend{Backend: real, rec: rec, node: id}
		}
		res := splitResources(0.7)
		srv, err := serve.New(serve.Config{Res: res, Alpha: 0.5, Node: id, Debounce: noDebounce, Backend: backend})
		if err != nil {
			real.Close()
			return nil, 0, err
		}
		h := cluster.MemberHandler(srv)
		if rec != nil {
			h = traced(rec, id, map[string]string{"/v1/offload": "serve.offload", "/v1/stage": "serve.stage"}, h)
		}
		front, err := listen(h)
		if err != nil {
			srv.Close()
			return nil, 0, err
		}
		c.members, c.fronts = append(c.members, srv), append(c.fronts, front)
		join, err := json.Marshal(cluster.RegisterRequest{
			Node: id, Addr: front.url, Res: cluster.ToWireResources(res), BandwidthMbps: 1000, State: "healthy",
		})
		if err != nil {
			return nil, 0, err
		}
		resp, err := http.Post(c.front.url+"/v1/cluster/nodes", "application/json", bytes.NewReader(join))
		if err != nil {
			return nil, 0, err
		}
		resp.Body.Close()
		if resp.StatusCode/100 != 2 {
			return nil, 0, fmt.Errorf("join %s: status %d", id, resp.StatusCode)
		}
	}
	t0 := time.Now()
	if err = c.coord.PlaceNow(); err != nil {
		return nil, 0, err
	}
	return c, time.Since(t0), nil
}

// post sends one frame through the coordinator on the given client.
func (c *splitCluster) post(client *http.Client, body []byte) (answer, error) {
	resp, err := client.Post(c.front.url+"/v1/offload", "application/json", bytes.NewReader(body))
	if err != nil {
		return answer{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return answer{}, err
	}
	return decodeAnswer(resp.StatusCode, raw)
}

// wholePathReference answers every frame on one node big enough for the
// whole path, one request at a time: the split pipeline must reproduce
// these logits bit for bit.
func wholePathReference(bodies [][]byte) ([][]float64, error) {
	task, blocks := splitScenario()
	cfg := realConfig()
	cfg.BatchSize = 1
	real, err := exec.NewReal(cfg)
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{Res: splitResources(2), Alpha: 0.5, Node: "ref", Debounce: noDebounce, Backend: real})
	if err != nil {
		real.Close()
		return nil, err
	}
	defer srv.Close()
	if err := srv.Register(task, blocks); err != nil {
		return nil, err
	}
	if err := srv.ResolveNow(); err != nil {
		return nil, err
	}
	site := &frameSite{handler: srv}
	refs := make([][]float64, len(bodies))
	for k, body := range bodies {
		status, w := site.call(context.Background(), body)
		a, err := decodeAnswer(status, w.body.Bytes())
		if err != nil || status != http.StatusOK || a.hops > 1 {
			return nil, fmt.Errorf("whole-path reference frame %d: status %d hops %d: %v", k, status, a.hops, err)
		}
		refs[k] = a.logits
	}
	return refs, nil
}

// splitPass is one closed-loop pass through the coordinator.
type splitPass struct {
	passStats
	multiHop int
}

// closedLoop runs `clients` keep-alive connections, each sending its next
// frame when the previous answer is back, for d.
func (c *splitCluster) closedLoop(clients int, in *inputs, bodies [][]byte, refs [][]float64, d time.Duration, rec *recorder) splitPass {
	type reply struct {
		sample
		hops int
	}
	per := make([][]reply, clients)
	var wg sync.WaitGroup
	start := time.Now()
	stop := start.Add(d)
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: 30 * time.Second}
			defer client.CloseIdleConnections()
			for n := 0; time.Now().Before(stop); n++ {
				k := in.pick(ci, n)
				_, done := rec.request(context.Background(), int64(n+1))
				t0 := time.Now()
				a, err := c.post(client, bodies[k])
				r := reply{sample: sample{status: a.status, latency: time.Since(t0), due: t0.Sub(start)}, hops: a.hops}
				done()
				if err != nil {
					r.status = 0 // no usable answer: a failed operation
				}
				// An answer that did not cross two nodes is as wrong as
				// one with different logits: it did not run the pipeline.
				r.wrong = r.status == http.StatusOK && (a.hops < 2 || !slices.Equal(a.logits, refs[k]))
				per[ci] = append(per[ci], r)
			}
		}()
	}
	wg.Wait()
	res := loopResult{window: d, elapsed: time.Since(start)}
	out := splitPass{}
	for _, p := range per {
		for _, r := range p {
			res.samples = append(res.samples, r.sample)
			if r.hops > 1 {
				out.multiHop++
			}
		}
	}
	out.passStats = summarize(res, func(int) time.Duration { return 500 * time.Millisecond }, []int{http.StatusOK}, false)
	return out
}

func runSplitPipeline(rc *runCtx) error {
	rng := rc.rng()
	in := &inputs{Frames: genFrames(rng, 1), Picks: genPicks(rng)}
	rc.digest = in.digest()
	task, blocks := splitScenario()
	allBodies, err := encodeBodies([]core.Task{task}, in.Frames, 0)
	if err != nil {
		return err
	}
	bodies := allBodies[0]

	var rec *recorder
	if rc.trace {
		rec = newRecorder()
	}
	c, placeNow, err := newSplitCluster(rec)
	if err != nil {
		return err
	}
	defer c.close()
	setupClient := &http.Client{Timeout: 30 * time.Second}
	defer setupClient.CloseIdleConnections()
	first, err := c.post(setupClient, bodies[0])
	if err != nil || first.status != http.StatusOK {
		return fmt.Errorf("first split offload: status %d: %v", first.status, err)
	}
	rc.setupDone(placeNow)

	refs, err := wholePathReference(bodies)
	if err != nil {
		return err
	}
	if first.hops < 2 || !slices.Equal(first.logits, refs[0]) {
		return fmt.Errorf("first split answer (%d hops) differs from the whole-path reference", first.hops)
	}
	clients := runtime.NumCPU()
	c.closedLoop(clients, in, bodies, refs, warmup, nil)
	runtime.GC() // as in runFrames: enter the measured pass at a fixed point of the collector's cycle

	if !rc.trace {
		p := c.closedLoop(clients, in, bodies, refs, rc.window(), nil)
		rc.reportPass("measured", p.passStats)
		rc.note("multi-hop answers: %d of %d", p.multiHop, p.ok)
		rc.attempted, rc.failed, rc.wrong = p.attempted, p.failed, p.wrong
		rc.set("op_p50_ms", p.opP50())
		rc.set("op_p95_ms", p.opTail())
		rc.set("ops_per_s", p.opRate())
		wa, err := c.weightedAdmission()
		if err != nil {
			return err
		}
		rc.set("weighted_admission", wa)
		return rc.measureRSS()
	}

	// Traced run: one client, so at most one request is in flight and the
	// spans of the three processes' worth of handlers nest by time.
	base := c.closedLoop(1, in, bodies, refs, rc.window()*2/5, nil)
	rc.reportPass("untraced", base.passStats)
	var before []exec.Stats
	for _, m := range c.members {
		before = append(before, m.Backend().Stats())
	}
	rec.on.Store(true)
	p := c.closedLoop(1, in, bodies, refs, rc.window()*3/5, rec)
	rec.on.Store(false)
	rc.reportPass("traced", p.passStats)
	rc.attempted, rc.failed, rc.wrong = p.attempted, p.failed, p.wrong
	spans := rec.take()
	nestByTime(spans)
	if err := writeSpans(rc.outDir, rc.workload, spans); err != nil {
		return err
	}

	rc.set("bench.trace_overhead_ratio", p.wholeP50()/base.wholeP50())
	rc.set("bench.deadline_hit_ratio", float64(p.inTime)/float64(p.sent))
	rc.set("bench.failed_share", float64(p.failed)/float64(p.attempted))
	rc.set("bench.wrong_answers", float64(p.wrong))
	rc.set("serve.refused_share", float64(p.refused)/float64(p.sent))
	if p.ok > 0 {
		rc.set("cluster.multi_hop_share", float64(p.multiHop)/float64(p.ok))
	}
	var sumBefore, sumAfter exec.Stats
	for i, m := range c.members {
		sumBefore = addStats(sumBefore, before[i])
		sumAfter = addStats(sumAfter, m.Backend().Stats())
	}
	rc.setExecStats(sumBefore, sumAfter)

	// Per request: coordinator span ⊃ head offload span ⊃ {head infer,
	// tail stage span ⊃ tail infer}.
	inferUnder := childTime(spans, "exec.infer")
	stageUnder := childTime(spans, "serve.stage")
	headUnder := childTime(spans, "serve.offload")
	var proxySelf, stage, hop, infer []float64
	var install time.Duration
	for i := range spans {
		sp := &spans[i]
		switch sp.Name {
		case "cluster.offload":
			proxySelf = append(proxySelf, ms(sp.dur()-headUnder[sp.ID]))
		case "serve.offload":
			// What is left of the head's span after its own segment
			// and the tail's whole stage: encode, transfer, decode.
			hop = append(hop, ms(sp.dur()-inferUnder[sp.ID]-stageUnder[sp.ID]))
		case "serve.stage":
			stage = append(stage, ms(sp.dur()))
		case "exec.infer":
			infer = append(infer, ms(sp.dur()))
		case "exec.install":
			install += sp.dur()
		}
	}
	inferAsc := sorted(infer)
	inferP95, _ := tail(inferAsc, 0.95)
	rc.set("cluster.proxy_self_p50_ms", median(proxySelf))
	rc.set("serve.hop_overhead_p50_ms", median(hop))
	rc.set("serve.stage_p50_ms", median(stage))
	rc.set("exec.infer_p50_ms", quantile(inferAsc, 0.5))
	rc.set("exec.infer_p95_ms", inferP95)
	rc.set("exec.install_cold_ms", ms(install))
	rc.note("spans: %d cluster.offload, %d serve.offload, %d serve.stage, %d exec.infer", len(proxySelf), len(hop), len(stage), len(infer))

	nodes := []cluster.Node{
		{ID: "a", Addr: "http://a", Res: splitResources(0.7), BandwidthMbps: 1000, FloorMbps: -1},
		{ID: "b", Addr: "http://b", Res: splitResources(0.7), BandwidthMbps: 1000, FloorMbps: -1},
	}
	var cut int
	v, err := timeIt(func() error {
		pl := cluster.PlaceWith(context.Background(), []core.Task{task}, blocks, nodes, cluster.PlaceConfig{Alpha: 0.5, Split: splitConfig()})
		if len(pl.Splits) != 1 || len(pl.Splits[0].Segments) != 2 {
			return fmt.Errorf("direct placement produced no 2-segment split: %+v", pl.Splits)
		}
		cut = pl.Splits[0].Segments[0].To
		return nil
	})
	if err != nil {
		return err
	}
	rc.set("cluster.place_ms", v)
	if err := probeSegments(rc, splitBlocks, cut); err != nil {
		return err
	}
	if err := probeModel(rc); err != nil {
		return err
	}
	return probeKernels(rc)
}

// weightedAdmission reads Σ z·p of the published placement from the
// coordinator's health endpoint.
func (c *splitCluster) weightedAdmission() (float64, error) {
	resp, err := http.Get(c.front.url + "/healthz")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var body struct {
		Placement struct {
			WeightedAdmission float64 `json:"weighted_admission"`
			Splits            int     `json:"splits"`
		} `json:"placement"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return 0, err
	}
	if body.Placement.Splits != 1 {
		return 0, fmt.Errorf("placement has %d split paths, want 1", body.Placement.Splits)
	}
	return body.Placement.WeightedAdmission, nil
}

// addStats sums the counters setExecStats reads.
func addStats(a, b exec.Stats) exec.Stats {
	a.Batches += b.Batches
	a.Requests += b.Requests
	a.ShedLate += b.ShedLate
	a.ShedQueueFull += b.ShedQueueFull
	a.ShedCanceled += b.ShedCanceled
	a.DeadlineHits += b.DeadlineHits
	a.DeadlineMisses += b.DeadlineMisses
	a.QuantFallbacks += b.QuantFallbacks
	a.Models += b.Models
	a.Blocks += b.Blocks
	return a
}
