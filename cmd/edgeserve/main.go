// Command edgeserve runs the OffloaDNN edge controller as a long-running
// serving daemon: tasks register and deregister over HTTP, each churn
// batch triggers a debounced DOT re-solve (one epoch of the Fig. 4
// loop), and the offload path enforces the solved admission ratios z·λ
// with per-task token buckets — over-rate requests get 429 + Retry-After
// instead of a queue.
//
// Endpoints:
//
//	POST   /v1/tasks        register a task (JSON: id, priority, rate,
//	                        min_accuracy, max_latency_ms, input_bits, snr_db)
//	GET    /v1/tasks        list tasks with their current admission verdicts
//	DELETE /v1/tasks/{id}   deregister a task
//	POST   /v1/offload      offload one request (JSON: {"task": "...",
//	                        "input": [...]}; with an input the response
//	                        carries logits, argmax and measured latency)
//	GET    /healthz         liveness + epoch/generation state
//	GET    /metrics         text metrics (counters, rates, latency quantiles)
//
// Usage:
//
//	edgeserve                          # Table-IV small-scenario resources on :8080
//	edgeserve -addr :9000 -catalog large -rbs 100 -compute 10 -memory 16
//
// By default offloads answer from the planning cost model (simulated
// backend). -backend real assembles tensor-backed models per deployed
// path — shared blocks instantiated once — and batches admitted inputs
// through them:
//
//	edgeserve -backend real -batch-size 8 -batch-window 2ms -model-width 8 -input 8x8
//
// -precision adds quantized ("@f32"/"@i8") block variants to the catalog
// as cheaper solver-priced options; with the real backend the chosen
// kernels serve the path, guarded by an install-time accuracy gate:
//
//	edgeserve -backend real -precision f64,i8
//
// The real backend's batching queues take requests earliest deadline
// first (EDF): each executed offload carries a deadline derived from its
// task's plan-time latency bound L_τ (overridable per request with
// "deadline_ms"), already-late requests are shed with 504
// deadline_exceeded, and a full intake queue sheds its latest-deadline
// waiter with 503 overloaded. Ten sheds inside five seconds degrade
// /healthz until the spike drains:
//
//	edgeserve -backend real -queue-depth 64
//
// Chaos runs arm fault-injection points (repeatable -fault flag):
//
//	edgeserve -fault solver.error:p=0.3                      # random solve failures
//	edgeserve -fault solver.panic:every=5 -fault deploy.error:p=0.1
//	edgeserve -fault solver.hang:every=3                     # hung solves, cut at 2 s
//
// Under injected faults the daemon keeps serving off its last-good
// epoch, retries with a backoff that starts at -debounce, and /healthz
// reports degraded until solves recover.
//
// Cluster-member mode joins an edgecluster coordinator: the daemon
// advertises its budgets, heartbeats at the period the coordinator's
// -heartbeat-timeout implies, and accepts plan pushes (its task
// subset of the cluster-wide placement) on PUT /v1/cluster/plan while the
// standalone API keeps serving:
//
//	edgeserve -addr :8081 -node-id a -cluster-join http://coordinator:8080 \
//	          -advertise http://edge-a:8081 -rbs 25 -compute 1.25
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"offloadnn/internal/cluster"
	"offloadnn/internal/core"
	"offloadnn/internal/dnn"
	"offloadnn/internal/exec"
	"offloadnn/internal/faultinject"
	"offloadnn/internal/radio"
	"offloadnn/internal/serve"
	"offloadnn/internal/tensor"
	"offloadnn/internal/workload"
)

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", ":8080", "HTTP listen address")
	rbs := flag.Int("rbs", 50, "radio resource blocks R")
	compute := flag.Float64("compute", 2.5, "edge compute seconds per second C")
	memory := flag.Float64("memory", 8, "edge memory budget M in GB")
	trainBudget := flag.Float64("train-budget", 1000, "training budget Ct in seconds")
	alpha := flag.Float64("alpha", 0.5, "admission/resource trade-off α")
	debounce := flag.Duration("debounce", 100*time.Millisecond, "churn batching window before a re-solve")
	catalog := flag.String("catalog", "small", "DNN catalog for submitted tasks: small|large")
	precisionList := flag.String("precision", "f64", "comma-separated kernel-precision tiers the catalog offers: f64, f32, i8 (e.g. f64,i8; plain i8 quantizes every path)")
	backendKind := flag.String("backend", "sim", "execution backend: sim (cost model) | real (tensor models)")
	batchSize := flag.Int("batch-size", 8, "real backend: max requests per inference batch")
	batchWindow := flag.Duration("batch-window", 2*time.Millisecond, "real backend: max wait for a partial batch (none on a path whose admitted rate × window < 1)")
	queueDepth := flag.Int("queue-depth", 0, "real backend: per-model intake queue bound before backpressure sheds the latest-deadline waiter (0 = 16x batch size, negative = unbounded)")
	modelWidth := flag.Int("model-width", 8, "real backend: base channel width of the model template")
	inputShape := flag.String("input", "8x8", "real backend: input HxW (channels fixed at 3)")
	drainGrace := flag.Duration("drain-grace", 1*time.Second, "window after SIGTERM where the listener stays open in draining mode")
	clusterJoin := flag.String("cluster-join", "", "coordinator base URL to join as a cluster member (empty = standalone)")
	nodeID := flag.String("node-id", "", "cluster member node ID (required with -cluster-join)")
	advertise := flag.String("advertise", "", "base URL the coordinator reaches this member on (default: http://<addr>, host 127.0.0.1 when -addr has none)")
	bandwidthMbps := flag.Float64("bandwidth-mbps", 0, "coordinator link rate to report; 0 measures it with a probe transfer")
	faultSeed := flag.Int64("fault-seed", 1, "seed for probabilistic fault triggers")
	var faultSpecs []string
	flag.Func("fault", "arm a fault-injection point, e.g. solver.error:p=0.3 (repeatable)", func(v string) error {
		faultSpecs = append(faultSpecs, v)
		return nil
	})
	flag.Parse()

	var faults *faultinject.Injector
	if len(faultSpecs) > 0 {
		faults = faultinject.New(*faultSeed)
		for _, spec := range faultSpecs {
			point, rule, err := faultinject.ParseSpec(spec)
			if err != nil {
				fmt.Fprintln(os.Stderr, "edgeserve:", err)
				return 2
			}
			faults.Set(point, rule)
			log.Printf("edgeserve: armed fault point %s (%+v)", point, rule)
		}
	}

	var params workload.CatalogParams
	switch *catalog {
	case "small":
		params = workload.SmallCatalogParams()
	case "large":
		params = workload.LargeCatalogParams()
	default:
		fmt.Fprintf(os.Stderr, "edgeserve: unknown catalog %q (want small|large)\n", *catalog)
		return 2
	}
	if *precisionList != "" && *precisionList != "f64" {
		for _, name := range strings.Split(*precisionList, ",") {
			name = strings.TrimSpace(name)
			if _, err := tensor.ParsePrecision(name); err != nil {
				fmt.Fprintln(os.Stderr, "edgeserve:", err)
				return 2
			}
			params.Precisions = append(params.Precisions, workload.DefaultPrecisionSpec(name))
		}
	}

	var backend exec.Backend
	switch *backendKind {
	case "sim":
		// Leave Config.Backend nil: serve.New wires the cost model.
	case "real":
		var h, w int
		if _, err := fmt.Sscanf(*inputShape, "%dx%d", &h, &w); err != nil || h <= 0 || w <= 0 {
			fmt.Fprintf(os.Stderr, "edgeserve: bad -input %q (want HxW, e.g. 8x8)\n", *inputShape)
			return 2
		}
		model := dnn.DefaultResNetConfig()
		model.BaseWidth = *modelWidth
		be, err := exec.NewReal(exec.RealConfig{
			Model:       model,
			Input:       [3]int{model.InChannels, h, w},
			BatchSize:   *batchSize,
			BatchWindow: *batchWindow,
			QueueDepth:  *queueDepth,
			Faults:      faults,
			Logf:        log.Printf,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "edgeserve:", err)
			return 2
		}
		backend = be
		log.Printf("edgeserve: real backend (width=%d, input=3x%dx%d, batch=%d/%v)",
			*modelWidth, h, w, *batchSize, *batchWindow)
	default:
		fmt.Fprintf(os.Stderr, "edgeserve: unknown backend %q (want sim|real)\n", *backendKind)
		return 2
	}

	srv, err := serve.New(serve.Config{
		Res: core.Resources{
			RBs:                *rbs,
			ComputeSeconds:     *compute,
			MemoryGB:           *memory,
			TrainBudgetSeconds: *trainBudget,
			Capacity:           radio.PaperRate(),
		},
		Alpha:    *alpha,
		Catalog:  params,
		Debounce: *debounce,
		Faults:   faults,
		Backend:  backend,
		Logf:     log.Printf,
		Node:     *nodeID,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "edgeserve:", err)
		return 2
	}
	defer srv.Close()

	var handler http.Handler = srv
	adv := *advertise
	if *clusterJoin != "" {
		if *nodeID == "" {
			fmt.Fprintln(os.Stderr, "edgeserve: -cluster-join requires -node-id")
			return 2
		}
		if adv == "" {
			if adv, err = advertiseURL(*addr); err != nil {
				fmt.Fprintln(os.Stderr, "edgeserve:", err)
				return 2
			}
		}
		// A member serves the full standalone API plus the plan-push
		// endpoint the coordinator installs placements through.
		handler = cluster.MemberHandler(srv)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("edgeserve: listening on %s (R=%d RBs, C=%gs, M=%g GB, α=%g, catalog=%s, debounce=%v)",
		*addr, *rbs, *compute, *memory, *alpha, *catalog, *debounce)

	var agent *cluster.Agent
	if *clusterJoin != "" {
		agent, err = cluster.StartAgent(srv, cluster.AgentConfig{
			Coordinator:   *clusterJoin,
			NodeID:        *nodeID,
			Advertise:     adv,
			BandwidthMbps: *bandwidthMbps,
			Logf:          log.Printf,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "edgeserve:", err)
			return 2
		}
		log.Printf("edgeserve: joining cluster at %s as node %s (advertise %s)", *clusterJoin, *nodeID, adv)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "edgeserve:", err)
			return 1
		}
	case s := <-sig:
		// Leave the cluster first so the coordinator re-places our tasks,
		// then drain and hold the listener open for the grace window:
		// registrations 503 while new offloads keep serving off the last
		// epoch. Shutdown closes the listener, so without this window
		// clients would see connection refused instead of "draining".
		if agent != nil {
			agent.Close()
		}
		srv.Drain()
		log.Printf("edgeserve: %v, draining then shutting down", s)
		select {
		case <-time.After(*drainGrace):
		case err := <-errCh:
			if err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "edgeserve:", err)
				return 1
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "edgeserve: shutdown:", err)
			return 1
		}
	}
	return 0
}

// advertiseURL derives the default -advertise base URL from the listen
// address: an empty host (":8081", or an empty -addr, which net/http
// serves on port 80) advertises the loopback address.
func advertiseURL(addr string) (string, error) {
	if addr == "" {
		addr = ":80"
	}
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return "", fmt.Errorf("cannot derive -advertise from -addr %q: %v", addr, err)
	}
	if host == "" {
		host = "127.0.0.1"
	}
	return "http://" + net.JoinHostPort(host, port), nil
}
