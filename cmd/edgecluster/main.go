// Command edgecluster runs the OffloaDNN multi-node coordinator: member
// edgeserve daemons register over HTTP (each with its own M/C/R budgets
// and a measured coordinator↔node link rate), the coordinator places
// every registered task's execution path on one member — tasks
// partitioned by compute headroom in descending priority, one DOT solve
// per node priced at the fleet-wide capacity totals, rejected tasks
// retried on the nodes they have not tried — pushes each node its task
// subset, and proxies /v1/offload along the resulting task→node routing
// table. A task whose only viable path fits no single node is split into
// pipelined stage segments across members (activations handed off over
// POST /v1/stage, priced against the measured inter-node link matrix);
// the route then points at the head segment's node.
//
// Membership churn (join, leave, heartbeat timeout, push or proxy
// failure, link-rate drift beyond 20 %) kicks a debounced
// cluster-wide re-placement, so killing a member moves its tasks to the
// survivors within one debounce window.
//
// Endpoints:
//
//	POST   /v1/tasks                      register a task cluster-wide
//	GET    /v1/tasks                      tasks with admission verdict + owning node
//	DELETE /v1/tasks/{id}                 deregister a task
//	POST   /v1/offload                    proxy one offload to the owning node
//	POST   /v1/cluster/nodes              member registration
//	GET    /v1/cluster/nodes              member list
//	POST   /v1/cluster/nodes/{id}/heartbeat
//	DELETE /v1/cluster/nodes/{id}         member leave
//	POST   /v1/cluster/bwprobe            bandwidth probe sink
//	GET    /healthz                       aggregate health (degraded names failing nodes)
//	GET    /metrics                       cluster + per-node {node="..."} families
//
// Usage:
//
//	edgecluster -addr :8080
//	edgeserve -addr :8081 -node-id a -cluster-join http://127.0.0.1:8080 -rbs 25 -compute 1.25
//	edgeserve -addr :8082 -node-id b -cluster-join http://127.0.0.1:8080 -rbs 25 -compute 1.25
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"offloadnn/internal/cluster"
	"offloadnn/internal/faultinject"
	"offloadnn/internal/workload"
)

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", ":8080", "HTTP listen address")
	alpha := flag.Float64("alpha", 0.5, "admission/resource trade-off α for per-node solves")
	catalog := flag.String("catalog", "small", "DNN catalog for submitted tasks: small|large (must match the members)")
	debounce := flag.Duration("debounce", 100*time.Millisecond, "churn batching window before a cluster-wide re-placement")
	heartbeatTimeout := flag.Duration("heartbeat-timeout", 3*time.Second, "silence before a member is declared stale and re-placed; members beat at a quarter of it")
	bwFloor := flag.Float64("bandwidth-floor", 0, "Mb/s an unmeasured link is priced at (0 = conservative default, negative = free)")
	faultSeed := flag.Int64("fault-seed", 1, "seed for probabilistic fault triggers")
	var faultSpecs []string
	flag.Func("fault", "arm a fault-injection point, e.g. cluster.push.error:p=0.3 (repeatable)", func(v string) error {
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
				fmt.Fprintln(os.Stderr, "edgecluster:", err)
				return 2
			}
			faults.Set(point, rule)
			log.Printf("edgecluster: armed fault point %s (%+v)", point, rule)
		}
	}

	var params workload.CatalogParams
	switch *catalog {
	case "small":
		params = workload.SmallCatalogParams()
	case "large":
		params = workload.LargeCatalogParams()
	default:
		fmt.Fprintf(os.Stderr, "edgecluster: unknown catalog %q (want small|large)\n", *catalog)
		return 2
	}

	coord, err := cluster.NewCoordinator(cluster.Config{
		Alpha:              *alpha,
		Catalog:            params,
		Debounce:           *debounce,
		HeartbeatTimeout:   *heartbeatTimeout,
		BandwidthFloorMbps: *bwFloor,
		Faults:             faults,
		Logf:               log.Printf,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "edgecluster:", err)
		return 2
	}
	defer coord.Close()

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           coord,
		ReadHeaderTimeout: 5 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("edgecluster: coordinator listening on %s (α=%g, catalog=%s, debounce=%v, heartbeat-timeout=%v)",
		*addr, *alpha, *catalog, *debounce, *heartbeatTimeout)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "edgecluster:", err)
			return 1
		}
	case s := <-sig:
		log.Printf("edgecluster: %v, shutting down", s)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "edgecluster: shutdown:", err)
			return 1
		}
	}
	return 0
}
