package main

import (
	"bytes"
	"encoding/json"
)

// The benchmark's names live here and nowhere else: BENCHMARK.json is
// generated from these tables (-write-manifest) and a test holds the
// checked-in file to them.

// runSeconds is how long one run measures.
const runSeconds = 15

// heldOutSeed is the second default seed: develop against -seed 1, then
// confirm on this one.
const heldOutSeed = 2

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  func(*runCtx) error
}

var workloads = []workloadDef{
	{"paper-large", "Table-IV high load at its own rates: latency is window + one forward + JSON with no queueing, and fractional z shows as refused frames", runPaperLarge},
	{"frames-saturate", "closed loop on 3 shared paths: batches fill and both cores sit in ForwardBatch, so kernel and per-request serve cost convert 1:1 into throughput", runFramesSaturate},
	{"frames-overload", "same deployment driven open loop at 800 frames/s, above its capacity: standing EDF heap and late shedding, where deeper queues cost instead of helping", runFramesOverload},
	{"epoch-churn", "warm control path (delta, cached tree, allocation, deploy, warm install, publish) where tensor does nothing and the solver is a minority", runEpochChurn},
	{"solve-scale", "the same core layer cold and at scale (512-task exact LP, 10k-task epoch), where the warm path's caches are bypassed", runSolveScale},
	{"split-pipeline", "the only workload crossing cluster proxying, /v1/stage and the activation codec: a 2-hop path over loopback sockets", runSplitPipeline},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// e2eDef is an end-to-end metric: what a user of the system sees. Bound
// is the share of the parent's median by which it may worsen.
type e2eDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// Every workload reports every end-to-end metric (README.md says what
// each one is on each workload).
var endToEnd = []e2eDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_p95_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"weighted_admission", "zp", "higher", 0.05},
	{"rss_mb", "MB", "lower", 0.15},
}

// layerDef is a per-layer metric, reported by traced runs. A workload
// that does not exercise the layer reports 0.
type layerDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

var perLayer = []layerDef{
	{"serve.offload_self_p50_ms", "ms", "lower"},
	{"serve.refused_share", "share", "lower"},
	{"serve.early_sheds", "count", "lower"},
	{"serve.cold_epoch_ms", "ms", "lower"},
	{"serve.epoch_10k_s", "s", "lower"},
	{"serve.epoch_self_p50_ms", "ms", "lower"},
	{"serve.stage_p50_ms", "ms", "lower"},
	{"serve.hop_overhead_p50_ms", "ms", "lower"},
	{"exec.infer_p50_ms", "ms", "lower"},
	{"exec.infer_p95_ms", "ms", "lower"},
	{"exec.wait_p50_ms", "ms", "lower"},
	{"exec.avg_batch", "count", "higher"},
	{"exec.shed_late", "count", "lower"},
	{"exec.shed_queue_full", "count", "lower"},
	{"exec.shed_canceled", "count", "lower"},
	{"exec.deadline_hit_ratio", "share", "higher"},
	{"exec.quant_fallbacks", "count", "lower"},
	{"exec.models", "count", "lower"},
	{"exec.blocks", "count", "lower"},
	{"exec.install_cold_ms", "ms", "lower"},
	{"exec.install_warm_p50_ms", "ms", "lower"},
	{"dnn.forward_b1_ms.f64", "ms", "lower"},
	{"dnn.forward_b1_ms.f32", "ms", "lower"},
	{"dnn.forward_b1_ms.i8", "ms", "lower"},
	{"dnn.forward_b8_ms.f64", "ms", "lower"},
	{"dnn.forward_b8_ms.f32", "ms", "lower"},
	{"dnn.forward_b8_ms.i8", "ms", "lower"},
	{"dnn.forward_deployed_b1_ms", "ms", "lower"},
	{"dnn.segment_forward_ms.head", "ms", "lower"},
	{"dnn.segment_forward_ms.tail", "ms", "lower"},
	{"dnn.encode_activation_ms", "ms", "lower"},
	{"dnn.decode_activation_ms", "ms", "lower"},
	{"dnn.activation_bytes", "B", "lower"},
	{"tensor.conv_ms.f64", "ms", "lower"},
	{"tensor.conv_ms.f32", "ms", "lower"},
	{"tensor.conv_ms.i8", "ms", "lower"},
	{"tensor.gemm_ms.f64", "ms", "lower"},
	{"tensor.gemm_ms.f32", "ms", "lower"},
	{"tensor.gemm_ms.i8", "ms", "lower"},
	{"tensor.conv_flops", "count", "lower"},
	{"tensor.conv_bytes", "B", "lower"},
	{"core.build_tree_ms", "ms", "lower"},
	{"core.optimize_allocation_ms", "ms", "lower"},
	{"core.session_resolve_p50_ms", "ms", "lower"},
	{"core.solve_sharded_10k_s", "s", "lower"},
	{"core.solve_approx_10k_s", "s", "lower"},
	{"core.approx_admission_ratio", "ratio", "higher"},
	{"core.weighted_admission_512", "zp", "higher"},
	{"edge.deploy_ms.20", "ms", "lower"},
	{"edge.deploy_ms.10k", "ms", "lower"},
	{"cluster.place_ms", "ms", "lower"},
	{"cluster.proxy_self_p50_ms", "ms", "lower"},
	{"cluster.multi_hop_share", "share", "higher"},
	{"workload.scale_10k_build_s", "s", "lower"},
	{"bench.gen_late_p99_ms", "ms", "lower"},
	{"bench.gen_dropped", "count", "lower"},
	{"bench.trace_overhead_ratio", "ratio", "lower"},
	{"bench.deadline_hit_ratio", "share", "higher"},
	{"bench.failed_share", "share", "lower"},
	{"bench.wrong_answers", "count", "lower"},
	{"bench.attribution_gap", "share", "lower"},
}

// manifest renders BENCHMARK.json.
func manifest() ([]byte, error) {
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []e2eDef      `json:"end_to_end"`
		PerLayer   []layerDef    `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
