package offloadnn

// Inference-precision benchmark harness: TestRecordInferBench regenerates
// the checked-in BENCH_infer.json — the model × precision × batch matrix
// (ns/op, allocs/op, top-1 delta vs float64) behind the quantization
// numbers quoted in README.md and DESIGN.md §5j.

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"offloadnn/internal/dnn"
	"offloadnn/internal/tensor"
)

// inferBenchRun is one cell of the recorded model × precision × batch
// matrix.
type inferBenchRun struct {
	Model     string  `json:"model"`
	Precision string  `json:"precision"`
	Batch     int     `json:"batch"`
	NsPerOp   float64 `json:"ns_per_op"`
	AllocsOp  float64 `json:"allocs_per_op"`
	// Top1Delta is the fraction of the probe batch whose argmax differs
	// from the float64 reference model (0 for the f64 rows by
	// construction).
	Top1Delta float64 `json:"top1_delta"`
	// Speedup is ns/op of the f64 row at the same model and batch over
	// this row's ns/op.
	Speedup float64 `json:"speedup,omitempty"`
}

func inferBenchModel(t *testing.T, arch string) *dnn.Model {
	t.Helper()
	switch arch {
	case "resnet18":
		return dnn.BuildResNet18(dnn.ResNetConfig{
			InChannels: 3, NumClasses: 61, BaseWidth: 16,
			StageBlocks: [4]int{2, 2, 2, 2}, Seed: 1,
		})
	case "mobilenetv2":
		return dnn.BuildMobileNetV2(dnn.MobileNetConfig{
			InChannels: 3, NumClasses: 61, BaseWidth: 16,
			Expansion: 2, StageBlocks: [4]int{1, 2, 2, 1}, Seed: 1,
		})
	default:
		t.Fatalf("unknown arch %q", arch)
		return nil
	}
}

// TestRecordInferBench regenerates BENCH_infer.json. Gated behind
// OFFLOADNN_INFER_BENCH_OUT because the full matrix takes ~1 min of
// wall-clock:
//
//	OFFLOADNN_INFER_BENCH_OUT=BENCH_infer.json go test -run TestRecordInferBench -count=1 .
func TestRecordInferBench(t *testing.T) {
	out := os.Getenv("OFFLOADNN_INFER_BENCH_OUT")
	if out == "" {
		t.Skip("set OFFLOADNN_INFER_BENCH_OUT to record the inference precision matrix")
	}
	prev := tensor.SetParallelism(1) // serial kernels: the c(s) baseline
	defer tensor.SetParallelism(prev)

	var runs []inferBenchRun
	f64ns := map[string]float64{}
	for _, arch := range []string{"resnet18", "mobilenetv2"} {
		ref := inferBenchModel(t, arch)
		probe := dnn.CalibrationBatch(32, 3, 16, 16, 17)
		for _, prec := range []tensor.Precision{tensor.F64, tensor.F32, tensor.I8} {
			m := inferBenchModel(t, arch)
			if prec == tensor.I8 {
				if err := dnn.Calibrate(m, probe); err != nil {
					t.Fatal(err)
				}
			}
			if err := m.SetPrecision(prec); err != nil {
				t.Fatal(err)
			}
			delta, err := dnn.Top1Delta(ref, m, probe)
			if err != nil {
				t.Fatal(err)
			}
			for _, batch := range []int{1, 8} {
				x := dnn.CalibrationBatch(batch, 3, 16, 16, 23)
				res := testing.Benchmark(func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						y, err := m.Forward(x, false)
						if err != nil {
							b.Fatal(err)
						}
						tensor.Release(y)
					}
				})
				run := inferBenchRun{
					Model:     arch,
					Precision: prec.String(),
					Batch:     batch,
					NsPerOp:   float64(res.NsPerOp()),
					AllocsOp:  float64(res.AllocsPerOp()),
					Top1Delta: delta,
				}
				key := fmt.Sprintf("%s/%d", arch, batch)
				if prec == tensor.F64 {
					f64ns[key] = run.NsPerOp
				} else if base := f64ns[key]; base > 0 {
					run.Speedup = base / run.NsPerOp
				}
				t.Logf("%-12s %-4s batch=%d: %10.0f ns/op %5.1f allocs/op delta=%.3f speedup=%.2f",
					arch, run.Precision, batch, run.NsPerOp, run.AllocsOp, run.Top1Delta, run.Speedup)
				runs = append(runs, run)
			}
		}
	}

	// Steady-state inference must stay allocation-free at every precision.
	// The floor on time is deliberately not a speed-up: since float64 got
	// its own AVX2 register tile (DESIGN.md §5e) it is the fastest of the
	// three at batch 8 on an AVX2 host — the narrow GEMMs still store
	// every fourth multiply — and what a narrow precision buys there is
	// memory (§5j). A floor that asked the narrow rows to beat f64 by a
	// margin would fail every time the baseline improved, so the check is
	// only that narrowing never costs much: over three recordings on a
	// shared 2-core host the batch-8 ratios read 0.83–0.95 (resnet18) and
	// 0.73–0.90 (mobilenetv2), hence 0.6.
	const narrowFloor = 0.6
	var f32Speedup, i8Speedup float64
	for _, r := range runs {
		if r.Batch != 8 {
			continue
		}
		if r.AllocsOp > 0 {
			t.Errorf("%s/%s batch=8: %.1f allocs/op, want 0", r.Model, r.Precision, r.AllocsOp)
		}
		if r.Precision != "f64" && r.Speedup < narrowFloor {
			t.Errorf("%s %s batch=8: %.2fx of f64's speed, want >= %.1fx", r.Model, r.Precision, r.Speedup, narrowFloor)
		}
		switch {
		case r.Model == "resnet18" && r.Precision == "f32":
			f32Speedup = r.Speedup
		case r.Model == "resnet18" && r.Precision == "i8":
			i8Speedup = r.Speedup
		}
	}

	doc := struct {
		Benchmark string          `json:"benchmark"`
		Runs      []inferBenchRun `json:"runs"`
		Summary   map[string]any  `json:"summary"`
	}{
		Benchmark: "infer_precision",
		Runs:      runs,
		Summary: map[string]any{
			"resnet18_f32_speedup_batch8": f32Speedup,
			"resnet18_i8_speedup_batch8":  i8Speedup,
			"workers":                     1,
			"input":                       "3x16x16",
		},
	}
	blob, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (%d runs)", out, len(runs))
}
