package offloadnn

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation. Each benchmark regenerates the artifact through its
// experiment driver (the same code `dotbench` runs), so `go test -bench=.`
// doubles as a reproduction smoke test. Substrate micro-benchmarks at the
// bottom characterize the pieces the figures are built from.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"offloadnn/internal/core"
	"offloadnn/internal/dnn"
	"offloadnn/internal/edge"
	"offloadnn/internal/exec"
	"offloadnn/internal/experiments"
	"offloadnn/internal/profile"
	"offloadnn/internal/radio"
	"offloadnn/internal/semoran"
	"offloadnn/internal/serve"
	"offloadnn/internal/tensor"
	"offloadnn/internal/workload"
)

// benchExperiment runs one experiment driver per iteration.
func benchExperiment(b *testing.B, id string, opt experiments.Options) {
	b.Helper()
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tables, err := e.Run(opt)
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) == 0 {
			b.Fatal("no tables")
		}
	}
}

// BenchmarkTable1Configs regenerates Table I (DNN block configurations).
func BenchmarkTable1Configs(b *testing.B) {
	benchExperiment(b, "table1", experiments.Options{})
}

// BenchmarkTable2Dataset regenerates Table II (base dataset description).
func BenchmarkTable2Dataset(b *testing.B) {
	benchExperiment(b, "table2", experiments.Options{})
}

// BenchmarkFig2TrainingConfigs regenerates Fig. 2: calibrated accuracy
// curves and the peak-training-memory comparison across CONFIG A–E.
func BenchmarkFig2TrainingConfigs(b *testing.B) {
	benchExperiment(b, "fig2", experiments.Options{})
}

// BenchmarkFig2RealTraining runs the real scaled-down fine-tuning
// comparison behind Fig. 2 (quick profile).
func BenchmarkFig2RealTraining(b *testing.B) {
	benchExperiment(b, "fig2-real", experiments.Options{Quick: true})
}

// BenchmarkFig3InferenceCompute regenerates Fig. 3: dummy-tensor inference
// timing and class accuracy for the pruned and unpruned configurations.
func BenchmarkFig3InferenceCompute(b *testing.B) {
	benchExperiment(b, "fig3", experiments.Options{})
}

// BenchmarkFig6SolverRuntime regenerates Fig. 6: optimum-vs-OffloaDNN
// runtime over the small scenario (quick caps the optimum at T=3; the
// -quick=false variant is exercised by dotbench).
func BenchmarkFig6SolverRuntime(b *testing.B) {
	benchExperiment(b, "fig6", experiments.Options{Quick: true})
}

// BenchmarkFig7CostMemory regenerates Fig. 7: normalized DOT cost and
// memory against the optimum.
func BenchmarkFig7CostMemory(b *testing.B) {
	benchExperiment(b, "fig7", experiments.Options{Quick: true})
}

// BenchmarkFig8Breakdown regenerates the four Fig. 8 panels.
func BenchmarkFig8Breakdown(b *testing.B) {
	benchExperiment(b, "fig8", experiments.Options{Quick: true})
}

// BenchmarkFig9LargeAdmission regenerates Fig. 9: per-task admission
// ratios for OffloaDNN and SEM-O-RAN over the three loads.
func BenchmarkFig9LargeAdmission(b *testing.B) {
	benchExperiment(b, "fig9", experiments.Options{})
}

// BenchmarkFig10LargeComparison regenerates the four Fig. 10 panels.
func BenchmarkFig10LargeComparison(b *testing.B) {
	benchExperiment(b, "fig10", experiments.Options{})
}

// BenchmarkHeadlineGains regenerates the §V-A aggregate numbers.
func BenchmarkHeadlineGains(b *testing.B) {
	benchExperiment(b, "headline", experiments.Options{})
}

// BenchmarkFig11Emulation regenerates Fig. 11: the 20-second end-to-end
// latency emulation.
func BenchmarkFig11Emulation(b *testing.B) {
	benchExperiment(b, "fig11", experiments.Options{})
}

// --- solver micro-benchmarks (the quantities Fig. 6 plots) ---

// BenchmarkSolveOffloaDNNSmallT5 times the heuristic on the T=5 small
// scenario.
func BenchmarkSolveOffloaDNNSmallT5(b *testing.B) {
	in, err := workload.SmallScenario(5)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SolveOffloaDNN(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveOptimalSmallT3 times the exhaustive optimum at T=3.
func BenchmarkSolveOptimalSmallT3(b *testing.B) {
	in, err := workload.SmallScenario(3)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.SolveOptimal(context.Background(), in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveOffloaDNNLarge times the heuristic on the 20-task,
// 1250-path large scenario (the scalability claim).
func BenchmarkSolveOffloaDNNLarge(b *testing.B) {
	in, err := workload.LargeScenario(workload.LoadHigh)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SolveOffloaDNN(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveOffloaDNNScale512 times the exact heuristic on
// the 512-task scale scenario — the solve `solve-scale` reports as
// op_p50_ms, cubic while the z-step was a dense LP.
func BenchmarkSolveOffloaDNNScale512(b *testing.B) {
	in, err := workload.ScaleScenario(512)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SolveOffloaDNN(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizeAllocation times the (z, r) alternation alone on the
// first branch of a scale scenario. B/op is the check that nothing in
// the z-step is O(T²): at 10k tasks the LP's box rows alone were 800 MB.
func BenchmarkOptimizeAllocation(b *testing.B) {
	for _, size := range []struct {
		name  string
		tasks int
	}{{"512", 512}, {"10k", 10000}} {
		b.Run(size.name, func(b *testing.B) {
			in, err := workload.ScaleScenario(size.tasks)
			if err != nil {
				b.Fatal(err)
			}
			sol, err := core.SolveSpec(context.Background(), in, core.SolverSpec{Tier: core.TierHeuristic})
			if err != nil {
				b.Fatal(err)
			}
			branch := make([]core.Assignment, len(sol.Assignments))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(branch, sol.Assignments)
				if err := in.OptimizeAllocation(branch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSolveSEMORANLarge times the baseline on the same instance.
func BenchmarkSolveSEMORANLarge(b *testing.B) {
	in, err := workload.LargeScenario(workload.LoadHigh)
	if err != nil {
		b.Fatal(err)
	}
	cfg := semoran.DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := semoran.Solve(in, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- substrate micro-benchmarks ---

// BenchmarkResNet18Forward times one inference of the scaled ResNet-18 —
// the c(s) measurement primitive of the profiler.
func BenchmarkResNet18Forward(b *testing.B) {
	m := dnn.BuildResNet18(dnn.ResNetConfig{
		InChannels: 3, NumClasses: 61, BaseWidth: 16,
		StageBlocks: [4]int{2, 2, 2, 2}, Seed: 1,
	})
	x := tensor.New(1, 3, 16, 16)
	x.Fill(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		y, err := m.Forward(x, false)
		if err != nil {
			b.Fatal(err)
		}
		tensor.Release(y)
	}
}

// BenchmarkResNet18PrunedForward times the 80%-pruned variant (the Fig. 3
// left primitive).
func BenchmarkResNet18PrunedForward(b *testing.B) {
	m := dnn.BuildResNet18(dnn.ResNetConfig{
		InChannels: 3, NumClasses: 61, BaseWidth: 16,
		StageBlocks: [4]int{2, 2, 2, 2},
		PruneRatios: [4]float64{0.8, 0.8, 0.8, 0.8}, Seed: 1,
	})
	x := tensor.New(1, 3, 16, 16)
	x.Fill(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		y, err := m.Forward(x, false)
		if err != nil {
			b.Fatal(err)
		}
		tensor.Release(y)
	}
}

// BenchmarkProfileModel times a full per-block characterization pass.
func BenchmarkProfileModel(b *testing.B) {
	m := dnn.BuildResNet18(dnn.DefaultResNetConfig())
	p := profile.Profiler{ImageSize: 16, Repeats: 3, Warmup: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.ProfileModel(m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTreeBuildLarge times weighted-tree construction over the
// 20-task × 1250-path large catalog.
func BenchmarkTreeBuildLarge(b *testing.B) {
	in, err := workload.LargeScenario(workload.LoadMedium)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.BuildTree(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConv2D times the convolution kernel that dominates inference.
func BenchmarkConv2D(b *testing.B) {
	p := tensor.Conv2DParams{InChannels: 16, OutChannels: 32, Kernel: 3, Stride: 1, Padding: 1}
	x := tensor.New(1, 16, 16, 16)
	w := tensor.New(32, 16, 3, 3)
	x.Fill(0.5)
	w.Fill(0.1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		y, err := tensor.Conv2D(x, w, nil, p)
		if err != nil {
			b.Fatal(err)
		}
		tensor.Release(y)
	}
}

// BenchmarkMatMul sweeps square GEMM sizes across the small-matrix fast
// path and the blocked kernel, at one worker and at the pool width, and
// across the three kernel precisions (f64 interchange, f32 and i8
// quantized — the speed ratios the solver's precision pricing encodes).
func BenchmarkMatMul(b *testing.B) {
	for _, n := range []int{32, 64, 128, 256} {
		x := tensor.New(n, n)
		y := tensor.New(n, n)
		x.Fill(0.5)
		y.Fill(0.25)
		dst := tensor.New(n, n)
		x32 := make([]float32, n*n)
		y32 := make([]float32, n*n)
		dst32 := make([]float32, n*n)
		x8 := make([]int8, n*n)
		y8 := make([]int8, n*n)
		acc := make([]int32, n*n)
		for i := range x32 {
			x32[i] = float32(x.Data()[i])
			y32[i] = float32(y.Data()[i])
			// A constant tensor quantizes to the int8 extreme.
			x8[i], y8[i] = 127, 127
		}
		for _, workers := range []int{1, 4} {
			tag := fmt.Sprintf("n%d/workers%d", n, workers)
			b.Run(tag+"/f64", func(b *testing.B) {
				prev := tensor.SetParallelism(workers)
				defer tensor.SetParallelism(prev)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := tensor.MatMulInto(dst, x, y); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(tag+"/f32", func(b *testing.B) {
				prev := tensor.SetParallelism(workers)
				defer tensor.SetParallelism(prev)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					tensor.GemmF32(dst32, x32, y32, n, n, n)
				}
			})
			b.Run(tag+"/i8", func(b *testing.B) {
				prev := tensor.SetParallelism(workers)
				defer tensor.SetParallelism(prev)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					tensor.GemmI8(acc, x8, y8, n, n, n)
				}
			})
		}
	}
}

// BenchmarkConv2DForward sweeps convolution shapes through the pooled
// gather + GEMM forward (one GEMM per call; large calls shard their pixel
// rows across the worker pool), at each kernel precision.
func BenchmarkConv2DForward(b *testing.B) {
	cases := []struct{ n, ch, size int }{
		{1, 16, 16},
		{8, 16, 16},
		{1, 32, 32},
		{8, 32, 32},
	}
	for _, c := range cases {
		p := tensor.Conv2DParams{InChannels: c.ch, OutChannels: 2 * c.ch, Kernel: 3, Stride: 1, Padding: 1}
		x := tensor.New(c.n, c.ch, c.size, c.size)
		w := tensor.New(2*c.ch, c.ch, 3, 3)
		x.Fill(0.5)
		w.Fill(0.1)
		w32, err := tensor.PrepareConvWeightsF32(w, p)
		if err != nil {
			b.Fatal(err)
		}
		w8, err := tensor.PrepareConvWeightsI8(w, p)
		if err != nil {
			b.Fatal(err)
		}
		xScale := tensor.SymmetricScale(x.Data())
		tag := fmt.Sprintf("n%d_c%d_s%d", c.n, c.ch, c.size)
		b.Run(tag+"/f64", func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				y, err := tensor.Conv2D(x, w, nil, p)
				if err != nil {
					b.Fatal(err)
				}
				tensor.Release(y)
			}
		})
		b.Run(tag+"/f32", func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				y, err := tensor.Conv2DF32(x, w32, nil, p)
				if err != nil {
					b.Fatal(err)
				}
				tensor.Release(y)
			}
		})
		b.Run(tag+"/i8", func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				y, err := tensor.Conv2DI8(x, w8, nil, p, xScale)
				if err != nil {
					b.Fatal(err)
				}
				tensor.Release(y)
			}
		})
	}
}

// BenchmarkResNetForward times a batch-8 inference of 16×16 frames through
// Model.ForwardBatch — the small-spatial shapes (OH·OW 64…1 down the
// stages) a serving batch actually has — at each kernel precision, at one
// worker (the serial c(s) baseline) and at four (the parallel hot path);
// the ratio is the multicore speedup.
func BenchmarkResNetForward(b *testing.B) {
	x := tensor.New(8, 3, 16, 16)
	x.Fill(1)
	for _, prec := range []tensor.Precision{tensor.F64, tensor.F32, tensor.I8} {
		m := dnn.BuildResNet18(dnn.ResNetConfig{
			InChannels: 3, NumClasses: 61, BaseWidth: 16,
			StageBlocks: [4]int{2, 2, 2, 2}, Seed: 1,
		})
		if err := dnn.Calibrate(m, x); err != nil {
			b.Fatal(err)
		}
		if err := m.SetPrecision(prec); err != nil {
			b.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			name := fmt.Sprintf("batch8/workers%d", workers)
			if prec != tensor.F64 {
				name += "/" + prec.String()
			}
			b.Run(name, func(b *testing.B) {
				prev := tensor.SetParallelism(workers)
				defer tensor.SetParallelism(prev)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					y, err := m.ForwardBatch(x)
					if err != nil {
						b.Fatal(err)
					}
					tensor.Release(y)
				}
			})
		}
	}
}

// BenchmarkEmulation20s times one Fig. 11-style 20-second emulated run.
func BenchmarkEmulation20s(b *testing.B) {
	in, err := SmallScenario(5)
	if err != nil {
		b.Fatal(err)
	}
	res := in.Res
	res.RBs = 100
	controller := edge.NewController(res)
	dep, err := controller.Admit(in.Tasks, in.Blocks, in.Alpha)
	if err != nil {
		b.Fatal(err)
	}
	cfg := edge.DefaultEmulatorConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		em, err := edge.NewEmulator(in, dep, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := em.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation runs the design-choice knockout study.
func BenchmarkAblation(b *testing.B) {
	benchExperiment(b, "ablation", experiments.Options{})
}

// BenchmarkExtHeterogeneous runs the two-family catalog extension.
func BenchmarkExtHeterogeneous(b *testing.B) {
	benchExperiment(b, "ext-hetero", experiments.Options{})
}

// BenchmarkExtDynamic runs the incremental-admission extension.
func BenchmarkExtDynamic(b *testing.B) {
	benchExperiment(b, "ext-dynamic", experiments.Options{})
}

// BenchmarkSolveHeterogeneousLarge times the heuristic over the 2500-path
// two-family catalog.
func BenchmarkSolveHeterogeneousLarge(b *testing.B) {
	in, err := workload.HeterogeneousScenario(workload.LoadMedium)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SolveOffloaDNN(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEpochResolve10k times one full serving-path epoch over the
// 10k-task scale scenario: auto tiering routes the solve to the
// approximate tier, then the deployment swap and gate rebuild publish
// it — the epoch loop edgeserve runs at fleet scale.
func BenchmarkEpochResolve10k(b *testing.B) {
	in, err := workload.ScaleScenario(10000)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := serve.New(serve.Config{
		Res:      in.Res,
		Alpha:    in.Alpha,
		Debounce: time.Hour, // keep the background loop out of the measurement
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	if _, err := srv.ReplacePlan(in.Tasks, in.Blocks, nil, nil); err != nil {
		b.Fatal(err)
	}
	if ep := srv.Current(); ep == nil || ep.Tier != core.TierApprox {
		b.Fatalf("10k epoch did not route to the approx tier: %+v", ep)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := srv.ForceResolve(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeploy10k times Controller.Deploy — solution check, one radio
// slice per admitted task, deployment assembly — on the approximate
// tier's answer to the 10k-task scale scenario: the step of a 10k epoch
// that was quadratic while the slice pool re-summed itself per grant.
func BenchmarkDeploy10k(b *testing.B) {
	in, err := workload.ScaleScenario(10000)
	if err != nil {
		b.Fatal(err)
	}
	sol, err := core.SolveSpec(context.Background(), in, core.SolverSpec{Tier: core.TierApprox})
	if err != nil {
		b.Fatal(err)
	}
	ctl := edge.NewController(in.Res)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctl.Deploy(in, sol); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIncrementalChurn times one epoch of the incremental solver
// under single-task churn over the 20-task large scenario: each iteration
// removes or re-adds task-20 and re-solves through the SolverSession, so
// 19 of 20 cliques come from the cache.
func BenchmarkIncrementalChurn(b *testing.B) {
	in, err := workload.LargeScenario(workload.LoadHigh)
	if err != nil {
		b.Fatal(err)
	}
	churn := in.Tasks[len(in.Tasks)-1]
	sess, err := core.NewSolverSession(in)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if _, err := sess.Resolve(ctx, core.TaskDelta{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var delta core.TaskDelta
		if i%2 == 0 {
			delta.Remove = []string{churn.ID}
		} else {
			delta.Add = []core.Task{churn}
		}
		if _, err := sess.Resolve(ctx, delta); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOffloadServe drives POST /v1/offload end to end — gate, route
// lookup, real batched inference, JSON response — on a multi-task
// deployment whose tasks all resolve to one shared path, so every request
// funnels into a single model's batching queue. The batch1 variant
// serializes one single-sample forward per request; batch8 aggregates
// concurrent requests per ForwardBatch call, which shards the batch over
// idle pool workers and, on any one core, runs each convolution as one
// GEMM for the whole batch instead of one per frame. The ratio is
// therefore the batching win on the serving hot path: the GEMMs' gain
// from longer rows everywhere, times the cores wherever GOMAXPROCS > 1.
// The avgbatch metric confirms the batch8 queue actually fills.
func BenchmarkOffloadServe(b *testing.B) {
	const nTasks = 4
	// A two-block catalog every task's only path runs through. Costs are
	// sized so the solver admits all four tasks in full (z=1): rate
	// z·λ·β = 1e5 b/s per task against ~3.5e5 b/s per RB, compute
	// 4 × 1e5·2e-6 = 0.8 s/s against C=2.5.
	blocks := map[string]core.BlockSpec{
		"base/s1": {ID: "base/s1", ComputeSeconds: 1e-6, MemoryGB: 0.001},
		"base/s2": {ID: "base/s2", ComputeSeconds: 1e-6, MemoryGB: 0.001},
	}
	tasks := make([]core.Task, nTasks)
	for i := range tasks {
		tasks[i] = core.Task{
			ID:          fmt.Sprintf("bench-%d", i+1),
			Priority:    1,
			Rate:        1e5, // gate burst = one second of tokens; keeps the bucket out of the measurement
			MinAccuracy: 0.5,
			MaxLatency:  100 * time.Millisecond,
			InputBits:   1,
			SNRdB:       20,
			Paths: []core.PathSpec{{
				ID: "shared", DNN: "base", Blocks: []string{"base/s1", "base/s2"}, Accuracy: 0.9,
			}},
		}
	}
	model := dnn.ResNetConfig{
		InChannels: 3, NumClasses: 8, BaseWidth: 8, StageBlocks: [4]int{1, 1, 1, 1}, Seed: 1,
	}
	input := make([]float64, 3*8*8)
	for i := range input {
		input[i] = float64(i%7) / 7
	}
	bodies := make([][]byte, nTasks)
	for i, task := range tasks {
		// Each request carries the task's plan-time bound as its deadline
		// budget, so the bench reports a deadline-hit-rate column
		// alongside throughput.
		buf, err := json.Marshal(serve.OffloadRequest{Task: task.ID, Input: input, DeadlineMS: 100})
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = buf
	}

	for _, batch := range []int{1, 8} {
		b.Run(fmt.Sprintf("batch%d", batch), func(b *testing.B) {
			be, err := exec.NewReal(exec.RealConfig{
				Model:       model,
				Input:       [3]int{3, 8, 8},
				BatchSize:   batch,
				BatchWindow: 2 * time.Millisecond,
			})
			if err != nil {
				b.Fatal(err)
			}
			srv, err := serve.New(serve.Config{
				Res: core.Resources{
					RBs: 50, ComputeSeconds: 2.5, MemoryGB: 8,
					TrainBudgetSeconds: 1000, Capacity: radio.PaperRate(),
				},
				Alpha:    0.5,
				Debounce: time.Hour, // keep the background loop out of the measurement
				Backend:  be,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			for _, task := range tasks {
				if err := srv.Register(task, blocks); err != nil {
					b.Fatal(err)
				}
			}
			if err := srv.ForceResolve(); err != nil {
				b.Fatal(err)
			}
			if st := be.Stats(); st.Models != 1 {
				b.Fatalf("shared path deployed %d models, want 1", st.Models)
			}

			var next atomic.Int64
			// Keep well over BatchSize requests in flight even at
			// GOMAXPROCS=1, so batches fill instead of stalling on the
			// window timer.
			b.SetParallelism(4 * batch)
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := int(next.Add(1)) % nTasks
					req := httptest.NewRequest(http.MethodPost, "/v1/offload", bytes.NewReader(bodies[i]))
					req.Header.Set("Content-Type", "application/json")
					rec := httptest.NewRecorder()
					srv.ServeHTTP(rec, req)
					// 504/503 are deadline sheds under load, part of what
					// the hitrate column measures — not bench failures.
					if rec.Code != http.StatusOK && rec.Code != http.StatusGatewayTimeout &&
						rec.Code != http.StatusServiceUnavailable {
						b.Errorf("offload %s: %d %s", tasks[i].ID, rec.Code, rec.Body.String())
						return
					}
				}
			})
			b.StopTimer()
			st := be.Stats()
			if st.Batches > 0 {
				b.ReportMetric(float64(st.Requests)/float64(st.Batches), "avgbatch")
			}
			if carried := st.DeadlineHits + st.DeadlineMisses; carried > 0 {
				b.ReportMetric(float64(st.DeadlineHits)/float64(carried), "hitrate")
			}
		})
	}
}

// BenchmarkSolveOptimalT4 times the exhaustive solver at T=4, one task
// above BenchmarkSolveOptimalSmallT3.
func BenchmarkSolveOptimalT4(b *testing.B) {
	in, err := workload.SmallScenario(4)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.SolveOptimal(context.Background(), in); err != nil {
			b.Fatal(err)
		}
	}
}
