package exec_test

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"offloadnn/internal/core"
	"offloadnn/internal/dnn"
	"offloadnn/internal/edge"
	"offloadnn/internal/exec"
	"offloadnn/internal/radio"
)

// tinyModel keeps the forward passes fast enough for -race.
func tinyModel() dnn.ResNetConfig {
	return dnn.ResNetConfig{
		InChannels: 3, NumClasses: 4, BaseWidth: 4, StageBlocks: [4]int{1, 1, 1, 1}, Seed: 7,
	}
}

func newReal(t *testing.T, cfg exec.RealConfig) *exec.Real {
	t.Helper()
	if cfg.Model.BaseWidth == 0 {
		cfg.Model = tinyModel()
	}
	r, err := exec.NewReal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

// planFor assembles a Plan whose i-th task is admitted on the i-th path
// (nil path = rejected).
func planFor(epoch uint64, paths map[string][]string) *exec.Plan {
	var tasks []core.Task
	var assigns []core.Assignment
	rates := map[string]float64{}
	blocks := map[string]core.BlockSpec{}
	for id, blockIDs := range paths {
		tasks = append(tasks, core.Task{
			ID: id, Rate: 10, MaxLatency: time.Second, InputBits: 1e5, Priority: 0.5,
		})
		if blockIDs == nil {
			assigns = append(assigns, core.Assignment{TaskID: id})
			continue
		}
		for _, b := range blockIDs {
			blocks[b] = core.BlockSpec{ID: b, ComputeSeconds: 0.01}
		}
		p := &core.PathSpec{ID: "p-" + id, DNN: "d", Blocks: blockIDs, Accuracy: 0.9}
		assigns = append(assigns, core.Assignment{TaskID: id, Path: p, Z: 1, RBs: 2})
		rates[id] = 10
	}
	return &exec.Plan{
		Epoch:  epoch,
		Tasks:  tasks,
		Blocks: blocks,
		Res: core.Resources{
			RBs: 10, ComputeSeconds: 1, MemoryGB: 10, TrainBudgetSeconds: 1000,
			Capacity: radio.FixedRate{Rate: 1e6},
		},
		Deployment: &edge.Deployment{
			Solution:      &core.Solution{Assignments: assigns},
			AdmittedRates: rates,
		},
	}
}

func input(r *exec.Real) []float64 {
	shape := r.InputShape()
	in := make([]float64, shape[0]*shape[1]*shape[2])
	for i := range in {
		in[i] = float64(i%7) / 7
	}
	return in
}

// Two tasks whose paths differ but share a block must alias exactly one
// live instance of it — the runtime form of constraint (1b).
func TestSharedBlockSingleInstance(t *testing.T) {
	r := newReal(t, exec.RealConfig{})
	plan := planFor(1, map[string][]string{
		"t1": {"base/s1", "ft/t1/s2"},
		"t2": {"base/s1", "ft/t2/s2"},
	})
	if err := r.Install(plan); err != nil {
		t.Fatal(err)
	}
	refs := r.BlockRefs()
	if refs["base/s1"] != 2 {
		t.Fatalf("shared block refs = %d, want 2 (one per model): %v", refs["base/s1"], refs)
	}
	if refs["ft/t1/s2"] != 1 || refs["ft/t2/s2"] != 1 {
		t.Fatalf("task-specific block refs = %v, want 1 each", refs)
	}
	// stem + base/s1 + two fine-tuned stage-2 blocks + shared classifier.
	if st := r.Stats(); st.Blocks != 5 || st.Models != 2 {
		t.Fatalf("stats = %+v, want 5 blocks / 2 models", st)
	}
	if r.SharedBlock("base/s1") == nil {
		t.Fatal("shared block has no live instance")
	}
	// Both tasks answer through their (distinct) models.
	for _, id := range []string{"t1", "t2"} {
		out, err := r.Infer(context.Background(), exec.Request{TaskID: id, Input: input(r)})
		if err != nil {
			t.Fatalf("infer %s: %v", id, err)
		}
		if len(out.Logits) != 4 || out.Argmax < 0 || out.Argmax > 3 {
			t.Fatalf("infer %s: bad output %+v", id, out)
		}
	}
}

// Tasks assigned the same path share one model entry (and one batch
// queue), so each shared block is referenced once.
func TestSamePathSharesModel(t *testing.T) {
	r := newReal(t, exec.RealConfig{})
	plan := planFor(1, map[string][]string{
		"t1": {"base/s1", "base/s2"},
		"t2": {"base/s1", "base/s2"},
	})
	if err := r.Install(plan); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Models != 1 {
		t.Fatalf("models = %d, want 1 (shared path)", st.Models)
	}
	if refs := r.BlockRefs(); refs["base/s1"] != 1 {
		t.Fatalf("shared block refs = %v, want 1 (one model)", refs)
	}
}

// A swap must retain block instances surviving into the next epoch (warm
// swap: same pointer) and release only the ones no path references.
func TestEpochSwapReleasesUnreferencedBlocks(t *testing.T) {
	r := newReal(t, exec.RealConfig{})
	if err := r.Install(planFor(1, map[string][]string{
		"t1": {"base/s1", "ft/t1/s2"},
		"t2": {"base/s1", "ft/t2/s2"},
	})); err != nil {
		t.Fatal(err)
	}
	shared := r.SharedBlock("base/s1")
	if err := r.Install(planFor(2, map[string][]string{
		"t1": {"base/s1", "ft/t1/s2"},
		"t2": nil, // rejected this epoch
	})); err != nil {
		t.Fatal(err)
	}
	if got := r.SharedBlock("base/s1"); got != shared {
		t.Fatalf("warm swap rebuilt the shared block (%p != %p)", got, shared)
	}
	if r.SharedBlock("ft/t2/s2") != nil {
		t.Fatal("dropped task's block still live after swap")
	}
	refs := r.BlockRefs()
	if refs["base/s1"] != 1 {
		t.Fatalf("shared block refs after swap = %d, want 1", refs["base/s1"])
	}
	if _, err := r.Infer(context.Background(), exec.Request{TaskID: "t2", Input: input(r)}); !errors.Is(err, exec.ErrNoModel) {
		t.Fatalf("infer for dropped task: %v, want ErrNoModel", err)
	}
	if _, err := r.Infer(context.Background(), exec.Request{TaskID: "t1", Input: input(r)}); err != nil {
		t.Fatalf("surviving task broken by swap: %v", err)
	}
}

// Installing a nil deployment (empty registry) releases every model.
func TestEmptyPlanReleasesEverything(t *testing.T) {
	r := newReal(t, exec.RealConfig{})
	if err := r.Install(planFor(1, map[string][]string{"t1": {"base/s1"}})); err != nil {
		t.Fatal(err)
	}
	if err := r.Install(&exec.Plan{Epoch: 2}); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Models != 0 || st.Blocks != 0 {
		t.Fatalf("stats after empty plan = %+v, want all zero", st)
	}
}

// Batched execution must be observable and deterministic: concurrent
// requests with one input land in shared batches and every copy of the
// input produces identical logits.
func TestBatchingDeterministic(t *testing.T) {
	r := newReal(t, exec.RealConfig{BatchSize: 4, BatchWindow: 20 * time.Millisecond})
	plan := planFor(1, map[string][]string{"t1": {"base/s1", "base/s2"}})
	// 8 concurrent callers inside one 20 ms window drive 400/s; the plan
	// declares it (≥ 1/BatchWindow = 50/s), so the executor waits.
	plan.Deployment.AdmittedRates["t1"] = 400
	if err := r.Install(plan); err != nil {
		t.Fatal(err)
	}
	in := input(r)
	const n = 8
	outs := make([]exec.Output, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, err := r.Infer(context.Background(), exec.Request{TaskID: "t1", Input: in})
			if err != nil {
				t.Errorf("infer %d: %v", i, err)
				return
			}
			outs[i] = out
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	maxBatch := 0
	for i, out := range outs {
		if out.BatchSize > maxBatch {
			maxBatch = out.BatchSize
		}
		for j, v := range out.Logits {
			if math.IsNaN(v) {
				t.Fatalf("output %d logit %d is NaN", i, j)
			}
			if v != outs[0].Logits[j] {
				t.Fatalf("same input diverged: out[%d]=%v out[0]=%v", i, out.Logits, outs[0].Logits)
			}
		}
		if out.Latency <= 0 {
			t.Fatalf("output %d has non-positive measured latency", i)
		}
		if out.Simulated {
			t.Fatalf("real backend marked output %d simulated", i)
		}
	}
	if maxBatch < 2 {
		t.Fatalf("8 concurrent requests never batched (max batch %d)", maxBatch)
	}
}

// A path the plan admits at 1/s expects no second request inside a
// 500 ms window (1/s × 0.5 s < 1), so a lone request does not wait for
// one.
func TestWindowSkippedWhenPlanExpectsNoArrival(t *testing.T) {
	r := newReal(t, exec.RealConfig{BatchSize: 8, BatchWindow: 500 * time.Millisecond})
	plan := planFor(1, map[string][]string{"t1": {"base/s1"}})
	plan.Deployment.AdmittedRates["t1"] = 1
	if err := r.Install(plan); err != nil {
		t.Fatal(err)
	}
	out, err := r.Infer(context.Background(), exec.Request{TaskID: "t1", Input: input(r)})
	if err != nil {
		t.Fatal(err)
	}
	if out.Latency >= 250*time.Millisecond {
		t.Fatalf("lone request at 1/s took %v: it sat out the 500 ms window", out.Latency)
	}
}

// At 1 000/s a 200 ms window expects 200 arrivals, so the executor keeps
// waiting: two requests 20 ms apart land in one batch.
func TestWindowKeptWhenPlanExpectsArrivals(t *testing.T) {
	r := newReal(t, exec.RealConfig{BatchSize: 8, BatchWindow: 200 * time.Millisecond})
	plan := planFor(1, map[string][]string{"t1": {"base/s1"}})
	plan.Deployment.AdmittedRates["t1"] = 1000
	if err := r.Install(plan); err != nil {
		t.Fatal(err)
	}
	type result struct {
		out exec.Output
		err error
	}
	results := make(chan result, 2)
	for i := 0; i < 2; i++ {
		if i > 0 {
			time.Sleep(20 * time.Millisecond) // the arrival gap under test
		}
		go func() {
			out, err := r.Infer(context.Background(), exec.Request{TaskID: "t1", Input: input(r)})
			results <- result{out, err}
		}()
	}
	for i := 0; i < 2; i++ {
		got := <-results
		if got.err != nil {
			t.Fatal(got.err)
		}
		if got.out.BatchSize != 2 {
			t.Fatalf("request served in a batch of %d, want both in one batch of 2", got.out.BatchSize)
		}
	}
}

func TestInferErrors(t *testing.T) {
	r := newReal(t, exec.RealConfig{})
	if _, err := r.Infer(context.Background(), exec.Request{TaskID: "t1", Input: input(r)}); !errors.Is(err, exec.ErrNoModel) {
		t.Fatalf("infer before install: %v, want ErrNoModel", err)
	}
	if err := r.Install(planFor(1, map[string][]string{"t1": {"base/s1"}})); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Infer(context.Background(), exec.Request{TaskID: "t1", Input: []float64{1, 2, 3}}); !errors.Is(err, exec.ErrBadInput) {
		t.Fatalf("short input: %v, want ErrBadInput", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.Infer(ctx, exec.Request{TaskID: "t1", Input: input(r)}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled context: %v, want context.Canceled", err)
	}
}

// A block ID names one catalog artifact; a plan placing it at two
// different depths cannot share one instance and must be refused,
// leaving the previous plan installed.
func TestConflictingStageRejected(t *testing.T) {
	r := newReal(t, exec.RealConfig{})
	if err := r.Install(planFor(1, map[string][]string{"t1": {"base/s1", "base/s2"}})); err != nil {
		t.Fatal(err)
	}
	bad := planFor(2, map[string][]string{
		"t1": {"base/s1", "base/s2"},
		"t2": {"base/s2", "base/s1"}, // base/s2 at stage 1 and stage 2
	})
	if err := r.Install(bad); err == nil {
		t.Fatal("conflicting-stage plan accepted")
	}
	// The previous plan keeps serving.
	if _, err := r.Infer(context.Background(), exec.Request{TaskID: "t1", Input: input(r)}); err != nil {
		t.Fatalf("previous plan broken by failed install: %v", err)
	}
}

// The pruned-variant suffix must shrink the block it decorates.
func TestPrunedVariantSmaller(t *testing.T) {
	r := newReal(t, exec.RealConfig{})
	if err := r.Install(planFor(1, map[string][]string{
		"t1": {"base/s1", "base/s2"},
		"t2": {"base/s1", "base/s2/p80"},
	})); err != nil {
		t.Fatal(err)
	}
	full := r.SharedBlock("base/s2")
	pruned := r.SharedBlock("base/s2/p80")
	if full == nil || pruned == nil {
		t.Fatal("expected both the full and the pruned stage to be live")
	}
	if pruned.ParamCount() >= full.ParamCount() {
		t.Fatalf("pruned block has %d params, full %d — pruning did nothing",
			pruned.ParamCount(), full.ParamCount())
	}
}

func TestSimulatedBackend(t *testing.T) {
	s := exec.NewSimulated()
	t.Cleanup(s.Close)
	plan := planFor(1, map[string][]string{"t1": {"base/s1", "base/s2"}})
	if err := s.Install(plan); err != nil {
		t.Fatal(err)
	}
	out, err := s.Infer(context.Background(), exec.Request{TaskID: "t1"})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Simulated || out.Logits != nil || out.Argmax != -1 {
		t.Fatalf("simulated output %+v, want simulated / no logits", out)
	}
	// The modeled latency is exactly the plan's cost-model prediction.
	want := edge.PlanCosts(plan.Tasks, plan.Blocks, plan.Res, plan.Deployment, 0)["t1"].Total()
	if out.Latency != want {
		t.Fatalf("simulated latency %v, want planned %v", out.Latency, want)
	}
	if _, err := s.Infer(context.Background(), exec.Request{TaskID: "nope"}); !errors.Is(err, exec.ErrNoModel) {
		t.Fatalf("unknown task: %v, want ErrNoModel", err)
	}
}

// Both backends satisfy the interface.
var (
	_ exec.Backend = (*exec.Real)(nil)
	_ exec.Backend = (*exec.Simulated)(nil)
)
