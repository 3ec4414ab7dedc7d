package dnn

import (
	"math/rand"
	"sync"
	"testing"

	"offloadnn/internal/tensor"
)

func randInput(rng *rand.Rand, shape ...int) *tensor.Tensor {
	x := tensor.New(shape...)
	d := x.Data()
	for i := range d {
		d[i] = rng.NormFloat64()
	}
	return x
}

// TestForwardBatchMatchesForward pins the chunking invariant ForwardBatch
// relies on: every layer is per-sample at inference, so sharding the batch
// must reproduce the whole-batch forward bit for bit.
func TestForwardBatchMatchesForward(t *testing.T) {
	m := BuildResNet18(DefaultResNetConfig())
	rng := rand.New(rand.NewSource(3))
	x := randInput(rng, 9, 3, 16, 16) // odd batch: uneven shards

	prev := tensor.SetParallelism(1)
	defer tensor.SetParallelism(prev)
	want, err := m.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 3, 4} {
		tensor.SetParallelism(workers)
		got, err := m.ForwardBatch(x)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !got.SameShape(want) {
			t.Fatalf("workers=%d: shape %v, want %v", workers, got.Shape(), want.Shape())
		}
		g, w := got.Data(), want.Data()
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("workers=%d: elem %d differs bitwise: %g vs %g", workers, i, g[i], w[i])
			}
		}
		tensor.Release(got)
	}
}

// TestConcurrentInferenceShareModel drives many concurrent inference
// forwards through one shared model. Run under -race this proves the
// inference path touches no shared mutable layer state.
func TestConcurrentInferenceShareModel(t *testing.T) {
	m := BuildResNet18(DefaultResNetConfig())
	prev := tensor.SetParallelism(4)
	defer tensor.SetParallelism(prev)

	rng := rand.New(rand.NewSource(4))
	inputs := make([]*tensor.Tensor, 8)
	for i := range inputs {
		inputs[i] = randInput(rng, 2, 3, 16, 16)
	}

	var wg sync.WaitGroup
	errs := make([]error, len(inputs))
	for i, x := range inputs {
		wg.Add(1)
		go func(i int, x *tensor.Tensor) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				y, err := m.Forward(x, false)
				if err != nil {
					errs[i] = err
					return
				}
				tensor.Release(y)
			}
		}(i, x)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}
}

// TestForwardBatchFallbacks covers the serial fallbacks: rank-2 input and
// batch size 1 both route through plain Forward.
func TestForwardBatchFallbacks(t *testing.T) {
	m := BuildResNet18(DefaultResNetConfig())
	prev := tensor.SetParallelism(4)
	defer tensor.SetParallelism(prev)
	rng := rand.New(rand.NewSource(5))
	single := randInput(rng, 1, 3, 16, 16)
	got, err := m.ForwardBatch(single)
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.Forward(single, false)
	if err != nil {
		t.Fatal(err)
	}
	g, w := got.Data(), want.Data()
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("batch-1 elem %d differs: %g vs %g", i, g[i], w[i])
		}
	}
}

// TestTrainingStillWorksAfterInference guards the training path against
// regressions from the pooled inference fast paths: a forward/backward
// cycle must still run and produce gradients after inference passes.
func TestTrainingStillWorksAfterInference(t *testing.T) {
	m := BuildResNet18(DefaultResNetConfig())
	rng := rand.New(rand.NewSource(6))
	x := randInput(rng, 4, 3, 16, 16)
	if _, err := m.Forward(x, false); err != nil {
		t.Fatal(err)
	}
	logits, err := m.Forward(x, true)
	if err != nil {
		t.Fatal(err)
	}
	ce, err := tensor.CrossEntropy(logits, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	m.ZeroGrads()
	if _, err := m.Backward(ce.Backward()); err != nil {
		t.Fatal(err)
	}
	nonZero := false
	for _, g := range m.TrainableGrads() {
		if maxAbs(g) > 0 {
			nonZero = true
			break
		}
	}
	if !nonZero {
		t.Fatal("backward produced all-zero gradients")
	}
}
