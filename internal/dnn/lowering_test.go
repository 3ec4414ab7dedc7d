package dnn

import (
	"testing"

	"offloadnn/internal/tensor"
)

// A steady-state ForwardBatch must not allocate either, on the sharded
// path: shard views, per-shard results and the parallel region are all
// recycled, and the kernels under a shard take their serial path.
func TestForwardBatchZeroAllocsPerPrecision(t *testing.T) {
	defer tensor.SetParallelism(tensor.SetParallelism(2))
	x := CalibrationBatch(8, 3, 16, 16, 7)
	for _, prec := range []tensor.Precision{tensor.F64, tensor.F32, tensor.I8} {
		m := BuildResNet18(DefaultResNetConfig())
		if err := m.SetPrecision(prec); err != nil {
			t.Fatal(err)
		}
		run := func() {
			y, err := m.ForwardBatch(x)
			if err != nil {
				t.Fatal(err)
			}
			tensor.Release(y)
		}
		for i := 0; i < 3; i++ { // warm the freelists: both shards' worth
			run()
		}
		// The freelists hold both shards' worth only once both shards have
		// run at the same time, which a busy machine can delay past the
		// warm-up (8 of 60 isolated runs): a measurement that allocated
		// has also warmed them, so the steady state is the next one.
		allocs := testing.AllocsPerRun(10, run)
		for retry := 0; retry < 3 && allocs > 0; retry++ {
			allocs = testing.AllocsPerRun(10, run)
		}
		if allocs > 0 {
			t.Errorf("%v: %v allocs/op in steady-state ForwardBatch, want 0", prec, allocs)
		}
	}
}

// A weight update between two forwards must be seen: the f64 lowering
// reads the master weight as it lies, and re-preparing a narrow weight
// (SetPrecision again) must not inherit the layout state of the one it
// replaces.
func TestForwardSeesWeightUpdate(t *testing.T) {
	x := CalibrationBatch(3, 3, 16, 16, 9)
	forward := func(m *Model) []float64 {
		y, err := m.Forward(x, false)
		if err != nil {
			t.Fatal(err)
		}
		defer tensor.Release(y)
		return append([]float64(nil), y.Data()...)
	}
	bump := func(m *Model) {
		for _, b := range m.Blocks {
			for _, p := range b.Params() {
				p.Data()[0] += 0.25
			}
		}
	}
	for _, prec := range []tensor.Precision{tensor.F64, tensor.F32, tensor.I8} {
		m, fresh := BuildResNet18(DefaultResNetConfig()), BuildResNet18(DefaultResNetConfig())
		if err := m.SetPrecision(prec); err != nil {
			t.Fatal(err)
		}
		before := forward(m) // fixes every narrow layout, warms every cache

		bump(fresh)
		bump(m) // in place, as an optimizer step does
		if prec != tensor.F64 {
			if err := m.SetPrecision(prec); err != nil {
				t.Fatal(err)
			}
		}
		if err := fresh.SetPrecision(prec); err != nil {
			t.Fatal(err)
		}
		after, want := forward(m), forward(fresh)
		same := true
		for i := range after {
			if after[i] != want[i] {
				t.Fatalf("%v: logit %d = %v after the update, a fresh model with the same weights gives %v", prec, i, after[i], want[i])
			}
			same = same && after[i] == before[i]
		}
		if same {
			t.Fatalf("%v: the weight update changed no logit", prec)
		}
	}
}
