package dnn

import (
	"testing"

	"offloadnn/internal/tensor"
)

// firstConv digs the stem convolution out of a model for white-box
// assertions about calibration state.
func firstConv(t *testing.T, m *Model) *convLayer {
	t.Helper()
	for _, l := range m.Blocks[0].layers {
		if c, ok := l.(*convLayer); ok {
			return c
		}
	}
	t.Fatal("no conv layer in stem block")
	return nil
}

func TestCalibrateRecordsActivationScales(t *testing.T) {
	m := BuildResNet18(DefaultResNetConfig())
	c := firstConv(t, m)
	if c.actScale != 0 {
		t.Fatalf("fresh model actScale %v, want 0 (dynamic)", c.actScale)
	}
	x := CalibrationBatch(4, 3, 16, 16, 5)
	if err := Calibrate(m, x); err != nil {
		t.Fatal(err)
	}
	if c.actScale <= 0 {
		t.Fatalf("calibrated actScale %v, want > 0", c.actScale)
	}
	if c.calib {
		t.Fatal("calibration flag left set after Calibrate")
	}
	// A second pass over a smaller-range batch must not shrink the scale
	// (ranges max-merge).
	prev := c.actScale
	small := CalibrationBatch(1, 3, 16, 16, 5)
	for i, v := range small.Data() {
		small.Data()[i] = v * 1e-3
	}
	if err := Calibrate(m, small); err != nil {
		t.Fatal(err)
	}
	if c.actScale < prev {
		t.Fatalf("actScale shrank %v -> %v", prev, c.actScale)
	}
}

func TestTop1DeltaIdenticalModelsIsZero(t *testing.T) {
	m := BuildResNet18(DefaultResNetConfig())
	clone := BuildResNet18(DefaultResNetConfig())
	x := CalibrationBatch(6, 3, 16, 16, 9)
	d, err := Top1Delta(m, clone, x)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Fatalf("top-1 delta of identical models %v, want 0", d)
	}
}

func TestTop1DeltaDetectsDisagreement(t *testing.T) {
	cfg := DefaultResNetConfig()
	m := BuildResNet18(cfg)
	cfg.Seed = 99
	other := BuildResNet18(cfg)
	x := CalibrationBatch(8, 3, 16, 16, 9)
	d, err := Top1Delta(m, other, x)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 || d > 1 {
		t.Fatalf("independent models top-1 delta %v, want in (0,1]", d)
	}
}

// The calibration batch is a pure function of its arguments — gate
// verdicts must be reproducible across processes.
func TestCalibrationBatchDeterministic(t *testing.T) {
	a := CalibrationBatch(3, 3, 8, 8, 42)
	b := CalibrationBatch(3, 3, 8, 8, 42)
	for i := range a.Data() {
		if a.Data()[i] != b.Data()[i] {
			t.Fatalf("batch differs at %d", i)
		}
	}
	c := CalibrationBatch(3, 3, 8, 8, 43)
	same := true
	for i := range a.Data() {
		if a.Data()[i] != c.Data()[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced the same batch")
	}
}

// Sharding the batch across workers must not change quantized outputs:
// calibrated scales are static, and uncalibrated i8 falls back to
// per-image dynamic scales, so per-sample results are shard-invariant.
func TestForwardBatchDeterministicPerPrecision(t *testing.T) {
	x := CalibrationBatch(9, 3, 16, 16, 3) // odd batch: uneven shards
	for _, tc := range []struct {
		prec      tensor.Precision
		calibrate bool
	}{
		{tensor.F64, false},
		{tensor.F32, false},
		{tensor.I8, false},
		{tensor.I8, true},
	} {
		m := BuildResNet18(DefaultResNetConfig())
		if tc.calibrate {
			if err := Calibrate(m, x); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.SetPrecision(tc.prec); err != nil {
			t.Fatal(err)
		}
		prev := tensor.SetParallelism(1)
		want, err := m.Forward(x, false)
		if err != nil {
			tensor.SetParallelism(prev)
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3, 4} {
			tensor.SetParallelism(workers)
			got, err := m.ForwardBatch(x)
			if err != nil {
				t.Fatalf("%v workers=%d: %v", tc.prec, workers, err)
			}
			for i := range want.Data() {
				if want.Data()[i] != got.Data()[i] {
					t.Fatalf("%v (calibrated=%v) workers=%d: output %d differs",
						tc.prec, tc.calibrate, workers, i)
				}
			}
			tensor.Release(got)
		}
		tensor.SetParallelism(prev)
	}
}

// Steady-state inference must not allocate at any precision: all scratch
// comes from the freelists, prepared weights are cached, and the output
// is rented.
func TestForwardZeroAllocsPerPrecision(t *testing.T) {
	prev := tensor.SetParallelism(1)
	defer tensor.SetParallelism(prev)
	x := CalibrationBatch(1, 3, 16, 16, 7)
	for _, prec := range []tensor.Precision{tensor.F64, tensor.F32, tensor.I8} {
		m := BuildResNet18(DefaultResNetConfig())
		if err := m.SetPrecision(prec); err != nil {
			t.Fatal(err)
		}
		// Warm the freelists before measuring.
		for i := 0; i < 3; i++ {
			y, err := m.Forward(x, false)
			if err != nil {
				t.Fatal(err)
			}
			tensor.Release(y)
		}
		allocs := testing.AllocsPerRun(10, func() {
			y, err := m.Forward(x, false)
			if err != nil {
				t.Fatal(err)
			}
			tensor.Release(y)
		})
		if allocs > 0 {
			t.Errorf("%v: %v allocs/op in steady-state Forward, want 0", prec, allocs)
		}
	}
}

func TestBlockIDPrecision(t *testing.T) {
	for _, tc := range []struct {
		id   string
		base string
		prec tensor.Precision
		err  bool
	}{
		{"base/s1", "base/s1", tensor.F64, false},
		{"base/s1@f32", "base/s1", tensor.F32, false},
		{"ft/t3/s2/p50@i8", "ft/t3/s2/p50", tensor.I8, false},
		{"base/s1@f64", "base/s1", tensor.F64, false},
		{"base/s1@f16", "", tensor.F64, true},
	} {
		base, prec, err := BlockIDPrecision(tc.id)
		if tc.err {
			if err == nil {
				t.Fatalf("%q: want error", tc.id)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%q: %v", tc.id, err)
		}
		if base != tc.base || prec != tc.prec {
			t.Fatalf("%q -> (%q,%v), want (%q,%v)", tc.id, base, prec, tc.base, tc.prec)
		}
	}
}

// Quantized-path memory accounting: an i8 block must report one byte per
// parameter against the f64 baseline's four (satellite fix: MemoryBytes
// derives from block precision).
func TestMemoryBytesFollowsPrecision(t *testing.T) {
	m := BuildResNet18(DefaultResNetConfig())
	b := m.Blocks[1]
	f64Bytes := b.MemoryBytes()
	if err := b.SetPrecision(tensor.I8); err != nil {
		t.Fatal(err)
	}
	i8Bytes := b.MemoryBytes()
	if diff := f64Bytes - i8Bytes; diff != int64(b.ParamCount())*3 {
		t.Fatalf("i8 saves %d bytes, want 3 per param (%d)", diff, b.ParamCount()*3)
	}
	if err := b.SetPrecision(tensor.F32); err != nil {
		t.Fatal(err)
	}
	if b.MemoryBytes() != f64Bytes {
		t.Fatalf("f32 deployed bytes %d, want f64-equal %d (interchange stays f64)", b.MemoryBytes(), f64Bytes)
	}
}
