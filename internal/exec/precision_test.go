package exec_test

import (
	"context"
	"testing"
	"time"

	"offloadnn/internal/exec"
	"offloadnn/internal/tensor"
)

// A "@i8" path variant must instantiate its own block (keyed by the
// suffixed ID) sharing the base block's master weights, and report its
// precision through Stats.
func TestQuantizedVariantSharesBaseWeights(t *testing.T) {
	r := newReal(t, exec.RealConfig{})
	plan := planFor(1, map[string][]string{
		"t1": {"base/s1"},
		"t2": {"base/s1@i8"},
	})
	if err := r.Install(plan); err != nil {
		t.Fatal(err)
	}
	f64 := r.SharedBlock("base/s1")
	i8 := r.SharedBlock("base/s1@i8")
	if f64 == nil || i8 == nil {
		t.Fatalf("missing instances: f64=%v i8=%v", f64 != nil, i8 != nil)
	}
	if f64 == i8 {
		t.Fatal("precision variants must be distinct instances")
	}
	if got := i8.Precision(); got != tensor.I8 {
		t.Fatalf("variant precision %v, want i8", got)
	}
	if got := f64.Precision(); got != tensor.F64 {
		t.Fatalf("base precision %v, want f64", got)
	}
	// Same base ID → same seed → identical float64 master weights.
	fp, ip := f64.Params(), i8.Params()
	if len(fp) != len(ip) {
		t.Fatalf("param lists differ: %d vs %d", len(fp), len(ip))
	}
	for i := range fp {
		for j := range fp[i].Data() {
			if fp[i].Data()[j] != ip[i].Data()[j] {
				t.Fatalf("master weights differ at param %d[%d]", i, j)
			}
		}
	}
	st := r.Stats()
	if got := st.PathPrecisions["base/s1@i8"]; got != "i8" {
		t.Fatalf("path precision %q, want i8 (fallbacks=%d)", got, st.QuantFallbacks)
	}
	if got := st.PathPrecisions["base/s1"]; got != "f64" {
		t.Fatalf("base path precision %q, want f64", got)
	}
}

// With the gate enabled the deployed precision and the fallback counter
// must stay consistent: a path reported at i8 was never demoted, one at
// f32 was demoted once, one at f64 twice.
func TestQuantGateConsistentWithFallbackCounter(t *testing.T) {
	r := newReal(t, exec.RealConfig{})
	plan := planFor(1, map[string][]string{
		"t1": {"base/s1@i8", "base/s2@i8"},
	})
	if err := r.Install(plan); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	prec := st.PathPrecisions["base/s1@i8|base/s2@i8"]
	wantFallbacks := map[string]int64{"i8": 0, "f32": 1, "f64": 2}[prec]
	if st.QuantFallbacks != wantFallbacks {
		t.Fatalf("precision %q with %d fallbacks, want %d", prec, st.QuantFallbacks, wantFallbacks)
	}
	// The gate's f64 twin instances must not leak into the library: only
	// the deployed path's blocks (plus its stem and classifier) survive.
	for key, refs := range r.BlockRefs() {
		if refs <= 0 {
			t.Fatalf("unreferenced library instance %q survived install", key)
		}
	}
	// Serving still works at whatever precision the gate settled on.
	out, err := r.Infer(context.Background(), exec.Request{TaskID: "t1", Input: input(r)})
	if err != nil {
		t.Fatal(err)
	}
	if out.Argmax < 0 || len(out.Logits) == 0 {
		t.Fatalf("bad output %+v", out)
	}
}

// An i8 path that passes the gate must agree with the f64 path built
// from the same base blocks on the class prediction — the parity the
// gate certifies on its calibration batch, checked here on a real
// offload input.
func TestQuantizedArgmaxParityWithF64(t *testing.T) {
	r := newReal(t, exec.RealConfig{})
	plan := planFor(1, map[string][]string{
		"tq": {"base/s1@i8"},
		"tf": {"base/s1"},
	})
	if err := r.Install(plan); err != nil {
		t.Fatal(err)
	}
	if r.Stats().PathPrecisions["base/s1@i8"] != "i8" {
		t.Skip("gate demoted the quantized path on this weight draw")
	}
	in := input(r)
	qo, err := r.Infer(context.Background(), exec.Request{TaskID: "tq", Input: in})
	if err != nil {
		t.Fatal(err)
	}
	fo, err := r.Infer(context.Background(), exec.Request{TaskID: "tf", Input: in})
	if err != nil {
		t.Fatal(err)
	}
	if qo.Argmax != fo.Argmax {
		t.Fatalf("argmax disagrees: i8=%d f64=%d (logits %v vs %v)", qo.Argmax, fo.Argmax, qo.Logits, fo.Logits)
	}
}

// Warm swaps must preserve quantized instances like any other block: the
// same pointer serves consecutive epochs, with no weight copying in
// between.
func TestQuantizedWarmSwapKeepsInstance(t *testing.T) {
	r := newReal(t, exec.RealConfig{})
	if err := r.Install(planFor(1, map[string][]string{"t1": {"base/s1@i8"}})); err != nil {
		t.Fatal(err)
	}
	first := r.SharedBlock("base/s1@i8")
	if err := r.Install(planFor(2, map[string][]string{
		"t1": {"base/s1@i8"},
		"t2": {"base/s1@i8", "ft/t2/s2@i8"},
	})); err != nil {
		t.Fatal(err)
	}
	if r.SharedBlock("base/s1@i8") != first {
		t.Fatal("epoch swap rebuilt a retained quantized block")
	}
	// Both paths share the one instance.
	if refs := r.BlockRefs()["base/s1@i8"]; refs != 2 {
		t.Fatalf("refs %d, want 2", refs)
	}
}

func TestQuantizedBatchingDeterministic(t *testing.T) {
	r := newReal(t, exec.RealConfig{BatchSize: 4, BatchWindow: 20 * time.Millisecond})
	if err := r.Install(planFor(1, map[string][]string{"t1": {"base/s1@i8"}})); err != nil {
		t.Fatal(err)
	}
	in := input(r)
	solo, err := r.Infer(context.Background(), exec.Request{TaskID: "t1", Input: in})
	if err != nil {
		t.Fatal(err)
	}
	// A batched run of the same input must produce identical logits for
	// every member (per-image dynamic quantization is batch-invariant).
	type res struct {
		out exec.Output
		err error
	}
	results := make(chan res, 4)
	for i := 0; i < 4; i++ {
		go func() {
			out, err := r.Infer(context.Background(), exec.Request{TaskID: "t1", Input: in})
			results <- res{out, err}
		}()
	}
	for i := 0; i < 4; i++ {
		got := <-results
		if got.err != nil {
			t.Fatal(got.err)
		}
		for j := range solo.Logits {
			if got.out.Logits[j] != solo.Logits[j] {
				t.Fatalf("batched logit %d differs from solo run", j)
			}
		}
	}
}
