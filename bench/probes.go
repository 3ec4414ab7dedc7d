package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"offloadnn/internal/dnn"
	"offloadnn/internal/tensor"
)

// Micro-probes time public functions of one layer directly, on models and
// tensors assembled the way the deployment assembles them, while nothing
// else runs. They explain the traced numbers; they are not part of any
// end-to-end metric.

// probeBudget bounds one probe: repeat until it has run this long (and
// at least probeMinReps times), report the median.
const (
	probeBudget  = 80 * time.Millisecond
	probeMinReps = 7
)

// timeIt returns the median duration of fn in milliseconds.
func timeIt(fn func() error) (float64, error) {
	if err := fn(); err != nil { // first call warms pools and caches
		return 0, err
	}
	var durs []float64
	for start := time.Now(); len(durs) < probeMinReps || time.Since(start) < probeBudget; {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		durs = append(durs, ms(time.Since(t0)))
	}
	return median(durs), nil
}

// canonicalPath is the unpruned four-stage path the frames-* workloads
// deploy; the dnn.forward_* probes use it on every workload so the
// numbers compare across workloads.
var canonicalPath = []string{"base/s1", "base/s2", "base/s3", "base/s4"}

// pruneRatio reads the catalog convention exec.Real applies to block IDs:
// a "/pNN" suffix removes NN% of a stage's internal channels.
func pruneRatio(baseID string) float64 {
	i := strings.LastIndex(baseID, "/p")
	if i < 0 {
		return 0
	}
	n, err := strconv.Atoi(baseID[i+2:])
	if err != nil || n <= 0 || n >= 100 {
		return 0
	}
	return float64(n) / 100
}

// twinBlocks builds the stem, the stage blocks named by ids (stage =
// position, as exec.Real places them) and the classifier of a path at the
// given precision. Weights are seeded arbitrarily: only timing is read.
func twinBlocks(ids []string, prec tensor.Precision) (stem *dnn.Block, stages []*dnn.Block, cls *dnn.Block, err error) {
	stem = dnn.BuildStemBlock(dataModel)
	for i, id := range ids {
		base, _, err := dnn.BlockIDPrecision(id)
		if err != nil {
			return nil, nil, nil, err
		}
		b, err := dnn.BuildStageBlock(dataModel, id, min(i+1, 4), pruneRatio(base), int64(i+1))
		if err != nil {
			return nil, nil, nil, err
		}
		stages = append(stages, b)
	}
	cls = dnn.BuildClassifierBlock(dataModel, dnn.StageWidth(dataModel, len(ids)))
	for _, b := range append([]*dnn.Block{stem, cls}, stages...) {
		if err := b.SetPrecision(prec); err != nil {
			return nil, nil, nil, err
		}
	}
	return stem, stages, cls, nil
}

// twinModel assembles a whole-path twin, calibrated the way the install
// gate calibrates (int8 activation scales need it).
func twinModel(ids []string, prec tensor.Precision) (*dnn.Model, error) {
	stem, stages, cls, err := twinBlocks(ids, prec)
	if err != nil {
		return nil, err
	}
	m, err := dnn.AssemblePathModel("bench/twin", stem, stages, cls)
	if err != nil {
		return nil, err
	}
	if prec != tensor.F64 {
		if err := dnn.Calibrate(m, dnn.CalibrationBatch(8, frameC, frameH, frameW, 1)); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func randomTensor(shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	rng := rand.New(rand.NewSource(7))
	for i, d := 0, t.Data(); i < len(d); i++ {
		d[i] = rng.Float64() - 0.5
	}
	return t
}

// forwardMS times m.ForwardBatch on a batch of n frames (Forward is what
// ForwardBatch runs for n = 1).
func forwardMS(m *dnn.Model, shape [3]int, n int) (float64, error) {
	x := randomTensor(n, shape[0], shape[1], shape[2])
	return timeIt(func() error {
		y, err := m.ForwardBatch(x)
		if err != nil {
			return err
		}
		tensor.Release(y)
		return nil
	})
}

// forwardProbes caches twins and their forward times per (path, batch).
type forwardProbes struct {
	models map[string]*dnn.Model
	times  map[string]float64
}

func newForwardProbes() *forwardProbes {
	return &forwardProbes{models: make(map[string]*dnn.Model), times: make(map[string]float64)}
}

// forwardMS is the forward time of the path with signature sig, running
// at precision prec, on a batch of n.
func (p *forwardProbes) forwardMS(sig, prec string, n int) (float64, error) {
	key := sig + "#" + strconv.Itoa(n)
	if v, ok := p.times[key]; ok {
		return v, nil
	}
	m := p.models[sig]
	if m == nil {
		pr, err := tensor.ParsePrecision(prec)
		if err != nil {
			return 0, err
		}
		if m, err = twinModel(splitSig(sig), pr); err != nil {
			return 0, err
		}
		p.models[sig] = m
	}
	v, err := forwardMS(m, [3]int{frameC, frameH, frameW}, n)
	if err != nil {
		return 0, err
	}
	p.times[key] = v
	return v, nil
}

// probeModel reports dnn.forward_b{1,8}_ms at the three precisions on the
// canonical path.
func probeModel(rc *runCtx) error {
	for _, prec := range []tensor.Precision{tensor.F64, tensor.F32, tensor.I8} {
		m, err := twinModel(canonicalPath, prec)
		if err != nil {
			return err
		}
		for _, n := range []int{1, 8} {
			v, err := forwardMS(m, [3]int{frameC, frameH, frameW}, n)
			if err != nil {
				return err
			}
			rc.set(fmt.Sprintf("dnn.forward_b%d_ms.%s", n, prec), v)
		}
	}
	return nil
}

// probeKernels times the convolution every residual unit of stage 3 runs
// (64→64 channels, 3×3, on the 2×2 map a 16×16 frame has shrunk to) on a
// full batch of 8, and the GEMM that convolution lowers to; flops and
// bytes are computed from the shapes, not measured.
func probeKernels(rc *runCtx) error {
	const batch, ch, side, k = 8, 64, 2, 3
	p := tensor.Conv2DParams{InChannels: ch, OutChannels: ch, Kernel: k, Stride: 1, Padding: 1}
	x := randomTensor(batch, ch, side, side)
	w := randomTensor(ch, ch, k, k)
	dst := tensor.New(batch, ch, side, side)
	w32, err := tensor.PrepareConvWeightsF32(w, p)
	if err != nil {
		return err
	}
	w8, err := tensor.PrepareConvWeightsI8(w, p)
	if err != nil {
		return err
	}
	convs := map[string]func() error{
		"f64": func() error { return tensor.Conv2DInto(dst, x, w, nil, p) },
		"f32": func() error { return tensor.Conv2DIntoF32(dst, x, w32, nil, p) },
		// A static activation scale, as a calibrated layer has.
		"i8": func() error { return tensor.Conv2DIntoI8(dst, x, w8, nil, p, 0.5/127) },
	}
	for prec, fn := range convs {
		v, err := timeIt(fn)
		if err != nil {
			return err
		}
		rc.set("tensor.conv_ms."+prec, v)
	}
	outElems := batch * ch * side * side
	rc.set("tensor.conv_flops", float64(2*outElems*ch*k*k))
	rc.set("tensor.conv_bytes", float64(8*(x.Len()+w.Len()+outElems)))

	// The im2col product: (Cout × Cin·k·k) · (Cin·k·k × batch·H·W).
	m, kk, n := ch, ch*k*k, batch*side*side
	a, b, c := randomTensor(m, kk), randomTensor(kk, n), tensor.New(m, n)
	a32, b32, c32 := make([]float32, m*kk), make([]float32, kk*n), make([]float32, m*n)
	a8, b8, c8 := make([]int8, m*kk), make([]int8, kk*n), make([]int32, m*n)
	for i, v := range a.Data() {
		a32[i], a8[i] = float32(v), int8(v*127)
	}
	for i, v := range b.Data() {
		b32[i], b8[i] = float32(v), int8(v*127)
	}
	gemms := map[string]func() error{
		"f64": func() error { return tensor.MatMulInto(c, a, b) },
		"f32": func() error { tensor.GemmF32(c32, a32, b32, m, kk, n); return nil },
		"i8":  func() error { tensor.GemmI8(c8, a8, b8, m, kk, n); return nil },
	}
	for prec, fn := range gemms {
		v, err := timeIt(fn)
		if err != nil {
			return err
		}
		rc.set("tensor.gemm_ms."+prec, v)
	}
	return nil
}

// probeSegments times the two halves of a path cut after `cut` stages —
// head (stem + first stages) and tail (remaining stages + classifier) —
// and the activation codec at that cut's boundary shape.
func probeSegments(rc *runCtx, ids []string, cut int) error {
	stem, stages, cls, err := twinBlocks(ids, tensor.F64)
	if err != nil {
		return err
	}
	head, err := dnn.AssembleSegmentModel("bench/head", stem, stages[:cut], nil)
	if err != nil {
		return err
	}
	tailM, err := dnn.AssembleSegmentModel("bench/tail", nil, stages[cut:], cls)
	if err != nil {
		return err
	}
	in := [3]int{frameC, frameH, frameW}
	boundary := dnn.SegmentBoundaryShape(dataModel, in, cut)
	v, err := forwardMS(head, in, 1)
	if err != nil {
		return err
	}
	rc.set("dnn.segment_forward_ms.head", v)
	if v, err = forwardMS(tailM, boundary, 1); err != nil {
		return err
	}
	rc.set("dnn.segment_forward_ms.tail", v)

	act := randomTensor(boundary[0], boundary[1], boundary[2]).Data()
	man := dnn.ActivationManifest{
		Task: "cam-split", Path: "split/full", From: cut, Shape: boundary, RemainingMS: 400, BudgetMS: 500,
		Hops: []dnn.ActivationHop{{Node: "a", LatencyMS: 3, ActivationBytes: len(act) * 8}},
	}
	var buf bytes.Buffer
	if v, err = timeIt(func() error {
		buf.Reset()
		return dnn.EncodeActivation(&buf, man, act)
	}); err != nil {
		return err
	}
	rc.set("dnn.encode_activation_ms", v)
	rc.set("dnn.activation_bytes", float64(buf.Len()))
	env := buf.Bytes()
	if v, err = timeIt(func() error {
		_, _, err := dnn.DecodeActivation(bytes.NewReader(env))
		return err
	}); err != nil {
		return err
	}
	rc.set("dnn.decode_activation_ms", v)
	return nil
}
