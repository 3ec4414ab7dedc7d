package train

import (
	"fmt"
	"math"
	"testing"

	"offloadnn/internal/dataset"
	"offloadnn/internal/dnn"
	"offloadnn/internal/tensor"
)

func smallSplit(t *testing.T, classes, perTrain, perTest int, seed int64) *dataset.Split {
	t.Helper()
	g := dataset.Generator{ImageSize: 8, Noise: 0.15}
	cats := dataset.BaseCategories()[:classes]
	return dataset.Generate(g, cats, perTrain, perTest, seed)
}

func smallModel(classes int, seed int64) *dnn.Model {
	return dnn.BuildResNet18(dnn.ResNetConfig{
		InChannels: 3, NumClasses: classes, BaseWidth: 4,
		StageBlocks: [4]int{1, 1, 1, 1}, Seed: seed,
	})
}

func TestTrainerLearnsSyntheticClasses(t *testing.T) {
	sp := smallSplit(t, 3, 12, 6, 1)
	m := smallModel(3, 2)
	tr, err := NewTrainer(m, NewAdam(0.01, 1e-4), CosineAnnealing{Base: 0.01, Min: 1e-4, Total: 12}, 12, 3)
	if err != nil {
		t.Fatal(err)
	}
	before, err := tr.Evaluate(sp)
	if err != nil {
		t.Fatal(err)
	}
	var lastLoss float64
	for e := 0; e < 12; e++ {
		lastLoss, err = tr.TrainEpoch(sp)
		if err != nil {
			t.Fatal(err)
		}
	}
	after, err := tr.Evaluate(sp)
	if err != nil {
		t.Fatal(err)
	}
	if after <= before && after < 0.6 {
		t.Fatalf("training did not improve accuracy: before %v, after %v (loss %v)", before, after, lastLoss)
	}
	if tr.Epoch() != 12 {
		t.Fatalf("epoch counter = %d, want 12", tr.Epoch())
	}
}

func TestFrozenBackboneTrainsFasterPerEpoch(t *testing.T) {
	// Frozen-backbone fine-tuning must update fewer parameters. This is
	// the mechanism behind CONFIG B/C's cheap training; verify parameters
	// of frozen stages do not move.
	sp := smallSplit(t, 2, 8, 4, 4)
	m := smallModel(2, 5)
	all := m.TrainableParams()
	for _, b := range m.Blocks {
		b.Frozen = b.Stage <= 3
	}
	trainable := make(map[*tensor.Tensor]bool)
	for _, p := range m.TrainableParams() {
		trainable[p] = true
	}
	var frozen []*tensor.Tensor
	for _, p := range all {
		if !trainable[p] {
			frozen = append(frozen, p)
		}
	}
	if len(frozen) == 0 || len(trainable) == 0 {
		t.Fatalf("%d frozen, %d trainable parameters", len(frozen), len(trainable))
	}
	snapshot := make([]float64, 0)
	for _, p := range frozen {
		snapshot = append(snapshot, p.Data()...)
	}
	tr, err := NewTrainer(m, newSGD(0.01, 0.9, 0), CosineAnnealing{Base: 0.01, Total: 4}, 8, 6)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 2; e++ {
		if _, err := tr.TrainEpoch(sp); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	for _, p := range frozen {
		for _, v := range p.Data() {
			if v != snapshot[i] {
				t.Fatal("frozen stage parameters moved during training")
			}
			i++
		}
	}
}

func TestSGDMomentumState(t *testing.T) {
	o := newSGD(0.1, 0.9, 0)
	if o.StateBytesPerParam() != 8 {
		t.Fatalf("momentum SGD state bytes = %d, want 8", o.StateBytesPerParam())
	}
	o2 := newSGD(0.1, 0, 0)
	if o2.StateBytesPerParam() != 0 {
		t.Fatalf("plain SGD state bytes = %d, want 0", o2.StateBytesPerParam())
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize f(x) = (x-3)^2 with Adam; gradient = 2(x-3).
	x := mustTensor(t, []float64{0}, 1)
	g := mustTensor(t, []float64{0}, 1)
	o := NewAdam(0.1, 0)
	for i := 0; i < 500; i++ {
		g.Data()[0] = 2 * (x.Data()[0] - 3)
		if err := o.step(paramList(x), paramList(g)); err != nil {
			t.Fatal(err)
		}
	}
	if math.Abs(x.Data()[0]-3) > 0.05 {
		t.Fatalf("Adam converged to %v, want 3", x.Data()[0])
	}
}

func TestCosineAnnealingEndpoints(t *testing.T) {
	s := CosineAnnealing{Base: 0.2, Min: 0.001, Total: 100}
	if s.lr(0) != 0.2 {
		t.Fatalf("LR(0) = %v, want 0.2", s.lr(0))
	}
	if math.Abs(s.lr(100)-0.001) > 1e-12 {
		t.Fatalf("LR(100) = %v, want 0.001", s.lr(100))
	}
	mid := s.lr(50)
	if mid <= 0.001 || mid >= 0.2 {
		t.Fatalf("LR(50) = %v, want strictly between", mid)
	}
	// Monotone decreasing.
	prev := s.lr(0)
	for e := 1; e <= 100; e++ {
		cur := s.lr(e)
		if cur > prev+1e-12 {
			t.Fatalf("LR increased at epoch %d: %v > %v", e, cur, prev)
		}
		prev = cur
	}
	// Clamped past the horizon.
	if s.lr(200) != s.lr(100) {
		t.Fatal("LR should clamp past Total")
	}
}

func TestNewTrainerValidation(t *testing.T) {
	m := smallModel(2, 7)
	if _, err := NewTrainer(m, NewAdam(0.01, 0), CosineAnnealing{}, 0, 1); err == nil {
		t.Fatal("batch size 0 should be rejected")
	}
	if _, err := NewTrainer(nil, NewAdam(0.01, 0), CosineAnnealing{}, 8, 1); err == nil {
		t.Fatal("nil model should be rejected")
	}
}

func TestEvaluateClassMeasuresSingleClass(t *testing.T) {
	sp := smallSplit(t, 3, 4, 4, 8)
	m := smallModel(3, 9)
	acc, err := EvaluateClass(m, sp, 1)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0 || acc > 1 {
		t.Fatalf("class accuracy %v out of [0,1]", acc)
	}
	if _, err := EvaluateClass(m, sp, 99); err == nil {
		t.Fatal("missing class should error")
	}
}

func TestMemoryModelRanksConfigsLikePaper(t *testing.T) {
	stats := dnn.ResNet18Stats(64, 224, 61, [4]float64{})
	mm := DefaultMemoryModel()
	peak := map[string]float64{}
	for _, name := range []string{"A", "B", "C", "D", "E"} {
		cfg, err := dnn.ConfigByName(name)
		if err != nil {
			t.Fatal(err)
		}
		peak[name] = mm.PeakMiB(stats, cfg)
	}
	// Fig. 2(right): A highest; B and C markedly lower (≈1.8× less);
	// D and E in between, increasing as fewer blocks are shared.
	if !(peak["A"] > peak["E"] && peak["E"] > peak["D"] && peak["D"] > peak["C"] && peak["C"] > peak["B"]) {
		t.Fatalf("memory ordering wrong: %v", peak)
	}
	ratio := peak["A"] / peak["B"]
	if ratio < 1.4 || ratio > 2.6 {
		t.Fatalf("A/B memory ratio %v outside the ~1.8x band", ratio)
	}
}

func TestMemoryModelFullScaleMagnitude(t *testing.T) {
	// Fig. 2(right) reports 2000–5000 MiB; the calibrated model should
	// land in the same order of magnitude for CONFIG A.
	stats := dnn.ResNet18Stats(64, 224, 61, [4]float64{})
	mm := DefaultMemoryModel()
	cfgA, err := dnn.ConfigByName("A")
	if err != nil {
		t.Fatal(err)
	}
	mib := mm.PeakMiB(stats, cfgA)
	if mib < 1000 || mib > 20000 {
		t.Fatalf("CONFIG A peak %v MiB implausible", mib)
	}
}

func TestPaperConvergenceMatchesFig2(t *testing.T) {
	a, err := PaperConvergence("A")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := PaperConvergence("B")
	c, _ := PaperConvergence("C")
	d, _ := PaperConvergence("D")
	e, _ := PaperConvergence("E")

	// CONFIG A needs >200 epochs to 80%; B and C converge much faster.
	if ea := a.EpochsToReach(80, 400); ea <= 200 {
		t.Fatalf("CONFIG A reaches 80%% at epoch %d, want >200", ea)
	}
	eb := b.EpochsToReach(80, 400)
	ec := c.EpochsToReach(80, 400)
	ed := d.EpochsToReach(80, 400)
	ee := e.EpochsToReach(80, 400)
	if eb < 0 || eb > 100 {
		t.Fatalf("CONFIG B reaches 80%% at epoch %d, want fast", eb)
	}
	if ec < 0 || ec > 100 {
		t.Fatalf("CONFIG C reaches 80%% at epoch %d, want fast", ec)
	}
	if !(ec < ed && ed < ee) {
		t.Fatalf("C (%d) should beat D (%d) should beat E (%d) to 80%%", ec, ed, ee)
	}
	// After 250+ epochs CONFIG A overtakes the shared configs.
	if a.Accuracy(260) <= b.Accuracy(260) || a.Accuracy(260) <= c.Accuracy(260) {
		t.Fatalf("CONFIG A at 260 epochs (%v) should exceed B (%v) and C (%v)",
			a.Accuracy(260), b.Accuracy(260), c.Accuracy(260))
	}
	if _, err := PaperConvergence("Z"); err == nil {
		t.Fatal("unknown config should error")
	}
}

func TestPaperClassAccuracyOrdering(t *testing.T) {
	// Pruning always costs accuracy, and CONFIG B-pruned retains the most.
	for _, name := range []string{"A", "B", "C", "D", "E"} {
		full, err := PaperClassAccuracy(name)
		if err != nil {
			t.Fatal(err)
		}
		pruned, err := PaperClassAccuracy(name + "-pruned")
		if err != nil {
			t.Fatal(err)
		}
		if pruned >= full {
			t.Fatalf("CONFIG %s pruned accuracy %v >= full %v", name, pruned, full)
		}
	}
	b, _ := PaperClassAccuracy("B-pruned")
	for _, name := range []string{"A-pruned", "C-pruned", "D-pruned", "E-pruned"} {
		v, _ := PaperClassAccuracy(name)
		if v >= b {
			t.Fatalf("B-pruned (%v) should retain the most accuracy, but %s = %v", b, name, v)
		}
	}
	if _, err := PaperClassAccuracy("Q"); err == nil {
		t.Fatal("unknown config should error")
	}
}

func mustTensor(t *testing.T, data []float64, shape ...int) *tensor.Tensor {
	t.Helper()
	tt := tensor.New(shape...)
	if len(data) != tt.Len() {
		t.Fatalf("%d values for shape %v", len(data), shape)
	}
	copy(tt.Data(), data)
	return tt
}

func paramList(ts ...*tensor.Tensor) []*tensor.Tensor { return ts }

func TestMeasuredPeakMatchesAnalyticOrdering(t *testing.T) {
	// The instantiated-model memory accounting must rank Table-I configs
	// exactly like the analytic ResNet18Stats model.
	base := dnn.BuildResNet18(dnn.DefaultResNetConfig())
	stats := dnn.ResNet18Stats(8, 16, 8, [4]float64{})
	mm := DefaultMemoryModel()
	mm.batchSize = 16

	acts := func(stage int) (int64, int64) {
		b := stats.Block(stage)
		return int64(b.ActivationElems), int64(b.OutputElems)
	}

	var prevMeasured int64 = -1
	var prevAnalytic int64 = -1
	// Order B, C, D, E, A: both accountings must be non-decreasing.
	for _, name := range []string{"B", "C", "D", "E", "A"} {
		cfg, err := dnn.ConfigByName(name)
		if err != nil {
			t.Fatal(err)
		}
		m, err := dnn.BuildConfigModel(base, cfg, "mem-"+name, 9, 77)
		if err != nil {
			t.Fatal(err)
		}
		measured := mm.MeasuredPeakBytes(m, acts)
		analytic := mm.peakBytes(stats, cfg)
		if prevMeasured >= 0 && measured < prevMeasured {
			t.Fatalf("measured peak for %s (%d) below previous config (%d)", name, measured, prevMeasured)
		}
		if prevAnalytic >= 0 && analytic < prevAnalytic {
			t.Fatalf("analytic peak for %s (%d) below previous config (%d)", name, analytic, prevAnalytic)
		}
		prevMeasured, prevAnalytic = measured, analytic
	}
}

func TestOptimizerStepValidation(t *testing.T) {
	p := mustTensor(t, []float64{1}, 1)
	g2 := mustTensor(t, []float64{1, 2}, 2)
	if err := newSGD(0.1, 0.9, 0).step(paramList(p), paramList(g2)); err == nil {
		t.Fatal("mismatched param/grad shapes should error")
	}
	if err := NewAdam(0.1, 0).step(paramList(p), nil); err == nil {
		t.Fatal("mismatched list lengths should error")
	}
}

func TestSGDWeightDecayShrinksWeights(t *testing.T) {
	p := mustTensor(t, []float64{10}, 1)
	g := mustTensor(t, []float64{0}, 1)
	o := newSGD(0.1, 0, 0.5) // pure decay: w -= lr*wd*w
	if err := o.step(paramList(p), paramList(g)); err != nil {
		t.Fatal(err)
	}
	if p.Data()[0] >= 10 {
		t.Fatalf("weight decay did not shrink weight: %v", p.Data()[0])
	}
}

// sgd is stochastic gradient descent with optional momentum and weight
// decay.
type sgd struct {
	LR          float64
	Momentum    float64
	WeightDecay float64

	velocity [][]float64
}

// newSGD constructs an SGD optimizer.
func newSGD(lr, momentum, weightDecay float64) *sgd {
	return &sgd{LR: lr, Momentum: momentum, WeightDecay: weightDecay}
}

// setLR implements Optimizer.
func (o *sgd) setLR(lr float64) { o.LR = lr }

// StateBytesPerParam reports the velocity footprint per parameter.
func (o *sgd) StateBytesPerParam() int {
	if o.Momentum != 0 {
		return 8
	}
	return 0
}

// step implements Optimizer.
func (o *sgd) step(params, grads []*tensor.Tensor) error {
	if len(params) != len(grads) {
		return fmt.Errorf("%w: %d params vs %d grads", errConfig, len(params), len(grads))
	}
	if o.Momentum != 0 && len(o.velocity) != len(params) {
		o.velocity = make([][]float64, len(params))
		for i, p := range params {
			o.velocity[i] = make([]float64, p.Len())
		}
	}
	for i, p := range params {
		g := grads[i]
		if p.Len() != g.Len() {
			return fmt.Errorf("%w: param %d has %d elems, grad %d", errConfig, i, p.Len(), g.Len())
		}
		pd, gd := p.Data(), g.Data()
		if o.Momentum != 0 {
			v := o.velocity[i]
			for j := range pd {
				gj := gd[j] + o.WeightDecay*pd[j]
				v[j] = o.Momentum*v[j] + gj
				pd[j] -= o.LR * v[j]
			}
		} else {
			for j := range pd {
				pd[j] -= o.LR * (gd[j] + o.WeightDecay*pd[j])
			}
		}
	}
	return nil
}

// Epoch returns the number of completed epochs.
func (t *Trainer) Epoch() int { return t.epoch }

// Evaluate returns top-1 accuracy on the test set.
func (t *Trainer) Evaluate(sp *dataset.Split) (float64, error) {
	return EvaluateModel(t.model, sp)
}

// MeasuredPeakBytes estimates the peak footprint of an *instantiated*
// model the same way, using real per-block parameter counts and treating
// frozen blocks as shared. The tests use it to confirm that the analytic
// model and the instantiated models rank configurations identically.
func (m MemoryModel) MeasuredPeakBytes(model *dnn.Model, activationElems func(stage int) (cached, output int64)) int64 {
	bpv := int64(m.bytesPerValue)
	batch := int64(m.batchSize)
	total := m.frameworkOverheadBytes

	lowest := -1
	for _, b := range model.Blocks {
		total += int64(b.ParamCount()) * bpv
		if !b.Frozen && lowest < 0 {
			lowest = b.Stage
		}
	}
	if lowest < 0 {
		lowest = 6
	}
	var maxAct int64
	for _, b := range model.Blocks {
		cached, out := activationElems(b.Stage)
		if !b.Frozen {
			total += int64(b.ParamCount()) * (bpv + int64(m.optimizerStateBytesPerParam))
		}
		if b.Stage >= lowest {
			total += cached * batch * bpv
		} else {
			total += int64(m.frozenActivationFraction * float64(cached*batch*bpv))
		}
		if out > maxAct {
			maxAct = out
		}
	}
	total += 2 * maxAct * batch * bpv
	return total
}
