package dnn

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"offloadnn/internal/tensor"
)

func testInput(n, c, hw int, seed int64) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	x := tensor.New(n, c, hw, hw)
	for i := range x.Data() {
		x.Data()[i] = rng.NormFloat64()
	}
	return x
}

func TestResNet18ForwardShape(t *testing.T) {
	cfg := DefaultResNetConfig()
	m := BuildResNet18(cfg)
	x := testInput(2, 3, 16, 1)
	y, err := m.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	if y.Rank() != 2 || y.Dim(0) != 2 || y.Dim(1) != cfg.NumClasses {
		t.Fatalf("output shape %v, want [2 %d]", y.Shape(), cfg.NumClasses)
	}
}

func TestResNet18HasSixBlocks(t *testing.T) {
	m := BuildResNet18(DefaultResNetConfig())
	if len(m.Blocks) != 6 {
		t.Fatalf("got %d blocks, want 6 (stem + 4 stages + classifier)", len(m.Blocks))
	}
	wantStages := []int{0, 1, 2, 3, 4, 5}
	for i, b := range m.Blocks {
		if b.Stage != wantStages[i] {
			t.Fatalf("block %d stage %d, want %d", i, b.Stage, wantStages[i])
		}
	}
}

func TestResNet18BackwardReducesLoss(t *testing.T) {
	// One SGD step on a fixed batch must reduce the training loss — a
	// smoke test that gradients flow end to end with the right sign.
	m := BuildResNet18(ResNetConfig{
		InChannels: 3, NumClasses: 4, BaseWidth: 4, StageBlocks: [4]int{1, 1, 1, 1}, Seed: 3,
	})
	x := testInput(4, 3, 8, 4)
	labels := []int{0, 1, 2, 3}

	loss := func() float64 {
		y, err := m.Forward(x, true)
		if err != nil {
			t.Fatal(err)
		}
		ce, err := tensor.CrossEntropy(y, labels)
		if err != nil {
			t.Fatal(err)
		}
		return ce.Loss
	}

	before := loss()
	y, err := m.Forward(x, true)
	if err != nil {
		t.Fatal(err)
	}
	ce, err := tensor.CrossEntropy(y, labels)
	if err != nil {
		t.Fatal(err)
	}
	m.ZeroGrads()
	if _, err := m.Backward(ce.Backward()); err != nil {
		t.Fatal(err)
	}
	params := m.TrainableParams()
	grads := m.TrainableGrads()
	const lr = 0.005
	for i := range params {
		p, g := params[i].Data(), grads[i].Data()
		for j := range p {
			p[j] -= lr * g[j]
		}
	}
	after := loss()
	if after >= before {
		t.Fatalf("loss did not decrease: before %v, after %v", before, after)
	}
}

func TestFreezeStagesExcludesParams(t *testing.T) {
	m := BuildResNet18(DefaultResNetConfig())
	total := m.ParamCount()
	m.FreezeStages(0, 1, 2, 3, 4)
	trainable := m.TrainableParamCount()
	classifier := m.blockByStage(5).ParamCount()
	if trainable != classifier {
		t.Fatalf("trainable %d, want classifier-only %d", trainable, classifier)
	}
	if trainable >= total {
		t.Fatalf("freezing did not reduce trainable params (%d vs %d)", trainable, total)
	}
}

func TestBackwardStopsAtFrozenBackbone(t *testing.T) {
	// With all stages up to 4 frozen, Backward should stop early and the
	// frozen blocks must accumulate zero gradients.
	m := BuildResNet18(ResNetConfig{
		InChannels: 3, NumClasses: 4, BaseWidth: 4, StageBlocks: [4]int{1, 1, 1, 1}, Seed: 5,
	})
	m.FreezeStages(0, 1, 2, 3, 4)
	x := testInput(2, 3, 8, 6)
	y, err := m.Forward(x, true)
	if err != nil {
		t.Fatal(err)
	}
	ce, err := tensor.CrossEntropy(y, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	m.ZeroGrads()
	if _, err := m.Backward(ce.Backward()); err != nil {
		t.Fatal(err)
	}
	for stage := 0; stage <= 4; stage++ {
		for _, g := range m.blockByStage(stage).grads() {
			if maxAbs(g) != 0 {
				t.Fatalf("frozen stage %d accumulated gradient %v", stage, maxAbs(g))
			}
		}
	}
	// The classifier must have received gradient.
	got := 0.0
	for _, g := range m.blockByStage(5).grads() {
		got += maxAbs(g)
	}
	if got == 0 {
		t.Fatal("classifier received no gradient")
	}
}

func TestParamCountScalesWithWidth(t *testing.T) {
	small := BuildResNet18(ResNetConfig{InChannels: 3, NumClasses: 4, BaseWidth: 4, StageBlocks: [4]int{2, 2, 2, 2}, Seed: 1})
	big := BuildResNet18(ResNetConfig{InChannels: 3, NumClasses: 4, BaseWidth: 8, StageBlocks: [4]int{2, 2, 2, 2}, Seed: 1})
	if big.ParamCount() <= 3*small.ParamCount() {
		t.Fatalf("doubling width should ~quadruple params: %d vs %d", big.ParamCount(), small.ParamCount())
	}
}

func TestFullScaleResNet18ParamCount(t *testing.T) {
	// At full width the builder should land in the ~11M-parameter range
	// of the real ResNet-18 (exact value differs: 3×3 stem, no 7×7).
	m := BuildResNet18(ResNetConfig{
		InChannels: 3, NumClasses: 1000, BaseWidth: 64, StageBlocks: [4]int{2, 2, 2, 2}, Seed: 1,
	})
	pc := m.ParamCount()
	if pc < 10_000_000 || pc > 13_000_000 {
		t.Fatalf("full-scale param count %d outside ResNet-18 range [10M,13M]", pc)
	}
}

func TestPruneBasicBlockPreservesInterface(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	src := newBasicBlock("b", 4, 8, 8, 2, rng)
	p, err := pruneBasicBlock(src, 0.75, rng)
	if err != nil {
		t.Fatal(err)
	}
	if p.MidChannels() != 2 {
		t.Fatalf("pruned mid = %d, want 2", p.MidChannels())
	}
	x := testInput(1, 4, 8, 8)
	ySrc, err := src.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	yP, err := p.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	if !ySrc.SameShape(yP) {
		t.Fatalf("pruned output shape %v differs from original %v", yP.Shape(), ySrc.Shape())
	}
}

func TestPruneBasicBlockKeepsLargestChannels(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	src := newBasicBlock("b", 2, 4, 4, 1, rng)
	// Make channel 2's filter dominant and channel 0 second.
	w := src.Conv1.W.Data()
	per := 2 * 3 * 3
	for i := range w {
		w[i] = 0.001
	}
	for i := 2 * per; i < 3*per; i++ {
		w[i] = 10
	}
	for i := 0; i < per; i++ {
		w[i] = 5
	}
	p, err := pruneBasicBlock(src, 0.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Kept channels are 0 and 2, laid out in ascending order.
	got := p.Conv1.W.Data()
	if got[0] != 5 {
		t.Fatalf("first kept filter value %v, want 5 (channel 0)", got[0])
	}
	if got[per] != 10 {
		t.Fatalf("second kept filter value %v, want 10 (channel 2)", got[per])
	}
}

func TestPruneBlockReducesParamsAndMemory(t *testing.T) {
	m := BuildResNet18(DefaultResNetConfig())
	stage := m.blockByStage(3)
	rng := rand.New(rand.NewSource(9))
	pruned, err := pruneBlock(stage, 0.8, rng)
	if err != nil {
		t.Fatal(err)
	}
	if pruned.ParamCount() >= stage.ParamCount() {
		t.Fatalf("pruned params %d >= original %d", pruned.ParamCount(), stage.ParamCount())
	}
	if pruned.MemoryBytes() >= stage.MemoryBytes() {
		t.Fatalf("pruned memory %d >= original %d", pruned.MemoryBytes(), stage.MemoryBytes())
	}
	if pruned.variant != variantPruned {
		t.Fatalf("pruned variant = %v, want VariantPruned", pruned.variant)
	}
	if pruned.pruneRatio != 0.8 {
		t.Fatalf("pruned ratio = %v, want 0.8", pruned.pruneRatio)
	}
}

func TestPruneBlockRejectsNonResidual(t *testing.T) {
	m := BuildResNet18(DefaultResNetConfig())
	rng := rand.New(rand.NewSource(10))
	if _, err := pruneBlock(m.blockByStage(0), 0.5, rng); err == nil {
		t.Fatal("pruning the stem should fail (not a residual stage)")
	}
}

func TestPruneRatioValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	src := newBasicBlock("b", 2, 4, 4, 1, rng)
	if _, err := pruneBasicBlock(src, 1.0, rng); err == nil {
		t.Fatal("ratio 1.0 should be rejected")
	}
	if _, err := pruneBasicBlock(src, -0.1, rng); err == nil {
		t.Fatal("negative ratio should be rejected")
	}
}

func TestCloneBlockIndependentWeights(t *testing.T) {
	m := BuildResNet18(DefaultResNetConfig())
	src := m.blockByStage(4)
	rng := rand.New(rand.NewSource(12))
	clone, err := cloneBlock(src, "clone", rng)
	if err != nil {
		t.Fatal(err)
	}
	sp, cp := src.Params(), clone.Params()
	if len(sp) != len(cp) {
		t.Fatalf("clone has %d params, src %d", len(cp), len(sp))
	}
	for i := range sp {
		if sp[i].Data()[0] != cp[i].Data()[0] {
			t.Fatalf("clone param %d differs at construction", i)
		}
	}
	cp[0].Data()[0] += 42
	if sp[0].Data()[0] == cp[0].Data()[0] {
		t.Fatal("clone shares storage with source")
	}
	if clone.variant != variantFineTuned {
		t.Fatalf("clone variant = %v, want VariantFineTuned", clone.variant)
	}
}

func TestCloneProducesIdenticalForward(t *testing.T) {
	m := BuildResNet18(DefaultResNetConfig())
	src := m.blockByStage(1)
	rng := rand.New(rand.NewSource(13))
	clone, err := cloneBlock(src, "clone", rng)
	if err != nil {
		t.Fatal(err)
	}
	x := testInput(1, 8, 8, 14)
	y1, err := src.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	y2, err := clone.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range y1.Data() {
		if math.Abs(y1.Data()[i]-y2.Data()[i]) > 1e-12 {
			t.Fatalf("clone forward differs at %d: %v vs %v", i, y1.Data()[i], y2.Data()[i])
		}
	}
}

func TestTableIHasTenConfigs(t *testing.T) {
	cfgs := TableI()
	if len(cfgs) != 10 {
		t.Fatalf("Table I has %d configs, want 10", len(cfgs))
	}
	shared := map[string]int{"A": 0, "B": 4, "C": 3, "D": 2, "E": 1}
	for name, want := range shared {
		c, err := ConfigByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if c.SharedStages != want {
			t.Fatalf("CONFIG %s shares %d stages, want %d", name, c.SharedStages, want)
		}
		p, err := ConfigByName(name + "-pruned")
		if err != nil {
			t.Fatal(err)
		}
		if p.PruneRatio != 0.8 {
			t.Fatalf("CONFIG %s-pruned ratio %v, want 0.8", name, p.PruneRatio)
		}
	}
	if _, err := ConfigByName("Z"); err == nil {
		t.Fatal("unknown config should error")
	}
}

func TestBuildConfigModelSharing(t *testing.T) {
	base := BuildResNet18(DefaultResNetConfig())
	cfgC, err := ConfigByName("C")
	if err != nil {
		t.Fatal(err)
	}
	m, err := BuildConfigModel(base, cfgC, "task1", 9, 21)
	if err != nil {
		t.Fatal(err)
	}
	// Stages 1–3 alias base blocks; stage 4 and classifier are new.
	for stage := 1; stage <= 3; stage++ {
		if m.blockByStage(stage) != base.blockByStage(stage) {
			t.Fatalf("stage %d not shared in CONFIG C", stage)
		}
		if !m.blockByStage(stage).Frozen {
			t.Fatalf("shared stage %d not frozen", stage)
		}
	}
	if m.blockByStage(4) == base.blockByStage(4) {
		t.Fatal("stage 4 should be a fine-tuned clone in CONFIG C")
	}
	if m.blockByStage(5) == base.blockByStage(5) {
		t.Fatal("classifier should always be fresh")
	}
	// Output dimensionality follows the new class count.
	x := testInput(1, 3, 16, 22)
	y, err := m.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	if y.Dim(1) != 9 {
		t.Fatalf("config model classes = %d, want 9", y.Dim(1))
	}
}

func TestBuildConfigModelScratchSharesNothing(t *testing.T) {
	base := BuildResNet18(DefaultResNetConfig())
	cfgA, err := ConfigByName("A")
	if err != nil {
		t.Fatal(err)
	}
	m, err := BuildConfigModel(base, cfgA, "task1", 9, 23)
	if err != nil {
		t.Fatal(err)
	}
	for stage := 0; stage <= 5; stage++ {
		if m.blockByStage(stage) == base.blockByStage(stage) {
			t.Fatalf("CONFIG A stage %d aliases the base model", stage)
		}
	}
}

func TestApplyConfigPruningPrunesOnlyFineTuned(t *testing.T) {
	base := BuildResNet18(DefaultResNetConfig())
	cfg, err := ConfigByName("C-pruned")
	if err != nil {
		t.Fatal(err)
	}
	m, err := BuildConfigModel(base, cfg, "task1", 9, 24)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := ApplyConfigPruning(m, cfg, 25)
	if err != nil {
		t.Fatal(err)
	}
	for stage := 1; stage <= 3; stage++ {
		if pm.blockByStage(stage) != base.blockByStage(stage) {
			t.Fatalf("pruning CONFIG C-pruned must keep shared stage %d aliased", stage)
		}
	}
	if pm.blockByStage(4).variant != variantPruned {
		t.Fatal("stage 4 should be pruned in CONFIG C-pruned")
	}
	if pm.blockByStage(4).ParamCount() >= m.blockByStage(4).ParamCount() {
		t.Fatal("pruned stage 4 did not shrink")
	}
	// Forward still works.
	x := testInput(1, 3, 16, 26)
	if _, err := pm.Forward(x, false); err != nil {
		t.Fatal(err)
	}
}

func TestDeployedMemoryCountsSharedOnce(t *testing.T) {
	base := BuildResNet18(DefaultResNetConfig())
	cfgB, err := ConfigByName("B")
	if err != nil {
		t.Fatal(err)
	}
	m1, err := BuildConfigModel(base, cfgB, "t1", 9, 27)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := BuildConfigModel(base, cfgB, "t2", 9, 28)
	if err != nil {
		t.Fatal(err)
	}
	shared := DeployedMemoryBytes([]*Model{m1, m2})
	separate := m1.MemoryBytes() + m2.MemoryBytes()
	if shared >= separate {
		t.Fatalf("shared deployment %d not cheaper than separate %d", shared, separate)
	}
	// Two CONFIG B models differ only by classifier, so the shared total
	// should be close to one model plus one classifier.
	oneModel := m1.MemoryBytes() + m2.blockByStage(5).MemoryBytes()
	if shared != oneModel {
		t.Fatalf("shared deployment %d, want %d (one model + extra classifier)", shared, oneModel)
	}
}

func TestMobileNetForwardShape(t *testing.T) {
	cfg := DefaultMobileNetConfig()
	m := BuildMobileNetV2(cfg)
	x := testInput(2, 3, 16, 30)
	y, err := m.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	if y.Dim(0) != 2 || y.Dim(1) != cfg.NumClasses {
		t.Fatalf("mobilenet output %v, want [2 %d]", y.Shape(), cfg.NumClasses)
	}
}

func TestMobileNetSmallerThanResNet(t *testing.T) {
	r := BuildResNet18(DefaultResNetConfig())
	mb := BuildMobileNetV2(DefaultMobileNetConfig())
	if mb.ParamCount() >= r.ParamCount() {
		t.Fatalf("mobilenet params %d >= resnet %d", mb.ParamCount(), r.ParamCount())
	}
}

func TestMobileNetTrainingStep(t *testing.T) {
	m := BuildMobileNetV2(MobileNetConfig{
		InChannels: 3, NumClasses: 4, BaseWidth: 4, Expansion: 2, StageBlocks: [4]int{1, 1, 1, 1}, Seed: 31,
	})
	x := testInput(2, 3, 8, 32)
	y, err := m.Forward(x, true)
	if err != nil {
		t.Fatal(err)
	}
	ce, err := tensor.CrossEntropy(y, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	m.ZeroGrads()
	if _, err := m.Backward(ce.Backward()); err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, g := range m.TrainableGrads() {
		total += maxAbs(g)
	}
	if total == 0 {
		t.Fatal("mobilenet accumulated no gradient")
	}
}

func TestBackwardBeforeForwardErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	b := newBasicBlock("b", 2, 2, 2, 1, rng)
	dy := tensor.New(1, 2, 4, 4)
	if _, err := b.Backward(dy); !errors.Is(err, errState) {
		t.Fatalf("backward-before-forward err = %v, want ErrState", err)
	}
}

// Property: pruning never increases parameter count and is monotone in the
// ratio.
func TestQuickPruneMonotone(t *testing.T) {
	f := func(seed int64, r1, r2 float64) bool {
		r1 = math.Mod(math.Abs(r1), 0.95)
		r2 = math.Mod(math.Abs(r2), 0.95)
		if r1 > r2 {
			r1, r2 = r2, r1
		}
		rng := rand.New(rand.NewSource(seed))
		src := newBasicBlock("b", 4, 8, 8, 1, rng)
		p1, err := pruneBasicBlock(src, r1, rng)
		if err != nil {
			return false
		}
		p2, err := pruneBasicBlock(src, r2, rng)
		if err != nil {
			return false
		}
		c1 := 0
		for _, p := range p1.Params() {
			c1 += p.Len()
		}
		c2 := 0
		for _, p := range p2.Params() {
			c2 += p.Len()
		}
		cSrc := 0
		for _, p := range src.Params() {
			cSrc += p.Len()
		}
		return c2 <= c1 && c1 <= cSrc
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// DefaultMobileNetConfig returns a test-scale MobileNetV2-style network.
func DefaultMobileNetConfig() MobileNetConfig {
	return MobileNetConfig{
		InChannels:  3,
		NumClasses:  8,
		BaseWidth:   8,
		Expansion:   2,
		StageBlocks: [4]int{1, 2, 2, 1},
		Seed:        1,
	}
}

// DeployedMemoryBytes computes the total memory of a set of models counting
// each distinct block (by pointer identity) once — the m(s^d) semantics of
// constraint (1b).
func DeployedMemoryBytes(models []*Model) int64 {
	seen := make(map[*Block]bool)
	var total int64
	for _, m := range models {
		for _, b := range m.Blocks {
			if !seen[b] {
				seen[b] = true
				total += b.MemoryBytes()
			}
		}
	}
	return total
}

// MemoryBytes sums the deployment footprint of all blocks. When several
// models alias blocks, use DeployedMemoryBytes over the model set instead.
func (m *Model) MemoryBytes() int64 {
	var n int64
	for _, b := range m.Blocks {
		n += b.MemoryBytes()
	}
	return n
}

// FreezeStages freezes the blocks whose Stage number appears in stages
// (stage 0 is the stem, 1–4 the residual stages, 5 the classifier).
func (m *Model) FreezeStages(stages ...int) {
	set := make(map[int]bool, len(stages))
	for _, s := range stages {
		set[s] = true
	}
	for _, b := range m.Blocks {
		if set[b.Stage] {
			b.Frozen = true
		}
	}
}

// maxAbs returns the largest absolute element of t.
func maxAbs(t *tensor.Tensor) float64 {
	m := 0.0
	for _, v := range t.Data() {
		m = math.Max(m, math.Abs(v))
	}
	return m
}
