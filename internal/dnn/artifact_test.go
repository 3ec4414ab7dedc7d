package dnn

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"offloadnn/internal/tensor"
)

func artifactRoundTrip(t *testing.T, m *Model) (*Model, int64) {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveArtifact(&buf, m); err != nil {
		t.Fatalf("save artifact: %v", err)
	}
	loaded, n, err := LoadArtifact(&buf)
	if err != nil {
		t.Fatalf("load artifact: %v", err)
	}
	return loaded, n
}

func TestArtifactRoundTripIdenticalForward(t *testing.T) {
	m := BuildResNet18(DefaultResNetConfig())
	loaded, n := artifactRoundTrip(t, m)
	if loaded.Arch != m.Arch {
		t.Fatalf("arch %q, want %q", loaded.Arch, m.Arch)
	}
	if want := int64(m.ParamCount()) * 8; n < want {
		t.Fatalf("weight bytes %d < param bytes %d", n, want)
	}
	x := testInput(2, 3, 16, 99)
	y1, err := m.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	y2, err := loaded.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range y1.Data() {
		if y1.Data()[i] != y2.Data()[i] {
			t.Fatalf("forward differs at %d: %v vs %v", i, y1.Data()[i], y2.Data()[i])
		}
	}
}

// All tensors of a loaded artifact alias one decoded buffer: the very
// first parameter's backing slice must extend (in capacity) to the end
// of the whole weight section.
func TestArtifactTensorsAliasOneBuffer(t *testing.T) {
	m := BuildResNet18(DefaultResNetConfig())
	loaded, n := artifactRoundTrip(t, m)
	first := loaded.Blocks[0].Params()[0].Data()
	if got, want := cap(first), int(n/8); got != want {
		t.Fatalf("first tensor backing capacity %d, want full weight section %d", got, want)
	}
}

// Blocks aliased in the saved model are aliased again after loading —
// the artifact is the zero-copy shared-block deployment format.
func TestArtifactPreservesBlockSharing(t *testing.T) {
	m := BuildResNet18(DefaultResNetConfig())
	dup := &Model{Arch: m.Arch, Blocks: append(append([]*Block{}, m.Blocks...), m.Blocks[1])}
	loaded, _ := artifactRoundTrip(t, dup)
	if len(loaded.Blocks) != len(dup.Blocks) {
		t.Fatalf("%d blocks, want %d", len(loaded.Blocks), len(dup.Blocks))
	}
	if loaded.Blocks[1] != loaded.Blocks[len(loaded.Blocks)-1] {
		t.Fatal("repeated block ID decoded into two instances, want one alias")
	}
	if loaded.Blocks[0] == loaded.Blocks[1] {
		t.Fatal("distinct blocks were merged")
	}
}

func TestArtifactPreservesPrecisionAndScales(t *testing.T) {
	m := BuildResNet18(DefaultResNetConfig())
	x := CalibrationBatch(4, 3, 16, 16, 11)
	if err := Calibrate(m, x); err != nil {
		t.Fatal(err)
	}
	if err := m.SetPrecision(tensor.I8); err != nil {
		t.Fatal(err)
	}
	loaded, _ := artifactRoundTrip(t, m)
	for i, b := range loaded.Blocks {
		if b.Precision() != tensor.I8 {
			t.Fatalf("block %d precision %v, want i8", i, b.Precision())
		}
	}
	y1, err := m.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	y2, err := loaded.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range y1.Data() {
		if y1.Data()[i] != y2.Data()[i] {
			t.Fatalf("quantized forward differs at %d: %v vs %v", i, y1.Data()[i], y2.Data()[i])
		}
	}
}

func TestArtifactChecksumCorruptionRejected(t *testing.T) {
	m := BuildResNet18(DefaultResNetConfig())
	var buf bytes.Buffer
	if err := SaveArtifact(&buf, m); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)-5] ^= 0x40 // flip a bit inside the weights section
	if _, _, err := LoadArtifact(bytes.NewReader(raw)); err == nil {
		t.Fatal("corrupted artifact loaded without error")
	} else if !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corruption rejected with %v, want a checksum error", err)
	}
}

func TestArtifactRejectsGarbage(t *testing.T) {
	if _, _, err := LoadArtifact(bytes.NewReader([]byte("definitely not an artifact"))); err == nil {
		t.Fatal("garbage accepted")
	}
}

// roundTrip is artifactRoundTrip for callers that only want the model.
func roundTrip(t *testing.T, m *Model) *Model {
	t.Helper()
	loaded, _ := artifactRoundTrip(t, m)
	return loaded
}

func TestArtifactPreservesMetadata(t *testing.T) {
	m := BuildResNet18(DefaultResNetConfig())
	pruned, err := PruneBlock(m.BlockByStage(2), 0.8, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	pruned.Frozen = true
	m.Blocks[2] = pruned
	lb := roundTrip(t, m).Blocks[2]
	if lb.Variant != VariantPruned || lb.PruneRatio != 0.8 || !lb.Frozen || lb.ID != pruned.ID {
		t.Fatalf("loaded block %q variant %v ratio %v frozen %v, want %q pruned 0.8 frozen",
			lb.ID, lb.Variant, lb.PruneRatio, lb.Frozen, pruned.ID)
	}
}

// Gradients live outside the aliased weight buffer, so a loaded model
// trains like a built one.
func TestArtifactLoadedModelIsTrainable(t *testing.T) {
	m := BuildResNet18(ResNetConfig{
		InChannels: 3, NumClasses: 4, BaseWidth: 4, StageBlocks: [4]int{1, 1, 1, 1}, Seed: 5,
	})
	loaded := roundTrip(t, m)
	y, err := loaded.Forward(testInput(2, 3, 8, 100), true)
	if err != nil {
		t.Fatal(err)
	}
	ce, err := tensor.CrossEntropy(y, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	loaded.ZeroGrads()
	if _, err := loaded.Backward(ce.Backward()); err != nil {
		t.Fatalf("loaded model backward: %v", err)
	}
	total := 0.0
	for _, g := range loaded.TrainableGrads() {
		total += g.MaxAbs()
	}
	if total == 0 {
		t.Fatal("loaded model accumulated no gradient")
	}
}

func TestArtifactPreservesBatchNormStats(t *testing.T) {
	m := BuildResNet18(DefaultResNetConfig())
	// Push the running statistics away from defaults with a training pass.
	x := testInput(4, 3, 16, 101)
	if _, err := m.Forward(x, true); err != nil {
		t.Fatal(err)
	}
	loaded := roundTrip(t, m)
	// Evaluation-mode outputs depend on running stats; they must agree.
	y1, err := m.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	y2, err := loaded.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range y1.Data() {
		if y1.Data()[i] != y2.Data()[i] {
			t.Fatal("running statistics not preserved")
		}
	}
}
