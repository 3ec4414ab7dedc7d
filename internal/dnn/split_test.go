package dnn

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime"
	"testing"

	"offloadnn/internal/tensor"
)

// buildSplitFixture instantiates a 4-stage path's blocks once so the
// whole-path and segment models alias the same weights, exactly as the
// execution backend's shared block library does.
func buildSplitFixture(t testing.TB) (ResNetConfig, *Block, []*Block, *Block) {
	t.Helper()
	cfg := DefaultResNetConfig()
	stem := BuildStemBlock(cfg)
	stages := make([]*Block, 0, 4)
	for p := 1; p <= 4; p++ {
		blk, err := BuildStageBlock(cfg, fmt.Sprintf("split/s%d", p), p, 0, int64(100+p))
		if err != nil {
			t.Fatal(err)
		}
		stages = append(stages, blk)
	}
	classifier := BuildClassifierBlock(cfg, StageWidth(cfg, 4))
	return cfg, stem, stages, classifier
}

// TestSegmentBoundaryShapesMatchForward pins the analytic cut-point
// geometry against the real thing: the shape EnumerateCutPoints prices
// a transfer with must be the shape the assembled prefix actually
// emits, for both the default 8x8 frames and a larger input.
func TestSegmentBoundaryShapesMatchForward(t *testing.T) {
	cfg, stem, stages, _ := buildSplitFixture(t)
	for _, hw := range []int{8, 16} {
		input := [3]int{3, hw, hw}
		cuts := EnumerateCutPoints(cfg, len(stages), input)
		if len(cuts) != len(stages)-1 {
			t.Fatalf("hw=%d: %d cut points, want %d", hw, len(cuts), len(stages)-1)
		}
		for _, cut := range cuts {
			head, err := AssembleSegmentModel("head", stem, stages[:cut.After], nil)
			if err != nil {
				t.Fatal(err)
			}
			x := testInput(1, input[0], hw, int64(hw))
			y, err := head.Forward(x, false)
			if err != nil {
				t.Fatal(err)
			}
			got := [3]int{y.Dim(1), y.Dim(2), y.Dim(3)}
			if got != cut.shape {
				t.Fatalf("hw=%d cut after %d: forward shape %v, enumerated %v", hw, cut.After, got, cut.shape)
			}
			if cut.elems != got[0]*got[1]*got[2] || cut.WireBytes != cut.elems*8 {
				t.Fatalf("cut after %d: elems %d wire %d inconsistent with shape %v",
					cut.After, cut.elems, cut.WireBytes, got)
			}
		}
	}
}

// TestSplitEqualsWholeEveryCutDNN pins bit-identical logits between a
// whole path and the same path split at each legal boundary, with the
// activation passed through the wire envelope in between (so the test
// covers the serialization too, not just the segment models).
func TestSplitEqualsWholeEveryCutDNN(t *testing.T) {
	cfg, stem, stages, classifier := buildSplitFixture(t)
	whole, err := AssemblePathModel("whole", stem, stages, classifier)
	if err != nil {
		t.Fatal(err)
	}
	x := testInput(1, 3, 8, 7)
	want, err := whole.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	cuts, envs := cutEnvelopes(t, cfg, stem, stages, x)
	for i, cut := range cuts {
		tail, err := AssembleSegmentModel("tail", nil, stages[cut.After:], classifier)
		if err != nil {
			t.Fatal(err)
		}
		got2, data, err := DecodeActivation(bytes.NewReader(envs[i]))
		if err != nil {
			t.Fatal(err)
		}
		if got2.From != cut.After || got2.Shape != cut.shape {
			t.Fatalf("envelope round-trip mangled manifest: %+v", got2)
		}
		act := tensor.New(1, cut.shape[0], cut.shape[1], cut.shape[2])
		copy(act.Data(), data)
		y, err := tail.Forward(act, false)
		if err != nil {
			t.Fatal(err)
		}
		if y.Len() != want.Len() {
			t.Fatalf("cut after %d: logit count %d, want %d", cut.After, y.Len(), want.Len())
		}
		for i, v := range y.Data() {
			if v != want.Data()[i] {
				t.Fatalf("cut after %d: logit %d = %v, whole path %v (not bit-identical)", cut.After, i, v, want.Data()[i])
			}
		}
	}
}

// cutEnvelopes runs the split fixture's head segment up to each legal
// cut of an 8x8 frame and encodes its boundary activation as the wire
// envelope a split path sends.
func cutEnvelopes(tb testing.TB, cfg ResNetConfig, stem *Block, stages []*Block, x *tensor.Tensor) ([]CutPoint, [][]byte) {
	tb.Helper()
	cuts := EnumerateCutPoints(cfg, len(stages), [3]int{3, 8, 8})
	envs := make([][]byte, 0, len(cuts))
	for _, cut := range cuts {
		head, err := AssembleSegmentModel("head", stem, stages[:cut.After], nil)
		if err != nil {
			tb.Fatal(err)
		}
		mid, err := head.Forward(x, false)
		if err != nil {
			tb.Fatal(err)
		}
		var buf bytes.Buffer
		man := ActivationManifest{Task: "t", Path: "p", From: cut.After, Shape: cut.shape, RemainingMS: 100}
		if err := EncodeActivation(&buf, man, mid.Data()); err != nil {
			tb.Fatal(err)
		}
		envs = append(envs, buf.Bytes())
	}
	return cuts, envs
}

// hostileShapes each get past a bare elems > 0 check: 8 TiB of payload,
// negative dimensions with a positive product, and dimensions whose
// product wraps int to 8.
var hostileShapes = [][3]int{{1 << 20, 1 << 20, 1}, {-1, -1, 8}, {math.MaxInt/4 + 2, 4, 2}}

// rawEnvelope frames a manifest EncodeActivation would refuse, followed
// by payload zero bytes.
func rawEnvelope(tb testing.TB, man ActivationManifest, payload int) []byte {
	tb.Helper()
	manJSON, err := json.Marshal(man)
	if err != nil {
		tb.Fatal(err)
	}
	env := append([]byte(activationMagic), binary.LittleEndian.AppendUint32(nil, uint32(len(manJSON)))...)
	env = append(env, manJSON...)
	return append(env, make([]byte, payload)...)
}

// TestActivationEnvelopeRejectsGarbage covers the decode guards.
func TestActivationEnvelopeRejectsGarbage(t *testing.T) {
	if _, _, err := DecodeActivation(bytes.NewReader([]byte("NOTANENVELOPE....."))); err == nil {
		t.Fatal("bad magic accepted")
	}
	var buf bytes.Buffer
	man := ActivationManifest{Task: "t", Path: "p", Shape: [3]int{2, 2, 2}, RemainingMS: 1}
	if err := EncodeActivation(&buf, man, make([]float64, 8)); err != nil {
		t.Fatal(err)
	}
	truncated := buf.Bytes()[:buf.Len()-9]
	if _, _, err := DecodeActivation(bytes.NewReader(truncated)); err == nil {
		t.Fatal("truncated payload accepted")
	}
	if err := EncodeActivation(&buf, man, make([]float64, 3)); err == nil {
		t.Fatal("shape/payload mismatch accepted")
	}
	// Each hostile shape comes with the 8 elements' bytes a wrapped count
	// would ask for; the decoder refuses it before allocating a payload.
	for _, shape := range hostileShapes {
		env := rawEnvelope(t, ActivationManifest{Task: "t", Path: "p", Shape: shape}, 64)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := DecodeActivation(bytes.NewReader(env))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("shape %v accepted", shape)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("shape %v: decoder allocated %d bytes before refusing it", shape, grew)
		}
		if err := EncodeActivation(io.Discard, ActivationManifest{Shape: shape}, make([]float64, 8)); err == nil {
			t.Fatalf("encoder accepted shape %v", shape)
		}
	}
}

// FuzzDecodeActivation feeds the envelope decoder arbitrary bytes: it
// never panics, an accepted payload is never longer than the bytes
// supplied, and an accepted envelope re-encodes and decodes to an equal
// manifest and the same payload bits.
func FuzzDecodeActivation(f *testing.F) {
	cfg, stem, stages, _ := buildSplitFixture(f)
	_, envs := cutEnvelopes(f, cfg, stem, stages, testInput(1, 3, 8, 7))
	for _, env := range envs {
		f.Add(env)
	}
	f.Add([]byte("NOTANENVELOPE....."))
	for _, shape := range hostileShapes {
		f.Add(rawEnvelope(f, ActivationManifest{Task: "t", Path: "p", Shape: shape}, 64))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		man, data, err := DecodeActivation(bytes.NewReader(in))
		if err != nil {
			return
		}
		if len(data)*8 > len(in) {
			t.Fatalf("%d payload bytes decoded from %d supplied", len(data)*8, len(in))
		}
		var buf bytes.Buffer
		if err := EncodeActivation(&buf, man, data); err != nil {
			t.Fatalf("accepted envelope does not re-encode: %v", err)
		}
		man2, data2, err := DecodeActivation(&buf)
		if err != nil {
			t.Fatalf("re-encoded envelope refused: %v", err)
		}
		if len(man.Hops) == 0 { // "hops":[] re-encodes as an omitted field
			man.Hops = nil
		}
		if !reflect.DeepEqual(man, man2) {
			t.Fatalf("manifest %+v came back as %+v", man, man2)
		}
		if len(data2) != len(data) {
			t.Fatalf("%d elements came back as %d", len(data), len(data2))
		}
		for i := range data {
			if math.Float64bits(data[i]) != math.Float64bits(data2[i]) {
				t.Fatalf("element %d: %v came back as %v", i, data[i], data2[i])
			}
		}
	})
}
