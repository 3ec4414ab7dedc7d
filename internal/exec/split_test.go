package exec

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"offloadnn/internal/core"
	"offloadnn/internal/dnn"
	"offloadnn/internal/edge"
	"offloadnn/internal/tensor"
)

// splitPathIDs is a 4-stage path at a precision tier ("", "@f32", "@i8").
func splitPathIDs(tier string) []string {
	ids := make([]string, 4)
	for i := range ids {
		ids[i] = fmt.Sprintf("prop/stage%d%s", i+1, tier)
	}
	return ids
}

func splitFrame(seed int) []float64 {
	frame := make([]float64, 3*8*8)
	for i := range frame {
		frame[i] = float64((i*7+seed*13)%29)/29 - 0.5
	}
	return frame
}

// newSplitBackend builds one Real per "node" with identical configuration
// (the cluster invariant: every member runs the same template and gate).
func newSplitBackend(t *testing.T) *Real {
	t.Helper()
	b, err := NewReal(RealConfig{BatchSize: 4, BatchWindow: 0})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	return b
}

func installSegments(t *testing.T, b *Real, task string, blocks []string, bounds ...int) {
	t.Helper()
	var segs []Segment
	for i := 0; i+1 < len(bounds); i++ {
		segs = append(segs, Segment{TaskID: task, PathID: "prop/π", DNN: "prop",
			Blocks: blocks, From: bounds[i], To: bounds[i+1]})
	}
	if err := b.Install(&Plan{Epoch: 1, Segments: segs}); err != nil {
		t.Fatal(err)
	}
}

// runSplit drives one frame through a chain of per-node backends, each
// serving the range starting at the corresponding bound, handing the
// emitted activation to the next — the in-process equivalent of the
// POST /v1/stage relay.
func runSplit(t *testing.T, nodes []*Real, bounds []int, task string, frame []float64) []float64 {
	t.Helper()
	input := frame
	for i, node := range nodes {
		out, err := node.Infer(context.Background(), Request{TaskID: task, Input: input, FromStage: bounds[i]})
		if err != nil {
			t.Fatalf("segment from stage %d: %v", bounds[i], err)
		}
		if i == len(nodes)-1 {
			if out.Logits == nil {
				t.Fatalf("tail segment returned no logits")
			}
			return out.Logits
		}
		if out.Activation == nil {
			t.Fatalf("non-tail segment from stage %d returned no activation", bounds[i])
		}
		if n := out.ActShape[0] * out.ActShape[1] * out.ActShape[2]; n != len(out.Activation) {
			t.Fatalf("activation shape %v disagrees with %d elems", out.ActShape, len(out.Activation))
		}
		input = out.Activation
	}
	panic("unreachable")
}

// TestSplitEqualsWholeEveryCutPrecisionWorkers is the split-equals-whole
// property: a path split at every legal cut point produces bit-identical
// logits to the unsplit model, at every precision tier and kernel worker
// count. Quantized tiers exercise the full-path calibration rule — each
// node gates the complete path locally, so split and whole derive the
// same activation scales.
func TestSplitEqualsWholeEveryCutPrecisionWorkers(t *testing.T) {
	defer tensor.SetParallelism(tensor.SetParallelism(1))
	for _, tier := range []string{"", "@f32", "@i8"} {
		for _, workers := range []int{1, 3} {
			tensor.SetParallelism(workers)
			blocks := splitPathIDs(tier)
			whole := newSplitBackend(t)
			installSegments(t, whole, "t", blocks, 0, len(blocks))
			frame := splitFrame(workers)
			ref, err := whole.Infer(context.Background(), Request{TaskID: "t", Input: frame})
			if err != nil {
				t.Fatal(err)
			}
			for cut := 1; cut < len(blocks); cut++ {
				name := fmt.Sprintf("tier=%q workers=%d cut=%d", tier, workers, cut)
				head, tail := newSplitBackend(t), newSplitBackend(t)
				installSegments(t, head, "t", blocks, 0, cut)
				installSegments(t, tail, "t", blocks, cut, len(blocks))
				got := runSplit(t, []*Real{head, tail}, []int{0, cut}, "t", frame)
				if len(got) != len(ref.Logits) {
					t.Fatalf("%s: %d logits, want %d", name, len(got), len(ref.Logits))
				}
				for i := range got {
					if got[i] != ref.Logits[i] {
						t.Fatalf("%s: logit %d = %v, whole %v (not bit-identical)", name, i, got[i], ref.Logits[i])
					}
				}
			}
			// Three-way split: every node runs one interior boundary.
			bounds := []int{0, 1, 3, len(blocks)}
			nodes := make([]*Real, 0, 3)
			for i := 0; i+1 < len(bounds); i++ {
				n := newSplitBackend(t)
				installSegments(t, n, "t", blocks, bounds[i], bounds[i+1])
				nodes = append(nodes, n)
			}
			got := runSplit(t, nodes, bounds[:3], "t", frame)
			for i := range got {
				if got[i] != ref.Logits[i] {
					t.Fatalf("tier=%q workers=%d 3-way: logit %d = %v, whole %v", tier, workers, i, got[i], ref.Logits[i])
				}
			}
		}
	}
}

// TestSegmentInstallValidation pins the contract errors: bad ranges
// refuse the plan (previous plan stays), and a mid-path request must
// match the installed range and activation shape.
func TestSegmentInstallValidation(t *testing.T) {
	b := newSplitBackend(t)
	blocks := splitPathIDs("")
	if err := b.Install(&Plan{Epoch: 1, Segments: []Segment{
		{TaskID: "t", Blocks: blocks, From: 2, To: 1},
	}}); err == nil {
		t.Fatal("inverted range accepted")
	}
	if err := b.Install(&Plan{Epoch: 1, Segments: []Segment{
		{TaskID: "t", Blocks: blocks, From: 0, To: 9},
	}}); err == nil {
		t.Fatal("overlong range accepted")
	}
	installSegments(t, b, "t", blocks, 2, len(blocks))
	// Raw-frame intake is not installed, only the stage-2 resume.
	if _, err := b.Infer(context.Background(), Request{TaskID: "t", Input: splitFrame(1)}); err == nil {
		t.Fatal("frame intake served by a mid-path segment")
	}
	if _, err := b.Infer(context.Background(), Request{TaskID: "t", FromStage: 2, Input: []float64{1, 2, 3}}); err == nil {
		t.Fatal("wrong-size activation accepted")
	}
}

// TestSegmentSharedBlocksRefcounted pins that a segment install goes
// through the same refcounted library as whole paths: the stages outside
// the range (and gate temporaries) do not stay resident.
func TestSegmentSharedBlocksRefcounted(t *testing.T) {
	b := newSplitBackend(t)
	blocks := splitPathIDs("")
	installSegments(t, b, "t", blocks, 1, 3)
	refs := b.BlockRefs()
	for _, id := range blocks[1:3] {
		if refs[id] != 1 {
			t.Fatalf("segment block %s refs = %d, want 1", id, refs[id])
		}
	}
	for _, id := range []string{blocks[0], blocks[3], "stem", "classifier/64"} {
		if _, ok := refs[id]; ok {
			t.Fatalf("out-of-range block %s stayed resident: %v", id, refs)
		}
	}
}

// TestWholePathIsOneSegment pins that a Deployment assignment and the
// segment [0, n) of the same path are one deployable thing: the same
// entry key (the "|"-joined block list Stats().PathPrecisions reports),
// the same shared blocks, bitwise-equal logits — at every precision tier
// — and a swap from one form to the other keeps the entry, its blocks
// and a request parked in its queue.
func TestWholePathIsOneSegment(t *testing.T) {
	for _, tier := range []string{"", "@f32", "@i8"} {
		blocks := splitPathIDs(tier)
		sig := strings.Join(blocks, "|")
		asDeployment := func(epoch uint64) *Plan {
			return &Plan{Epoch: epoch, Deployment: &edge.Deployment{Solution: &core.Solution{
				Assignments: []core.Assignment{{TaskID: "t", Z: 1, RBs: 1,
					Path: &core.PathSpec{ID: "prop/π", DNN: "prop", Blocks: blocks}}},
			}}}
		}
		asSegment := func(epoch uint64) *Plan {
			return &Plan{Epoch: epoch, Segments: []Segment{
				{TaskID: "t", PathID: "prop/π", DNN: "prop", Blocks: blocks, To: len(blocks)},
			}}
		}
		a, b := newSplitBackend(t), newSplitBackend(t)
		// Armed below, the hook parks the first batch it sees until release.
		var armed atomic.Bool
		release, entered := make(chan struct{}), make(chan struct{})
		a.batchHook = func(int) {
			if armed.CompareAndSwap(true, false) {
				close(entered)
				<-release
			}
		}
		if err := a.Install(asDeployment(1)); err != nil {
			t.Fatal(err)
		}
		if err := b.Install(asSegment(1)); err != nil {
			t.Fatal(err)
		}
		frame := splitFrame(3)
		type answer struct {
			logits []float64
			err    error
		}
		infer := func(r *Real) answer {
			out, err := r.Infer(context.Background(), Request{TaskID: "t", Input: frame})
			return answer{out.Logits, err}
		}
		sameLogits := func(what string, got answer, want []float64) {
			t.Helper()
			if got.err != nil {
				t.Fatalf("tier %q: %s: %v", tier, what, got.err)
			}
			for i := range want {
				if got.logits[i] != want[i] {
					t.Fatalf("tier %q: %s: logit %d = %v, want %v", tier, what, i, got.logits[i], want[i])
				}
			}
		}
		ref := infer(a)
		sameLogits("as a deployment", ref, ref.logits)
		sameLogits("as a segment", infer(b), ref.logits)
		pa, pb := a.Stats().PathPrecisions, b.Stats().PathPrecisions
		if len(pa) != 1 || len(pb) != 1 || pa[sig] == "" || pa[sig] != pb[sig] {
			t.Fatalf("tier %q: PathPrecisions %v as a deployment, %v as a segment, want one key %q", tier, pa, pb, sig)
		}
		ra, rb := a.BlockRefs(), b.BlockRefs()
		for key, n := range ra {
			if rb[key] != n || len(rb) != len(ra) {
				t.Fatalf("tier %q: library %v as a deployment, %v as a segment", tier, ra, rb)
			}
		}

		// Swap a from one form to the other with one request in a parked
		// batch and one queued behind it: both must be answered, and the
		// entry and its blocks must be the same pointers afterwards.
		entry := a.models[sig]
		shared := map[string]*dnn.Block{}
		for key := range ra {
			shared[key] = a.SharedBlock(key)
		}
		armed.Store(true)
		inBatch, queued := make(chan answer, 1), make(chan answer, 1)
		go func() { inBatch <- infer(a) }()
		<-entered
		go func() { queued <- infer(a) }()
		waitUntil(t, "request queued", func() bool { return a.Stats().QueueDepth == 1 })
		if err := a.Install(asSegment(2)); err != nil {
			t.Fatal(err)
		}
		close(release)
		sameLogits("in a batch across the swap", <-inBatch, ref.logits)
		sameLogits("queued across the swap", <-queued, ref.logits)
		if err := a.Install(asDeployment(3)); err != nil {
			t.Fatal(err)
		}
		if a.models[sig] != entry || len(a.models) != 1 {
			t.Fatalf("tier %q: the swap rebuilt the entry", tier)
		}
		for key, blk := range shared {
			if a.SharedBlock(key) != blk {
				t.Fatalf("tier %q: the swap rebuilt shared block %s", tier, key)
			}
		}
	}
}
