package profile

import (
	"testing"

	"offloadnn/internal/dnn"
)

func TestProfileModelCoversAllBlocks(t *testing.T) {
	m := dnn.BuildResNet18(dnn.DefaultResNetConfig())
	p := Profiler{ImageSize: 16, Repeats: 5, Warmup: 1}
	costs, err := p.ProfileModel(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(costs) != len(m.Blocks) {
		t.Fatalf("profiled %d blocks, want %d", len(costs), len(m.Blocks))
	}
	for i, c := range costs {
		if c.ComputeTime <= 0 {
			t.Fatalf("block %s compute time %v", c.ID, c.ComputeTime)
		}
		if c.MemoryBytes <= 0 {
			t.Fatalf("block %s memory %d", c.ID, c.MemoryBytes)
		}
		if c.ID != m.Blocks[i].ID {
			t.Fatalf("cost %d for %s, want %s", i, c.ID, m.Blocks[i].ID)
		}
	}
}

func TestPrunedBlocksProfileCheaper(t *testing.T) {
	full := dnn.BuildResNet18(dnn.DefaultResNetConfig())
	pruned := dnn.BuildResNet18(dnn.ResNetConfig{
		InChannels: 3, NumClasses: 8, BaseWidth: 8,
		StageBlocks: [4]int{2, 2, 2, 2},
		PruneRatios: [4]float64{0.8, 0.8, 0.8, 0.8},
		Seed:        1,
	})
	p := Profiler{ImageSize: 16, Repeats: 7, Warmup: 2}
	fc, err := p.ProfileModel(full)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := p.ProfileModel(pruned)
	if err != nil {
		t.Fatal(err)
	}
	if TotalMemory(pc) >= TotalMemory(fc) {
		t.Fatalf("pruned model memory %d >= full %d", TotalMemory(pc), TotalMemory(fc))
	}
	// Pruned stages must be cheaper in compute; allow timing noise on the
	// total by requiring a clear margin.
	if TotalCompute(pc) >= TotalCompute(fc) {
		t.Fatalf("pruned model compute %v >= full %v", TotalCompute(pc), TotalCompute(fc))
	}
}

func TestProfilerValidation(t *testing.T) {
	m := dnn.BuildResNet18(dnn.DefaultResNetConfig())
	p := Profiler{ImageSize: 16, Repeats: 0}
	if _, err := p.ProfileModel(m); err == nil {
		t.Fatal("repeats 0 should be rejected")
	}
}
