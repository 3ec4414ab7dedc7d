package workload

import (
	"strings"
	"testing"

	"offloadnn/internal/core"
	"offloadnn/internal/radio"
)

// precisionInstance rebuilds the Table-IV small instance with the given
// precision tiers and compute budget.
func precisionInstance(t *testing.T, precisions []PrecisionSpec, compute float64) *core.Instance {
	t.Helper()
	params := SmallCatalogParams()
	params.Precisions = precisions
	in := &core.Instance{
		Blocks: make(map[string]core.BlockSpec),
		Res: core.Resources{
			RBs: 50, ComputeSeconds: compute, MemoryGB: 8,
			TrainBudgetSeconds: 1000, Capacity: radio.PaperRate(),
		},
		Alpha: 0.5,
	}
	for i := 0; i < 5; i++ {
		task, err := SmallTask(i + 1)
		if err != nil {
			t.Fatal(err)
		}
		task.Paths = params.BuildPaths(in.Blocks, task.ID, i)
		in.Tasks = append(in.Tasks, task)
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	return in
}

func TestPrecisionTiersEmitSuffixedVariants(t *testing.T) {
	tiers := []PrecisionSpec{DefaultPrecisionSpec("f64"), DefaultPrecisionSpec("i8")}
	in := precisionInstance(t, tiers, 2.5)
	base := precisionInstance(t, nil, 2.5)
	task := in.Tasks[0]
	if got, want := len(task.Paths), 2*len(base.Tasks[0].Paths); got != want {
		t.Fatalf("%d paths with two tiers, want %d", got, want)
	}
	var sawQuant bool
	for _, p := range task.Paths {
		if !strings.HasSuffix(p.ID, "@i8") {
			continue
		}
		sawQuant = true
		for _, bid := range p.Blocks {
			if !strings.HasSuffix(bid, "@i8") {
				t.Fatalf("quantized path %s holds unsuffixed block %s", p.ID, bid)
			}
			spec := in.Blocks[bid]
			baseSpec, ok := base.Blocks[strings.TrimSuffix(bid, "@i8")]
			if !ok {
				t.Fatalf("no f64 counterpart for %s", bid)
			}
			if spec.ComputeSeconds >= baseSpec.ComputeSeconds {
				t.Fatalf("i8 block %s compute %v not cheaper than f64 %v",
					bid, spec.ComputeSeconds, baseSpec.ComputeSeconds)
			}
			if spec.MemoryGB >= baseSpec.MemoryGB {
				t.Fatalf("i8 block %s memory %v not smaller than f64 %v",
					bid, spec.MemoryGB, baseSpec.MemoryGB)
			}
			if spec.TrainSeconds != baseSpec.TrainSeconds {
				t.Fatalf("i8 block %s train cost %v != f64 %v (post-training quantization shares training)",
					bid, spec.TrainSeconds, baseSpec.TrainSeconds)
			}
		}
	}
	if !sawQuant {
		t.Fatal("no quantized paths emitted")
	}
}

func TestQuantizedAccuracyPenaltyApplied(t *testing.T) {
	tiers := []PrecisionSpec{DefaultPrecisionSpec("f64"), DefaultPrecisionSpec("i8")}
	in := precisionInstance(t, tiers, 2.5)
	byID := map[string]core.PathSpec{}
	for _, p := range in.Tasks[0].Paths {
		byID[p.ID] = p
	}
	for id, p := range byID {
		if !strings.HasSuffix(id, "@i8") {
			continue
		}
		basePath, ok := byID[strings.TrimSuffix(id, "@i8")]
		if !ok {
			t.Fatalf("no f64 counterpart for path %s", id)
		}
		want := basePath.Accuracy - DefaultPrecisionSpec("i8").accuracyPenalty
		if want < 0 {
			want = 0
		}
		if p.Accuracy != want {
			t.Fatalf("path %s accuracy %v, want %v", id, p.Accuracy, want)
		}
	}
}

// The point of surfacing quantization to the solver: under a starved
// compute budget, offering i8 variants must admit at least one more task
// or strictly lower the objective.
func TestQuantizedVariantsImproveAdmissionOrCost(t *testing.T) {
	const compute = 0.05 // far below the Table-IV 2.5 s: compute-starved
	base := precisionInstance(t, nil, compute)
	quant := precisionInstance(t,
		[]PrecisionSpec{DefaultPrecisionSpec("f64"), DefaultPrecisionSpec("i8")}, compute)

	sb, err := core.SolveOffloaDNN(base)
	if err != nil {
		t.Fatal(err)
	}
	sq, err := core.SolveOffloaDNN(quant)
	if err != nil {
		t.Fatal(err)
	}
	admitted := func(s *core.Solution) int {
		n := 0
		for _, a := range s.Assignments {
			if a.Admitted() {
				n++
			}
		}
		return n
	}
	ab, aq := admitted(sb), admitted(sq)
	if aq < ab {
		t.Fatalf("quantized catalog admits %d < baseline %d", aq, ab)
	}
	if aq == ab && sq.Cost >= sb.Cost-1e-12 {
		t.Fatalf("quantized catalog: same admission (%d) and no cost gain (%.6f vs %.6f)",
			aq, sq.Cost, sb.Cost)
	}
	var usedQuant bool
	for _, a := range sq.Assignments {
		if a.Admitted() && strings.Contains(a.Path.ID, "@i8") {
			usedQuant = true
			break
		}
	}
	if !usedQuant {
		t.Fatal("solver never picked a quantized path despite the gain")
	}
}

// Precision pricing must not disturb the seed catalog: no tiers, no
// suffixes, identical IDs.
func TestNoPrecisionTiersMatchesSeedCatalog(t *testing.T) {
	in := precisionInstance(t, nil, 2.5)
	for _, task := range in.Tasks {
		for _, p := range task.Paths {
			if strings.Contains(p.ID, "@") {
				t.Fatalf("unexpected precision suffix in path %s", p.ID)
			}
			for _, bid := range p.Blocks {
				if strings.Contains(bid, "@") {
					t.Fatalf("unexpected precision suffix in block %s", bid)
				}
			}
		}
	}
}
