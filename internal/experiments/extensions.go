package experiments

import (
	"fmt"
	"strings"

	"offloadnn/internal/core"
	"offloadnn/internal/workload"
)

// runHetero is the two-family extension: the large scenario served by a
// catalog mixing ResNet-18-derived blocks with a MobileNetV2-class "lite"
// family. OffloaDNN migrates accuracy-relaxed tasks onto lite blocks,
// cutting compute and memory further than the single-family Table-IV
// catalog; accuracy-hungry tasks stay on ResNet paths.
func runHetero(Options) ([]Table, error) {
	t := Table{
		title: "Extension — heterogeneous DNN families (large scenario): ResNet-only vs ResNet+lite catalog",
		columns: []string{"load", "catalog", "admitted", "memory [GB]", "compute [s/s]",
			"lite paths used"},
		notes: []string{
			"the lite family (MobileNetV2-class: ~60% less compute, ~3 points lower accuracy ceiling)",
			"clears every Table-IV accuracy floor (max 0.785), so all tasks migrate to it and memory/",
			"compute drop ~3x further; floors above ~0.85 (small-scenario task 1) pin tasks to ResNet",
		},
	}
	for _, load := range []workload.Load{workload.LoadLow, workload.LoadMedium, workload.LoadHigh} {
		single, err := workload.LargeScenario(load)
		if err != nil {
			return nil, err
		}
		hetero, err := workload.HeterogeneousScenario(load)
		if err != nil {
			return nil, err
		}
		for _, tc := range []struct {
			name string
			in   *core.Instance
		}{
			{"resnet-only", single},
			{"resnet+lite", hetero},
		} {
			sol, err := core.SolveOffloaDNN(tc.in)
			if err != nil {
				return nil, fmt.Errorf("hetero %v/%s: %w", load, tc.name, err)
			}
			if err := tc.in.Check(sol.Assignments); err != nil {
				return nil, fmt.Errorf("hetero %v/%s: %w", load, tc.name, err)
			}
			lite := 0
			for _, a := range sol.Assignments {
				if a.Admitted() && strings.HasPrefix(a.Path.DNN, "lite-") {
					lite++
				}
			}
			t.rows = append(t.rows, []string{
				load.String(),
				tc.name,
				fmt.Sprintf("%d", sol.Breakdown.AdmittedTasks),
				f2(sol.Breakdown.MemoryGB),
				f(sol.Breakdown.ComputeUsage),
				fmt.Sprintf("%d", lite),
			})
		}
	}
	return []Table{t}, nil
}

// runDynamic exercises the Sec. III-B incremental scenario over arrival
// waves: each round admits newly arrived tasks against the capacities
// left by earlier rounds, with already-deployed blocks free. The reported
// memory increments shrink as the shared backbone amortizes.
func runDynamic(Options) ([]Table, error) {
	full, err := workload.LargeScenario(workload.LoadLow)
	if err != nil {
		return nil, err
	}
	waves := [][]int{{0, 1, 2, 3, 4, 5}, {6, 7, 8, 9, 10, 11, 12}, {13, 14, 15, 16, 17, 18, 19}}

	t := Table{
		title: "Extension — dynamic incremental admission (Sec. III-B), low-load large scenario",
		columns: []string{"wave", "arriving", "admitted", "+memory [GB]", "+training [s]",
			"+RBs", "blocks reused free"},
		notes: []string{
			"already-deployed blocks cost zero memory/training in later rounds; the controller",
			"only pays the increment — the remark at the end of Sec. III-B",
		},
	}

	res := full.Res
	deployed := make(map[string]bool)
	for wi, wave := range waves {
		in := &core.Instance{
			Blocks:      full.Blocks,
			Res:         res,
			Alpha:       full.Alpha,
			Predeployed: deployed,
		}
		for _, ti := range wave {
			in.Tasks = append(in.Tasks, full.Tasks[ti])
		}
		sol, err := core.SolveOffloaDNN(in)
		if err != nil {
			return nil, fmt.Errorf("wave %d: %w", wi+1, err)
		}
		if err := in.Check(sol.Assignments); err != nil {
			return nil, fmt.Errorf("wave %d: %w", wi+1, err)
		}
		reused := 0
		for _, id := range sol.Breakdown.ActiveBlocks {
			if deployed[id] {
				reused++
			}
		}
		t.rows = append(t.rows, []string{
			fmt.Sprintf("%d", wi+1),
			fmt.Sprintf("%d", len(wave)),
			fmt.Sprintf("%d", sol.Breakdown.AdmittedTasks),
			f2(sol.Breakdown.MemoryGB),
			fmt.Sprintf("%.0f", sol.Breakdown.TrainSeconds),
			f1(sol.Breakdown.RBsAllocated),
			fmt.Sprintf("%d", reused),
		})
		// Commit the round: discount capacities, mark blocks deployed.
		res.MemoryGB -= sol.Breakdown.MemoryGB
		res.ComputeSeconds -= sol.Breakdown.ComputeUsage
		res.RBs -= int(sol.Breakdown.RBsAllocated + 0.5)
		next := make(map[string]bool, len(deployed)+len(sol.Breakdown.ActiveBlocks))
		for id := range deployed {
			next[id] = true
		}
		for _, id := range sol.Breakdown.ActiveBlocks {
			next[id] = true
		}
		deployed = next
	}
	return []Table{t}, nil
}
