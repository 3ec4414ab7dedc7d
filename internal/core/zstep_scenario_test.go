package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"offloadnn/internal/core"
	"offloadnn/internal/workload"
)

// TestZStepMatchesLPOnScenarios is the scenario half of
// TestZStepMatchesLP: every alternation round of the first branch of
// every paper load, the heterogeneous extension and two scale scenarios
// (λ jittered ±10 % from a seed, as bench/ does) solves to the lp
// oracle's objective.
func TestZStepMatchesLPOnScenarios(t *testing.T) {
	loads := map[string]func() (*core.Instance, error){
		"small-5": func() (*core.Instance, error) { return workload.SmallScenario(5) },
	}
	for _, l := range []workload.Load{workload.LoadLow, workload.LoadMedium, workload.LoadHigh} {
		loads["large-"+l.String()] = func() (*core.Instance, error) { return workload.LargeScenario(l) }
		loads["hetero-"+l.String()] = func() (*core.Instance, error) { return workload.HeterogeneousScenario(l) }
	}
	for _, n := range []int{128, 512} {
		if n > 128 && testing.Short() {
			continue // the oracle alone needs ≈ 1 s at 512 tasks
		}
		loads[fmt.Sprintf("scale-%d", n)] = func() (*core.Instance, error) {
			in, err := workload.ScaleScenario(n)
			if err != nil {
				return nil, err
			}
			rng := rand.New(rand.NewSource(int64(n)))
			for i := range in.Tasks {
				in.Tasks[i].Rate *= 0.9 + 0.2*rng.Float64()
			}
			return in, nil
		}
	}
	for name, build := range loads {
		in, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rounds := core.CheckZStepRounds(t, name, in); rounds == 0 {
			t.Errorf("%s: no z-step ran", name)
		}
	}
}
