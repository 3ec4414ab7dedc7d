package core

import (
	"math"
	"testing"
	"time"

	"offloadnn/internal/radio"
)

// bruteForceAllocation grids z over [0,1] in steps and searches r over a
// small integer range per task, returning the best feasible cost. It is
// deliberately exponential — a reference for the allocator on tiny
// instances.
func bruteForceAllocation(in *Instance, assignments []Assignment, zSteps, rMax int) float64 {
	n := len(assignments)
	best := math.Inf(1)
	zs := make([]float64, n)
	rs := make([]int, n)

	work := make([]Assignment, n)
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			copy(work, assignments)
			for j := range work {
				if work[j].Path == nil {
					continue
				}
				work[j].Z = zs[j]
				work[j].RBs = rs[j]
			}
			if err := in.Check(work); err != nil {
				return
			}
			bd, err := in.evaluate(work)
			if err != nil {
				return
			}
			if c := bd.costValue(); c < best {
				best = c
			}
			return
		}
		if assignments[i].Path == nil {
			zs[i], rs[i] = 0, 0
			rec(i + 1)
			return
		}
		for zi := 0; zi <= zSteps; zi++ {
			zs[i] = float64(zi) / float64(zSteps)
			if zs[i] == 0 {
				rs[i] = 0
				rec(i + 1)
				continue
			}
			for r := 1; r <= rMax; r++ {
				rs[i] = r
				rec(i + 1)
			}
		}
	}
	rec(0)
	return best
}

// tinyAllocInstance builds a 2-task instance with one fixed path each so
// the allocation problem is isolated from path selection.
func tinyAllocInstance(rbs int, compute float64) *Instance {
	in := &Instance{
		Blocks: map[string]BlockSpec{
			"a": {ID: "a", ComputeSeconds: 0.01, MemoryGB: 0.5, TrainSeconds: 100},
			"b": {ID: "b", ComputeSeconds: 0.02, MemoryGB: 0.8, TrainSeconds: 50},
		},
		Res: Resources{
			RBs: rbs, ComputeSeconds: compute, MemoryGB: 10, TrainBudgetSeconds: 1000,
			Capacity: radio.FixedRate{Rate: 1e6},
		},
		Alpha: 0.5,
		Tasks: []Task{
			{ID: "t1", Priority: 0.9, Rate: 3, MaxLatency: 400 * time.Millisecond,
				InputBits: 2e5, MinAccuracy: 0.5,
				Paths: []PathSpec{{ID: "p", DNN: "d", Blocks: []string{"a"}, Accuracy: 0.9}}},
			{ID: "t2", Priority: 0.4, Rate: 4, MaxLatency: 500 * time.Millisecond,
				InputBits: 2e5, MinAccuracy: 0.5,
				Paths: []PathSpec{{ID: "p", DNN: "d", Blocks: []string{"b"}, Accuracy: 0.9}}},
		},
	}
	return in
}

func TestAllocatorMatchesBruteForce(t *testing.T) {
	cases := []struct {
		name    string
		rbs     int
		compute float64
	}{
		{"ample", 20, 1},
		{"rb-constrained", 3, 1},
		{"compute-constrained", 20, 0.05},
		{"both-tight", 4, 0.08},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := tinyAllocInstance(tc.rbs, tc.compute)
			assignments := []Assignment{
				{TaskID: "t1", Path: &in.Tasks[0].Paths[0]},
				{TaskID: "t2", Path: &in.Tasks[1].Paths[0]},
			}
			if err := in.OptimizeAllocation(assignments); err != nil {
				t.Fatal(err)
			}
			if err := in.Check(assignments); err != nil {
				t.Fatalf("allocator output infeasible: %v", err)
			}
			bd, err := in.evaluate(assignments)
			if err != nil {
				t.Fatal(err)
			}
			got := bd.costValue()
			// Brute force over a 25-step z grid and r up to 8; the grid is a
			// relaxation of neither problem, so allow a small slack in both
			// directions (the allocator's LP can beat the grid between steps).
			want := bruteForceAllocation(in, assignments, 25, 8)
			if got > want+0.02 {
				t.Fatalf("allocator cost %v worse than brute force %v", got, want)
			}
		})
	}
}

func TestAllocatorZeroBudgetsRejectAll(t *testing.T) {
	in := tinyAllocInstance(0, 0)
	assignments := []Assignment{
		{TaskID: "t1", Path: &in.Tasks[0].Paths[0]},
		{TaskID: "t2", Path: &in.Tasks[1].Paths[0]},
	}
	if err := in.OptimizeAllocation(assignments); err != nil {
		t.Fatal(err)
	}
	for _, a := range assignments {
		if a.Z != 0 || a.RBs != 0 {
			t.Fatalf("zero budgets admitted %+v", a)
		}
	}
}

func TestAllocatorRBsAreMinimalForChosenZ(t *testing.T) {
	in := tinyAllocInstance(20, 1)
	assignments := []Assignment{
		{TaskID: "t1", Path: &in.Tasks[0].Paths[0]},
		{TaskID: "t2", Path: &in.Tasks[1].Paths[0]},
	}
	if err := in.OptimizeAllocation(assignments); err != nil {
		t.Fatal(err)
	}
	for i, a := range assignments {
		if !a.Admitted() {
			continue
		}
		// Removing one RB must violate a constraint (rate or latency).
		task := &in.Tasks[i]
		b := in.Res.Capacity.BitsPerRBPerSecond(task.SNRdB)
		smaller := a
		smaller.RBs--
		if smaller.RBs < 1 {
			continue
		}
		lat, err := in.EndToEndLatency(task, smaller)
		rateOK := a.Z*task.Rate*a.Bits(task) <= b*float64(smaller.RBs)+1e-9
		latOK := err == nil && lat <= task.MaxLatency
		if rateOK && latOK {
			t.Fatalf("task %s slice %d not minimal (r-1 still feasible)", a.TaskID, a.RBs)
		}
	}
}
