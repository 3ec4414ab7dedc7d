package core

import (
	"errors"
	"maps"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"offloadnn/internal/radio"
)

// paperB is the Table-IV per-RB rate B = 0.35 Mb/s.
var paperB = radio.PaperRate().Rate

func TestMinSlicesThroughput(t *testing.T) {
	// 5 req/s × 350 Kb = 1.75 Mb/s over 0.35 Mb/s per RB → 5 RBs; 2.5 req/s
	// → 2.5 RBs → 3; a zero rate needs none.
	for _, tc := range []struct {
		rate float64
		want int
	}{{5, 5}, {2.5, 3}, {0, 0}} {
		if _, r := MinSlices(350e3, paperB, 10, tc.rate); r != tc.want {
			t.Errorf("rate %v: rFull = %d, want %d", tc.rate, r, tc.want)
		}
	}
}

func TestMinSlicesLatency(t *testing.T) {
	// β/(B·r) ≤ 200 ms with β = 350 Kb, B = 0.35 Mb/s → r ≥ 5.
	if r, _ := MinSlices(350e3, paperB, 0.2, 1); r != 5 {
		t.Fatalf("rLat = %d, want 5", r)
	}
	// A generous slack still needs one RB.
	if r, _ := MinSlices(350e3, paperB, 1e3, 1); r != 1 {
		t.Fatalf("rLat = %d, want 1", r)
	}
}

// Property: the minimal slices satisfy their constraints, and one fewer
// RB violates them.
func TestQuickMinSlicesTight(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rate := rng.Float64()*9 + 0.5 // req/s
		bits := rng.Float64()*5e5 + 1e4
		slack := rng.Float64()*0.5 + 0.01
		rLat, rFull := MinSlices(bits, paperB, slack, rate)
		if rate*bits > paperB*float64(rFull)+1e-6 || rFull > 0 && rate*bits <= paperB*float64(rFull-1)-1e-6 {
			return false
		}
		if bits/(paperB*float64(rLat)) > slack+1e-9 || rLat > 1 && bits/(paperB*float64(rLat-1)) <= slack-1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// reserveInstance is a four-block catalog over a pool of 1 GB, 1 s/s of
// compute and 10 RBs.
func reserveInstance() *Instance {
	return &Instance{
		Blocks: map[string]BlockSpec{
			"a": {ID: "a", ComputeSeconds: 0.01, MemoryGB: 0.3, TrainSeconds: 5},
			"b": {ID: "b", ComputeSeconds: 0.02, MemoryGB: 0.2, TrainSeconds: 5},
			"c": {ID: "c", ComputeSeconds: 0.05, MemoryGB: 0.4, TrainSeconds: 5},
			"d": {ID: "d", ComputeSeconds: 2, MemoryGB: 0.9, TrainSeconds: 5},
		},
		Res: Resources{RBs: 10, ComputeSeconds: 1, MemoryGB: 1, TrainBudgetSeconds: 1, Capacity: radio.PaperRate()},
	}
}

// TestReserveChargesOnce: a shared block's memory is charged once, every
// reservation's compute and RBs come off the budgets, the blocks become
// resident in a map Reserve allocated, and prices stay where they were.
func TestReserveChargesOnce(t *testing.T) {
	in := reserveInstance()
	before := in.Res
	caller := map[string]bool{"c": false}
	in.Predeployed = caller
	if err := in.Reserve(
		Reservation{Blocks: []string{"a", "b"}, Rate: 10, RBs: 3},
		Reservation{Blocks: []string{"a"}, Rate: 5},
	); err != nil {
		t.Fatal(err)
	}
	if got := in.Res.MemoryGB; math.Abs(got-0.5) > 1e-12 {
		t.Errorf("M left %v, want 0.5 (a and b charged once)", got)
	}
	if got := in.Res.ComputeSeconds; math.Abs(got-0.65) > 1e-12 {
		t.Errorf("C left %v, want 1 − 10·0.03 − 5·0.01 = 0.65", got)
	}
	if in.Res.RBs != 7 {
		t.Errorf("R left %d, want 7", in.Res.RBs)
	}
	if !in.Predeployed["a"] || !in.Predeployed["b"] || in.Predeployed["c"] {
		t.Errorf("resident %v, want a and b", in.Predeployed)
	}
	if len(caller) != 1 || caller["c"] {
		t.Errorf("Reserve wrote into the caller's Predeployed map: %v", caller)
	}
	if in.Res.Norm == nil || in.Res.Norm.MemoryGB != 1 || in.Res.Norm.ComputeSeconds != 1 || in.Res.Norm.RBs != 10 ||
		in.Res.Norm.TrainBudgetSeconds != 1 {
		t.Errorf("Norm %+v, want the budgets before the reservation", in.Res.Norm)
	}
	if in.Res.priceRBs() != before.RBs || in.Res.priceComputeSeconds() != before.ComputeSeconds {
		t.Error("a reservation moved the prices")
	}

	// A path over the resident blocks pays no memory and no training; a
	// second Reserve keeps the pinned prices.
	if in.BlockMemoryGB("a") != 0 || in.blockTrainSeconds("b") != 0 || in.BlockMemoryGB("c") != 0.4 {
		t.Error("resident blocks are not free, or a non-resident one is")
	}
	norm := in.Res.Norm
	if err := in.Reserve(Reservation{Blocks: []string{"c"}, Rate: 1}); err != nil {
		t.Fatal(err)
	}
	if in.Res.Norm != norm {
		t.Error("a second Reserve re-pinned Norm")
	}
	if err := in.Reserve(); err != nil || in.Res.Norm != norm {
		t.Errorf("empty Reserve: %v", err)
	}
}

// TestReserveRefusesWithoutMutating: each malformed or oversized
// reservation is refused with the error class and constraint it breaks,
// and the instance is left exactly as it was.
func TestReserveRefusesWithoutMutating(t *testing.T) {
	for _, tc := range []struct {
		name string
		r    Reservation
		want error
		msg  string
	}{
		{"unknown block", Reservation{Blocks: []string{"a", "zz"}, Rate: 1}, errModel, `"zz"`},
		{"negative rate", Reservation{Blocks: []string{"a"}, Rate: -1}, errModel, "rate"},
		{"NaN rate", Reservation{Blocks: []string{"a"}, Rate: math.NaN()}, errModel, "rate"},
		{"negative RBs", Reservation{Blocks: []string{"a"}, RBs: -1}, errModel, "RBs"},
		{"infinite charge", Reservation{Blocks: []string{"d"}, Rate: math.MaxFloat64}, errModel, "compute"},
		{"memory", Reservation{Blocks: []string{"a", "d"}}, ErrOverCapacity, "(1b)"},
		{"compute", Reservation{Blocks: []string{"c"}, Rate: 21}, ErrOverCapacity, "(1c)"},
		{"radio", Reservation{Blocks: []string{"a"}, RBs: 11}, ErrOverCapacity, "(1d)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := reserveInstance()
			in.Predeployed = map[string]bool{"a": false}
			res, pre := in.Res, maps.Clone(in.Predeployed)
			err := in.Reserve(Reservation{Blocks: []string{"b"}, Rate: 1, RBs: 1}, tc.r)
			if !errors.Is(err, tc.want) || !strings.Contains(err.Error(), tc.msg) {
				t.Fatalf("err = %v, want %v naming %s", err, tc.want, tc.msg)
			}
			if in.Res != res || !maps.Equal(in.Predeployed, pre) {
				t.Fatalf("refused Reserve mutated the instance: %+v, %v", in.Res, in.Predeployed)
			}
		})
	}
}

// TestSolveAroundReservation: a solve over a reserved instance plans
// around the reservation — its solution passes Check on that instance,
// and together with the reservation it never exceeds the unreserved
// budgets.
func TestSolveAroundReservation(t *testing.T) {
	in := testInstance(6, 3, 21)
	full := in.Res
	path := in.Tasks[0].Paths[0]
	rsv := Reservation{Blocks: path.Blocks, Rate: 1.5 / in.PathCompute(&path), RBs: 20}
	if err := in.Reserve(rsv); err != nil {
		t.Fatal(err)
	}
	sol, err := SolveOffloaDNN(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Check(sol.Assignments); err != nil {
		t.Fatalf("solution over the reserved instance fails its Check: %v", err)
	}
	bd := sol.Breakdown
	if bd.ComputeUsage+1.5 > full.ComputeSeconds+1e-6 || bd.RBsAllocated+20 > float64(full.RBs)+1e-6 {
		t.Fatalf("solution plus reservation uses C %v of %v, R %v of %d",
			bd.ComputeUsage+1.5, full.ComputeSeconds, bd.RBsAllocated+20, full.RBs)
	}
}
