package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// approxEqual reports whether got is within tol of want.
func approxEqual(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol
}

// lpZStep states the z-step the way the allocator used to hand it to the
// dense simplex — the two coupling rows plus one box row per column —
// and returns the oracle's optimum of max Σ v·z.
func lpZStep(cols []zColumn, capA, capB float64) (float64, error) {
	n := len(cols)
	p := lpProblem{C: make([]float64, n), A: make([][]float64, 2, n+2), B: []float64{capA, capB}}
	p.A[0], p.A[1] = make([]float64, n), make([]float64, n)
	for j, c := range cols {
		p.C[j] = -c.v
		p.A[0][j], p.A[1][j] = c.a, c.b
		box := make([]float64, n)
		box[j] = 1
		p.A = append(p.A, box)
		p.B = append(p.B, c.u)
	}
	sol, err := lpSolve(p)
	if err != nil {
		return 0, err
	}
	return -sol.Obj, nil
}

// checkZStep holds one z-step to the oracle: it must return (so never
// hit its iteration cap), satisfy both rows and the box within 1e-9, and
// reach lp's objective within 1e-9·(1+|obj|).
func checkZStep(tb testing.TB, name string, cols []zColumn, capA, capB float64) {
	tb.Helper()
	z := make([]float64, len(cols))
	if err := solveZStep(context.Background(), cols, capA, capB, z); err != nil {
		tb.Fatalf("%s: z-step: %v", name, err)
	}
	var obj, useA, useB float64
	for j, c := range cols {
		if z[j] < 0 || z[j] > c.u+1e-9 {
			tb.Fatalf("%s: z[%d] = %v outside [0, %v]", name, j, z[j], c.u)
		}
		obj += c.v * z[j]
		useA += c.a * z[j]
		useB += c.b * z[j]
	}
	if useA > capA+1e-9 || useB > capB+1e-9 {
		tb.Fatalf("%s: rows use (%v, %v) of (%v, %v)", name, useA, useB, capA, capB)
	}
	want, err := lpZStep(cols, capA, capB)
	if err != nil {
		tb.Fatalf("%s: lp oracle: %v", name, err)
	}
	if !approxEqual(obj, want, 1e-9*(1+math.Abs(want))) {
		tb.Fatalf("%s: z-step objective %.12g, lp %.12g (Δ %.3g) on %d columns, caps (%v, %v)",
			name, obj, want, obj-want, len(cols), capA, capB)
	}
}

// zHandCases are the z-steps a one-row knapsack gets wrong, all on the
// grid FuzzZStep decodes (v in 1/128ths, a in 1/32nds, integral b, u in
// 1/200ths, capacities in 1/8ths and halves) so they seed its corpus
// exactly.
var zHandCases = []struct {
	name       string
	cols       []zColumn
	capA, capB float64
}{
	{"both rows bind, two fractional columns",
		[]zColumn{{1, 2, 1, 1}, {1, 1, 2, 1}, {0.25, 1, 1, 1}}, 1.5, 1.5},
	{"only compute binds",
		[]zColumn{{1, 1, 1, 1}, {0.5, 1, 1, 1}, {0.75, 2, 1, 1}}, 1.5, 100},
	{"only radio binds",
		[]zColumn{{1, 0.25, 4, 1}, {0.5, 0.25, 3, 1}, {0.75, 0.25, 2, 1}}, 30, 5},
	{"neither binds",
		[]zColumn{{1, 1, 1, 1}, {0.5, 1, 2, 0.5}, {0.25, 0.5, 1, 1}}, 30, 100},
	{"equal v/a ratios",
		[]zColumn{{0.5, 1, 1, 1}, {1, 2, 1, 1}, {0.25, 0.5, 1, 1}, {0.5, 1, 2, 1}}, 2, 3},
	{"identical columns",
		[]zColumn{{0.5, 1, 2, 1}, {0.5, 1, 2, 1}, {0.5, 1, 2, 1}, {0.5, 1, 2, 1}}, 2.5, 5},
	{"zero compute coefficient",
		[]zColumn{{0.5, 0, 2, 1}, {1, 1, 1, 1}, {0.25, 0, 1, 1}}, 0.5, 2.5},
	{"rate-capped bounds",
		[]zColumn{{1, 1, 2, 0.25}, {0.75, 1, 1, 0.5}, {0.5, 1, 1, 0.75}}, 1, 1.5},
	{"nothing earns",
		[]zColumn{{0, 1, 1, 1}, {-0.25, 1, 1, 1}, {-0.5, 0, 1, 1}}, 4, 4},
	{"no compute", []zColumn{{1, 1, 1, 1}, {0.5, 0, 1, 1}}, 0, 4},
	{"no radio", []zColumn{{1, 1, 1, 1}, {0.5, 0, 1, 1}}, 4, 0},
	{"single column, free", []zColumn{{1, 1, 1, 1}}, 4, 4},
	{"single column, blocked", []zColumn{{1, 2, 3, 1}}, 1, 2},
	{"degenerate vertex: both rows and a bound meet",
		[]zColumn{{1, 1, 1, 1}, {0.75, 1, 1, 1}, {0.5, 1, 1, 1}}, 2, 2},
}

// TestZStepMatchesLP holds the two-row bounded simplex to the dense lp
// oracle on the hand table and on 2 000 seeded random instances; the
// paper loads and the scale scenarios are in zstep_scenario_test.go.
func TestZStepMatchesLP(t *testing.T) {
	for _, tc := range zHandCases {
		checkZStep(t, tc.name, tc.cols, tc.capA, tc.capB)
	}
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < 2000; i++ {
		cols := make([]zColumn, 1+rng.Intn(40))
		// Every fourth instance draws from a coarse grid, where equal
		// ratios and degenerate vertices are the rule.
		draw := rng.Float64
		if i%4 == 0 {
			draw = func() float64 { return float64(rng.Intn(5)) / 4 }
		}
		var sumA, sumB float64
		for j := range cols {
			c := zColumn{v: 1.25*draw() - 0.25, a: 2 * draw(), b: float64(1 + rng.Intn(8)), u: 1}
			if rng.Intn(3) == 0 {
				c.u = draw()
			}
			cols[j] = c
			sumA += c.a * c.u
			sumB += c.b * c.u
		}
		// Capacities from nothing to more than every column at its bound.
		checkZStep(t, fmt.Sprintf("random %d", i), cols, 1.2*draw()*sumA, 1.2*draw()*sumB)
	}
}

// encodeZCase is the inverse of decodeZCase on its grid.
func encodeZCase(cols []zColumn, capA, capB float64) []byte {
	out := []byte{byte(capA * 8), byte(capB * 2)}
	for _, c := range cols {
		out = append(out, byte(c.v*128+64), byte(c.a*32), byte(c.b-1), byte(c.u*200))
	}
	return out
}

// decodeZCase maps fuzz bytes to a z-step of at most 32 columns: two
// capacity bytes (C in 1/8ths, R in halves), then four bytes a column —
// v ∈ [−0.5, 1.5) in 1/128ths, a ∈ [0, 8) in 1/32nds, b ∈ {1..8},
// u ∈ [0, 1] in 1/200ths.
func decodeZCase(data []byte) (cols []zColumn, capA, capB float64) {
	if len(data) < 6 {
		return nil, 0, 0
	}
	capA, capB = float64(data[0])/8, float64(data[1])/2
	for data = data[2:]; len(data) >= 4 && len(cols) < 32; data = data[4:] {
		cols = append(cols, zColumn{
			v: (float64(data[0]) - 64) / 128,
			a: float64(data[1]) / 32,
			b: float64(1 + data[2]%8),
			u: math.Min(1, float64(data[3])/200),
		})
	}
	return cols, capA, capB
}

// FuzzZStep feeds the z-step arbitrary small instances: it must return
// without hitting its iteration cap, feasible, and at lp's objective.
func FuzzZStep(f *testing.F) {
	for _, tc := range zHandCases {
		f.Add(encodeZCase(tc.cols, tc.capA, tc.capB))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cols, capA, capB := decodeZCase(data)
		if len(cols) == 0 {
			return
		}
		checkZStep(t, "fuzz", cols, capA, capB)
	})
}

// TestZStepHonorsCancellation pins the per-pass context check: a z-step
// handed a dead context returns its error instead of a solution.
func TestZStepHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := solveZStep(ctx, []zColumn{{1, 1, 1, 1}}, 1, 1, make([]float64, 1))
	if err == nil {
		t.Fatal("z-step ignored a canceled context")
	}
}
