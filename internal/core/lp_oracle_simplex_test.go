package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func lpSolveOK(t *testing.T, p lpProblem) *lpSolution {
	t.Helper()
	s, err := lpSolve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return s
}

func TestLPSolveSimpleMax(t *testing.T) {
	// max x+y s.t. x≤2, y≤3 → min -(x+y), optimum -(5) at (2,3).
	p := lpProblem{
		C: []float64{-1, -1},
		A: [][]float64{{1, 0}, {0, 1}},
		B: []float64{2, 3},
	}
	s := lpSolveOK(t, p)
	if math.Abs(s.Obj+5) > 1e-9 {
		t.Fatalf("obj = %v, want -5", s.Obj)
	}
	if math.Abs(s.X[0]-2) > 1e-9 || math.Abs(s.X[1]-3) > 1e-9 {
		t.Fatalf("x = %v, want (2,3)", s.X)
	}
}

func TestLPSolveClassicDiet(t *testing.T) {
	// min 3x+2y s.t. x+y ≥ 4, x+3y ≥ 6 (as ≤ with negated rows), x,y ≥ 0.
	// Optimum: vertices (4,0):12, (3,1):11, (0,4):8 → check (0,4)... wait
	// x+3y≥6 at (0,4): 12 ≥ 6 ok, x+y=4 ok → obj 8. But (0,2) infeasible.
	p := lpProblem{
		C: []float64{3, 2},
		A: [][]float64{{-1, -1}, {-1, -3}},
		B: []float64{-4, -6},
	}
	s := lpSolveOK(t, p)
	if math.Abs(s.Obj-8) > 1e-7 {
		t.Fatalf("obj = %v, want 8 at (0,4); x = %v", s.Obj, s.X)
	}
}

func TestLPSolveEqualityViaTwoRows(t *testing.T) {
	// min x+2y s.t. x+y = 1 → optimum 1 at (1,0).
	p := lpProblem{
		C: []float64{1, 2},
		A: [][]float64{{1, 1}, {-1, -1}},
		B: []float64{1, -1},
	}
	s := lpSolveOK(t, p)
	if math.Abs(s.Obj-1) > 1e-7 {
		t.Fatalf("obj = %v, want 1; x = %v", s.Obj, s.X)
	}
	if math.Abs(s.X[0]+s.X[1]-1) > 1e-7 {
		t.Fatalf("equality violated: %v", s.X)
	}
}

func TestLPSolveInfeasible(t *testing.T) {
	// x ≤ 1 and x ≥ 2.
	p := lpProblem{
		C: []float64{1},
		A: [][]float64{{1}, {-1}},
		B: []float64{1, -2},
	}
	if _, err := lpSolve(p); !errors.Is(err, errLPInfeasible) {
		t.Fatalf("err = %v, want errLPInfeasible", err)
	}
}

func TestLPSolveUnbounded(t *testing.T) {
	// min -x with no upper bound on x.
	p := lpProblem{
		C: []float64{-1},
		A: [][]float64{{-1}},
		B: []float64{0},
	}
	if _, err := lpSolve(p); !errors.Is(err, errLPUnbounded) {
		t.Fatalf("err = %v, want errLPUnbounded", err)
	}
}

func TestLPSolveDegenerate(t *testing.T) {
	// Degenerate vertex at origin; Bland's rule must terminate.
	p := lpProblem{
		C: []float64{-1, -1},
		A: [][]float64{{1, 1}, {1, 1}, {1, 0}},
		B: []float64{1, 1, 1},
	}
	s := lpSolveOK(t, p)
	if math.Abs(s.Obj+1) > 1e-7 {
		t.Fatalf("obj = %v, want -1", s.Obj)
	}
}

func TestLPValidate(t *testing.T) {
	if _, err := lpSolve(lpProblem{}); !errors.Is(err, errLPBadProblem) {
		t.Fatalf("empty problem err = %v", err)
	}
	p := lpProblem{C: []float64{1}, A: [][]float64{{1, 2}}, B: []float64{1}}
	if _, err := lpSolve(p); !errors.Is(err, errLPBadProblem) {
		t.Fatalf("ragged rows err = %v", err)
	}
	p2 := lpProblem{C: []float64{1}, A: [][]float64{{1}}, B: []float64{}}
	if _, err := lpSolve(p2); !errors.Is(err, errLPBadProblem) {
		t.Fatalf("missing bounds err = %v", err)
	}
}

// bruteForceBoxLP evaluates a box-constrained LP min cᵀx, 0 ≤ x_j ≤ u_j by
// checking the sign of each coefficient (separable optimum).
func bruteForceBoxLP(c, u []float64) float64 {
	obj := 0.0
	for j := range c {
		if c[j] < 0 {
			obj += c[j] * u[j]
		}
	}
	return obj
}

// Property: on separable box problems the simplex matches the analytic
// optimum.
func TestLPQuickBoxProblems(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		c := make([]float64, n)
		u := make([]float64, n)
		a := make([][]float64, n)
		for j := 0; j < n; j++ {
			c[j] = rng.NormFloat64()
			u[j] = rng.Float64()*5 + 0.1
			row := make([]float64, n)
			row[j] = 1
			a[j] = row
		}
		s, err := lpSolve(lpProblem{C: c, A: a, B: u})
		if err != nil {
			return false
		}
		want := bruteForceBoxLP(c, u)
		return math.Abs(s.Obj-want) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: returned solutions are always primal feasible.
func TestLPQuickFeasibilityOfSolutions(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(4)
		m := 1 + rng.Intn(5)
		p := lpProblem{C: make([]float64, n), A: make([][]float64, m), B: make([]float64, m)}
		for j := 0; j < n; j++ {
			p.C[j] = rng.NormFloat64()
		}
		for i := 0; i < m; i++ {
			row := make([]float64, n)
			for j := 0; j < n; j++ {
				row[j] = rng.NormFloat64()
			}
			p.A[i] = row
			p.B[i] = rng.Float64() * 3 // non-negative keeps origin feasible
		}
		// Bound the feasible region to avoid unboundedness.
		for j := 0; j < n; j++ {
			row := make([]float64, n)
			row[j] = 1
			p.A = append(p.A, row)
			p.B = append(p.B, 10)
		}
		s, err := lpSolve(p)
		if err != nil {
			return false // origin is feasible and region bounded: must solve
		}
		for i, row := range p.A {
			lhs := 0.0
			for j := range row {
				lhs += row[j] * s.X[j]
			}
			if lhs > p.B[i]+1e-6 {
				return false
			}
		}
		for _, v := range s.X {
			if v < -1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: the simplex optimum is no worse than any random feasible point
// (local optimality spot check standing in for strong duality).
func TestLPQuickOptimalityAgainstRandomPoints(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(3)
		p := lpProblem{C: make([]float64, n)}
		for j := 0; j < n; j++ {
			p.C[j] = rng.NormFloat64()
			row := make([]float64, n)
			row[j] = 1
			p.A = append(p.A, row)
			p.B = append(p.B, rng.Float64()*4+0.5)
		}
		// One coupling constraint.
		row := make([]float64, n)
		for j := 0; j < n; j++ {
			row[j] = rng.Float64()
		}
		p.A = append(p.A, row)
		p.B = append(p.B, rng.Float64()*4+0.5)

		s, err := lpSolve(p)
		if err != nil {
			return false
		}
		for trial := 0; trial < 50; trial++ {
			x := make([]float64, n)
			for j := 0; j < n; j++ {
				x[j] = rng.Float64() * p.B[j]
			}
			feasible := true
			for i, r := range p.A {
				lhs := 0.0
				for j := range r {
					lhs += r[j] * x[j]
				}
				if lhs > p.B[i] {
					feasible = false
					break
				}
			}
			if !feasible {
				continue
			}
			obj := 0.0
			for j := 0; j < n; j++ {
				obj += p.C[j] * x[j]
			}
			if obj < s.Obj-1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
