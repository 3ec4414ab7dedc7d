package core

// lpSolve is a dense two-phase primal simplex solver for small linear
// programs, kept as the test oracle for the z-step: the allocator's
// per-branch problem in the admission ratios z is solved by a two-row
// bounded-variable simplex (solveZStep), and zstep_test.go states the
// same problem here — one explicit row per variable bound — to hold that
// solver to this one's objective.
//
// Problems are stated in inequality form:
//
//	minimize cᵀx  subject to  A·x ≤ b,  x ≥ 0.
//
// Equality rows can be modeled as two opposing inequalities; variable
// upper bounds as ordinary rows. The solver uses Bland's rule, so it
// terminates on degenerate problems.

import (
	"errors"
	"fmt"
	"math"
)

// errLPInfeasible reports that no point satisfies the constraints.
var errLPInfeasible = errors.New("lp: infeasible")

// errLPUnbounded reports that the objective decreases without bound.
var errLPUnbounded = errors.New("lp: unbounded")

// errLPBadProblem reports malformed input.
var errLPBadProblem = errors.New("lp: malformed problem")

const lpEps = 1e-9

// lpProblem is min cᵀx s.t. A·x ≤ b, x ≥ 0.
type lpProblem struct {
	C []float64   // length n
	A [][]float64 // m rows of length n
	B []float64   // length m
}

// validate checks dimensional consistency.
func (p lpProblem) validate() error {
	n := len(p.C)
	if n == 0 {
		return fmt.Errorf("%w: empty objective", errLPBadProblem)
	}
	if len(p.A) != len(p.B) {
		return fmt.Errorf("%w: %d constraint rows but %d bounds", errLPBadProblem, len(p.A), len(p.B))
	}
	for i, row := range p.A {
		if len(row) != n {
			return fmt.Errorf("%w: row %d has %d coefficients, want %d", errLPBadProblem, i, len(row), n)
		}
	}
	return nil
}

// lpSolution is an optimal vertex and its objective value.
type lpSolution struct {
	X   []float64
	Obj float64
}

// lpSolve runs the two-phase simplex method.
func lpSolve(p lpProblem) (*lpSolution, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	n := len(p.C)
	m := len(p.A)

	// Columns: n structural + m slack + (artificials as needed).
	// Normalize rows to b ≥ 0; rows flipped get artificials (their slack
	// coefficient becomes -1 and cannot start basic).
	type rowT struct {
		a     []float64
		b     float64
		slack float64 // +1 or -1
	}
	rows := make([]rowT, m)
	needArt := make([]bool, m)
	for i := 0; i < m; i++ {
		a := make([]float64, n)
		copy(a, p.A[i])
		b := p.B[i]
		slack := 1.0
		if b < 0 {
			for j := range a {
				a[j] = -a[j]
			}
			b = -b
			slack = -1.0
			needArt[i] = true
		}
		rows[i] = rowT{a: a, b: b, slack: slack}
	}
	nArt := 0
	artCol := make([]int, m)
	for i := range artCol {
		artCol[i] = -1
	}
	for i := 0; i < m; i++ {
		if needArt[i] {
			artCol[i] = n + m + nArt
			nArt++
		}
	}
	ncols := n + m + nArt

	// Build tableau: t[i] = row of length ncols+1 (last = rhs).
	t := make([][]float64, m)
	basis := make([]int, m)
	for i := 0; i < m; i++ {
		t[i] = make([]float64, ncols+1)
		copy(t[i], rows[i].a)
		t[i][n+i] = rows[i].slack
		if artCol[i] >= 0 {
			t[i][artCol[i]] = 1
			basis[i] = artCol[i]
		} else {
			basis[i] = n + i
		}
		t[i][ncols] = rows[i].b
	}

	// pivot performs a standard pivot on (pr, pc).
	pivot := func(pr, pc int) {
		pv := t[pr][pc]
		for j := 0; j <= ncols; j++ {
			t[pr][j] /= pv
		}
		for i := 0; i < m; i++ {
			if i == pr {
				continue
			}
			f := t[i][pc]
			if f == 0 {
				continue
			}
			for j := 0; j <= ncols; j++ {
				t[i][j] -= f * t[pr][j]
			}
		}
		basis[pr] = pc
	}

	// runSimplex minimizes obj (length ncols cost vector) over the current
	// tableau using Bland's rule; lim restricts entering columns to < lim.
	runSimplex := func(obj []float64, lim int) error {
		for iter := 0; iter < 10000*(m+ncols+1); iter++ {
			// Reduced costs: rc_j = obj_j - Σ_i obj_{basis[i]} · t[i][j].
			entering := -1
			for j := 0; j < lim; j++ {
				rc := obj[j]
				for i := 0; i < m; i++ {
					if bj := basis[i]; bj < len(obj) && obj[bj] != 0 {
						rc -= obj[bj] * t[i][j]
					}
				}
				if rc < -lpEps {
					entering = j // Bland: first improving column
					break
				}
			}
			if entering < 0 {
				return nil // optimal
			}
			// Ratio test with Bland tie-breaking (smallest basis index).
			leaving := -1
			best := math.Inf(1)
			for i := 0; i < m; i++ {
				if t[i][entering] > lpEps {
					r := t[i][ncols] / t[i][entering]
					if r < best-lpEps || (r < best+lpEps && (leaving < 0 || basis[i] < basis[leaving])) {
						best = r
						leaving = i
					}
				}
			}
			if leaving < 0 {
				return errLPUnbounded
			}
			pivot(leaving, entering)
		}
		return fmt.Errorf("%w: simplex iteration limit", errLPBadProblem)
	}

	// Phase 1: minimize sum of artificials.
	if nArt > 0 {
		obj1 := make([]float64, ncols)
		for i := 0; i < m; i++ {
			if artCol[i] >= 0 {
				obj1[artCol[i]] = 1
			}
		}
		if err := runSimplex(obj1, ncols); err != nil {
			return nil, err
		}
		// Objective value of phase 1.
		v := 0.0
		for i := 0; i < m; i++ {
			if artCol2 := basis[i]; artCol2 >= n+m {
				v += t[i][ncols]
			}
		}
		if v > 1e-7 {
			return nil, errLPInfeasible
		}
		// Drive remaining artificials out of the basis where possible.
		for i := 0; i < m; i++ {
			if basis[i] >= n+m {
				done := false
				for j := 0; j < n+m && !done; j++ {
					if math.Abs(t[i][j]) > lpEps {
						pivot(i, j)
						done = true
					}
				}
				// A row with no structural pivot is redundant; its rhs is
				// ~0, leave the artificial basic at zero.
			}
		}
	}

	// Phase 2: original objective over structural + slack columns.
	obj2 := make([]float64, ncols)
	copy(obj2, p.C)
	if err := runSimplex(obj2, n+m); err != nil {
		return nil, err
	}

	x := make([]float64, n)
	for i := 0; i < m; i++ {
		if basis[i] < n {
			x[basis[i]] = t[i][ncols]
		}
	}
	obj := 0.0
	for j := 0; j < n; j++ {
		obj += p.C[j] * x[j]
	}
	return &lpSolution{X: x, Obj: obj}, nil
}
