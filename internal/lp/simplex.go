// Package lp implements a dense two-phase primal simplex solver for small
// linear programs. It is the test oracle for core's z-step: the
// allocator's per-branch problem in the admission ratios z is solved by
// a two-row bounded-variable simplex in internal/core, and the tests
// state the same problem here — one explicit row per variable bound —
// to hold that solver to this one's objective. Only _test.go files
// import the package.
//
// Problems are stated in inequality form:
//
//	minimize cᵀx  subject to  A·x ≤ b,  x ≥ 0.
//
// Equality rows can be modeled as two opposing inequalities; variable
// upper bounds as ordinary rows. The solver uses Bland's rule, so it
// terminates on degenerate problems.
package lp

import (
	"context"
	"errors"
	"fmt"
	"math"
)

// ErrInfeasible reports that no point satisfies the constraints.
var ErrInfeasible = errors.New("lp: infeasible")

// ErrUnbounded reports that the objective decreases without bound.
var ErrUnbounded = errors.New("lp: unbounded")

// ErrBadProblem reports malformed input.
var ErrBadProblem = errors.New("lp: malformed problem")

const eps = 1e-9

// Problem is min cᵀx s.t. A·x ≤ b, x ≥ 0.
type Problem struct {
	C []float64   // length n
	A [][]float64 // m rows of length n
	B []float64   // length m
}

// Validate checks dimensional consistency.
func (p Problem) Validate() error {
	n := len(p.C)
	if n == 0 {
		return fmt.Errorf("%w: empty objective", ErrBadProblem)
	}
	if len(p.A) != len(p.B) {
		return fmt.Errorf("%w: %d constraint rows but %d bounds", ErrBadProblem, len(p.A), len(p.B))
	}
	for i, row := range p.A {
		if len(row) != n {
			return fmt.Errorf("%w: row %d has %d coefficients, want %d", ErrBadProblem, i, len(row), n)
		}
	}
	return nil
}

// Solution is an optimal vertex and its objective value.
type Solution struct {
	X   []float64
	Obj float64
}

// Solve runs the two-phase simplex method.
func Solve(p Problem) (*Solution, error) {
	return SolveCtx(context.Background(), p)
}

// ctxCheckRows is the constraint count above which the simplex checks
// the context on every pivot instead of every 64th: a pivot touches
// O(rows × cols) tableau entries, so on large problems one pivot alone
// can take a noticeable fraction of a second and the per-iteration
// check is what keeps the cancellation lag to roughly one pivot. It
// dates from when the allocator handed this solver one row per task; as
// an oracle it sees at most the 512-task differential test.
const ctxCheckRows = 256

// SolveCtx is Solve with cancellation checked every few pivots. Large
// problems (thousands of variables) can spend minutes inside a single
// simplex run, so a caller with a deadline needs the check inside the
// run, not around it.
func SolveCtx(ctx context.Context, p Problem) (*Solution, error) {
	if err := p.Validate(); err != nil {
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
	checkEvery := 64
	if m >= ctxCheckRows {
		checkEvery = 1
	}
	runSimplex := func(obj []float64, lim int) error {
		for iter := 0; iter < 10000*(m+ncols+1); iter++ {
			if iter%checkEvery == 0 {
				if err := ctx.Err(); err != nil {
					return fmt.Errorf("lp: solve canceled: %w", err)
				}
			}
			// Reduced costs: rc_j = obj_j - Σ_i obj_{basis[i]} · t[i][j].
			entering := -1
			for j := 0; j < lim; j++ {
				rc := obj[j]
				for i := 0; i < m; i++ {
					if bj := basis[i]; bj < len(obj) && obj[bj] != 0 {
						rc -= obj[bj] * t[i][j]
					}
				}
				if rc < -eps {
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
				if t[i][entering] > eps {
					r := t[i][ncols] / t[i][entering]
					if r < best-eps || (r < best+eps && (leaving < 0 || basis[i] < basis[leaving])) {
						best = r
						leaving = i
					}
				}
			}
			if leaving < 0 {
				return ErrUnbounded
			}
			pivot(leaving, entering)
		}
		return fmt.Errorf("%w: simplex iteration limit", ErrBadProblem)
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
			return nil, ErrInfeasible
		}
		// Drive remaining artificials out of the basis where possible.
		for i := 0; i < m; i++ {
			if basis[i] >= n+m {
				done := false
				for j := 0; j < n+m && !done; j++ {
					if math.Abs(t[i][j]) > eps {
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
	return &Solution{X: x, Obj: obj}, nil
}
