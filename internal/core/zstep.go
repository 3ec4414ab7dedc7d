package core

import (
	"context"
	"fmt"
	"math"
)

// zColumn is one active task's column of the z-step: with the slices r
// fixed, the per-branch problem of Sec. IV-B is
//
//	max Σ vᵢzᵢ  s.t.  Σ aᵢzᵢ ≤ C,  Σ bᵢzᵢ ≤ R,  0 ≤ zᵢ ≤ uᵢ.
type zColumn struct {
	v float64 // objective gain per unit of z: αp − (1−α)(r/R̂ + λc/Ĉ)
	a float64 // compute row (1c) coefficient λ·c(π), ≥ 0
	b float64 // radio row (1d) coefficient r, ≥ 0
	u float64 // upper bound min(1, B·r/(λβ))
}

// zTol is the pricing and pivot tolerance of the z-step, the same 1e-9
// the lp oracle uses: a reduced cost within it does not improve, a
// direction component within it does not block.
const zTol = 1e-9

// zSimplex is the state of one z-step solve: a bounded-variable primal
// simplex on the two coupling rows. A non-basic column sits at 0 or at
// its bound u; the basis holds two of the n structural columns and the
// two row slacks (column n is the compute slack, n+1 the radio slack).
// Nothing else is stored — no tableau, no box rows — and inv, x and y
// are recomputed from the columns at every basis change, so rounding
// never accumulates across pivots.
type zSimplex struct {
	cols    []zColumn
	caps    [2]float64    // C, R
	atUpper []bool        // non-basic structural sits at u (else at 0)
	bas     [2]int        // basic column of each row
	inv     [2][2]float64 // inverse of the 2×2 basis matrix
	x       [2]float64    // values of the basic columns
	y       [2]float64    // row duals c_B·B⁻¹
}

// column returns the two row coefficients of column j.
func (s *zSimplex) column(j int) (a, b float64) {
	switch n := len(s.cols); j {
	case n:
		return 1, 0
	case n + 1:
		return 0, 1
	default:
		return s.cols[j].a, s.cols[j].b
	}
}

// gain returns the objective coefficient of column j (slacks earn 0).
func (s *zSimplex) gain(j int) float64 {
	if j < len(s.cols) {
		return s.cols[j].v
	}
	return 0
}

// upper returns the bound of column j (slacks have none).
func (s *zSimplex) upper(j int) float64 {
	if j < len(s.cols) {
		return s.cols[j].u
	}
	return math.Inf(1)
}

// refactor recomputes the basis inverse, the basic values and the duals
// from the columns and the current bound assignment.
func (s *zSimplex) refactor() error {
	a0, b0 := s.column(s.bas[0])
	a1, b1 := s.column(s.bas[1])
	det := a0*b1 - a1*b0
	if det == 0 {
		return fmt.Errorf("basis (%d, %d) is singular", s.bas[0], s.bas[1])
	}
	s.inv = [2][2]float64{{b1 / det, -a1 / det}, {-b0 / det, a0 / det}}
	rhs := s.caps
	for j, up := range s.atUpper {
		if up {
			rhs[0] -= s.cols[j].a * s.cols[j].u
			rhs[1] -= s.cols[j].b * s.cols[j].u
		}
	}
	g0, g1 := s.gain(s.bas[0]), s.gain(s.bas[1])
	for k := 0; k < 2; k++ {
		s.x[k] = s.inv[k][0]*rhs[0] + s.inv[k][1]*rhs[1]
		s.y[k] = g0*s.inv[0][k] + g1*s.inv[1][k]
	}
	return nil
}

// ratio is the ratio test for moving non-basic column j in direction dir
// (+1 up from 0, −1 down from u): how far it can go before a basic
// column reaches one of its bounds, which row that is (−1 when nothing
// blocks), and whether the blocking column stops at its upper bound.
// w = B⁻¹·colⱼ is returned for the caller's update of x. Ties between
// the rows go to the lower column index (Bland).
func (s *zSimplex) ratio(j int, dir float64) (t float64, row int, toUpper bool, w [2]float64) {
	a, b := s.column(j)
	t, row = math.Inf(1), -1
	for k := 0; k < 2; k++ {
		w[k] = s.inv[k][0]*a + s.inv[k][1]*b
		rate := dir * w[k] // the basic column of row k moves by −rate per unit step
		var tk float64
		up := false
		switch {
		case rate > zTol:
			tk = s.x[k] / rate
		case rate < -zTol:
			ub := s.upper(s.bas[k])
			if math.IsInf(ub, 1) {
				continue
			}
			tk, up = (s.x[k]-ub)/rate, true
		default:
			continue
		}
		if tk < 0 {
			tk = 0 // a basic value a rounding error outside its bound
		}
		if tk < t || (tk == t && row >= 0 && s.bas[k] < s.bas[row]) {
			t, row, toUpper = tk, k, up
		}
	}
	return t, row, toUpper, w
}

// flip moves non-basic structural j to its other bound; the basis, and
// with it every reduced cost, is unchanged.
func (s *zSimplex) flip(j int, dir float64, w [2]float64) {
	step := dir * s.cols[j].u
	s.x[0] -= step * w[0]
	s.x[1] -= step * w[1]
	s.atUpper[j] = dir > 0
}

// solveZStep solves the z-step over cols with capacities capA (compute)
// and capB (radio), both ≥ 0, and writes the optimal vertex into z. It
// starts from the all-slack basis at z = 0 and repeats one pricing pass
// per iteration: every improving column whose ratio test lets it run to
// its other bound is flipped there on the spot (no basis change, so the
// pass's duals stay valid), and of the improving columns that are
// blocked, the one with the largest reduced cost enters the basis after
// the pass. Once a pivot is degenerate (a step of length 0) the entering
// choice falls back to the lowest index until the objective moves again,
// and leaving ties always go to the lowest index — Bland's rule over
// every stretch in which cycling is possible, so degenerate instances
// terminate; maxPasses is the backstop behind that argument, not a
// budget a real instance approaches (10k columns converge in ≈ 500
// passes). A column that cannot earn (v ≤ 0) or cannot move (u ≤ 0)
// never enters, which loses nothing because a, b ≥ 0 keep z = 0
// feasible for it in any optimum. Memory is O(n), each pass O(n). What
// only rounding could cause — a singular basis, an unbounded slack, the
// pass cap — comes back as an error for the caller to wrap, never as a
// hang or a panic.
func solveZStep(ctx context.Context, cols []zColumn, capA, capB float64, z []float64) error {
	n := len(cols)
	s := &zSimplex{cols: cols, caps: [2]float64{capA, capB}, atUpper: make([]bool, n), bas: [2]int{n, n + 1}}
	if err := s.refactor(); err != nil {
		return err
	}
	maxPasses := 100 * (n + 2)
	stalled := false // the last pivot was degenerate and nothing has moved since
	for pass := 0; ; pass++ {
		if pass == maxPasses {
			return fmt.Errorf("no convergence in %d passes over %d columns", maxPasses, n)
		}
		if err := ctxErr(ctx); err != nil {
			return err
		}
		enter, enterDir, enterD := -1, 0.0, 0.0
		for j := 0; j < n+2; j++ {
			if j == s.bas[0] || j == s.bas[1] {
				continue
			}
			if j < n && (cols[j].v <= 0 || cols[j].u <= 0) {
				continue
			}
			// d is the objective's rate of change along the one move
			// column j has: up from 0, or down from u.
			a, b := s.column(j)
			d, dir := s.gain(j)-s.y[0]*a-s.y[1]*b, 1.0
			if j < n && s.atUpper[j] {
				d, dir = -d, -1
			}
			if d <= zTol {
				continue
			}
			if j < n {
				if t, _, _, w := s.ratio(j, dir); t >= cols[j].u {
					s.flip(j, dir, w)
					stalled = false
					continue
				}
			}
			if enter < 0 || (!stalled && d > enterD) {
				enter, enterDir, enterD = j, dir, d
			}
		}
		if enter < 0 {
			break
		}
		// Flips later in the pass moved x, so the test is taken afresh.
		t, row, toUpper, w := s.ratio(enter, enterDir)
		if enter < n && t >= cols[enter].u {
			s.flip(enter, enterDir, w)
			stalled = false
			continue
		}
		if row < 0 {
			return fmt.Errorf("unbounded along the slack of row %d", enter-n)
		}
		if leave := s.bas[row]; leave < n {
			s.atUpper[leave] = toUpper
		}
		if enter < n {
			s.atUpper[enter] = false
		}
		s.bas[row] = enter
		stalled = t == 0
		if err := s.refactor(); err != nil {
			return err
		}
	}
	// The answer's basic values come from the columns, not from the
	// running updates of the flips since the last basis change.
	if err := s.refactor(); err != nil {
		return err
	}
	for j := range cols {
		z[j] = 0
		if s.atUpper[j] {
			z[j] = cols[j].u
		}
	}
	for k, j := range s.bas {
		if j < n {
			z[j] = math.Min(math.Max(s.x[k], 0), cols[j].u)
		}
	}
	return nil
}
