package lp

import (
	"context"
	"fmt"
	"math"
	"slices"

	"sagrelay/internal/fault"
)

// The warm path solves the problem in bounded-variable form: rows are only
// the problem's own constraints (no explicit bound rows), every constraint
// k gets a logical variable s_k with
//
//	a_k.x + s_k = b_k,   s_k in [0,+Inf) (LE) | (-Inf,0] (GE) | [0,0] (EQ)
//
// and variable bounds are implicit — nonbasic columns sit at a bound
// (AtLower/AtUpper). Because bounds never appear in the matrix, a
// branch-and-bound child that differs from its parent by one variable
// bound has the *same* matrix, so the parent's optimal basis stays
// structurally valid and — since reduced costs do not depend on bounds —
// dual feasible. The dual simplex then repairs primal feasibility in a
// handful of pivots where a cold solve would re-run both phases.

// singEps is the pivot tolerance below which a column is treated as
// linearly dependent during basis refactorization.
const singEps = 1e-8

// dualEps is the reduced-cost tolerance for dual feasibility.
const dualEps = 1e-7

// dualStallLimit is the number of consecutive dual iterations without
// primal-infeasibility progress after which pivot selection switches to
// Bland's rule (deterministic anti-cycling; Bland's dual rule terminates).
const dualStallLimit = 100

// dualCand is one candidate of the dual ratio test.
type dualCand struct {
	j     int
	ratio float64
	abs   float64 // |alpha_rj|
}

// warmAttempt runs the bound-flipping dual simplex from basis. Any
// condition that makes the warm start unusable returns an error wrapping
// ErrWarmStart (the caller falls back to the cold path); context and fault
// errors are returned untyped so they propagate instead of falling back.
func (s *Solver) warmAttempt(ctx context.Context, p *Problem, lower, upper map[int]float64, basis *Basis) (*Solution, error) {
	n, m := len(p.obj), len(p.cons)
	ncols := n + m
	if basis.Len() != ncols {
		return nil, fmt.Errorf("%w: basis has %d columns, problem has %d", ErrWarmStart, basis.Len(), ncols)
	}
	if err := validateInputs(p, lower, upper); err != nil {
		return nil, err
	}
	if err := s.effectiveBounds(p, lower, upper); err != nil {
		return nil, err
	}
	// An empty variable domain is infeasible outright — the cold path proves
	// the same through phase 1.
	for i := 0; i < n; i++ {
		if s.lb[i] > s.ub[i] {
			return &Solution{Status: Infeasible, WarmStarted: true}, nil
		}
	}
	if ctx == context.Background() {
		ctx = nil
	}

	// Column bounds: structural then logical.
	s.wlow = grow(s.wlow, ncols)
	s.wupp = grow(s.wupp, ncols)
	copy(s.wlow, s.lb[:n])
	copy(s.wupp, s.ub[:n])
	for k, c := range p.cons {
		switch c.op {
		case LE:
			s.wlow[n+k], s.wupp[n+k] = 0, math.Inf(1)
		case GE:
			s.wlow[n+k], s.wupp[n+k] = math.Inf(-1), 0
		case EQ:
			s.wlow[n+k], s.wupp[n+k] = 0, 0
		default:
			return nil, fmt.Errorf("lp: internal: invalid op %v", c.op)
		}
	}

	// B^-1 [A | I | b], the basis and the reduced costs depend only on
	// (problem, basis), so the sibling of a node that already factorized
	// this parent basis restores the parked result instead.
	width := ncols + 1
	s.wflat = grow(s.wflat, m*width)
	if cap(s.wrows) < m {
		s.wrows = make([][]float64, m)
	}
	s.wrows = s.wrows[:m]
	for k := 0; k < m; k++ {
		s.wrows[k] = s.wflat[k*width : (k+1)*width]
	}
	s.nz = growInt(s.nz, width)
	s.wstatus = growStatus(s.wstatus, ncols)
	s.wbasis = growInt(s.wbasis, m)
	s.wd = grow(s.wd, ncols)
	if s.restoreFactor(p, basis) {
		factorReusesTotal.Add(1)
	} else {
		refactorizationsTotal.Add(1)
		if err := s.refactor(p, basis); err != nil {
			return nil, err
		}
		s.parkFactor(p, basis)
	}

	// Repair nonbasic statuses for dual feasibility: a nonbasic column must
	// sit at the bound its reduced cost points away from. The parent basis
	// is dual feasible by construction, so repairs are bound flips forced by
	// a crashed basis or tiny sign drift; a repair that needs an infinite
	// bound is genuine dual infeasibility and aborts the warm start.
	for j := 0; j < ncols; j++ {
		if s.wstatus[j] == Basic {
			continue
		}
		lo, up := s.wlow[j], s.wupp[j]
		if lo == up {
			s.wstatus[j] = AtLower // fixed column; never enters
			continue
		}
		switch d := s.wd[j]; {
		case d > dualEps:
			if math.IsInf(lo, -1) {
				return nil, fmt.Errorf("%w: dual infeasible at column %d", ErrWarmStart, j)
			}
			s.wstatus[j] = AtLower
		case d < -dualEps:
			if math.IsInf(up, 1) {
				return nil, fmt.Errorf("%w: dual infeasible at column %d", ErrWarmStart, j)
			}
			s.wstatus[j] = AtUpper
		default:
			if s.wstatus[j] == AtLower && math.IsInf(lo, -1) {
				s.wstatus[j] = AtUpper
			} else if s.wstatus[j] == AtUpper && math.IsInf(up, 1) {
				s.wstatus[j] = AtLower
			}
		}
	}

	// Basic values: x_B = B^-1 b - sum over nonbasic columns at a nonzero
	// bound. The rhs column was eliminated along with the rows, so
	// wrows[r][ncols] already holds (B^-1 b)[r].
	s.wxB = grow(s.wxB, m)
	for r := 0; r < m; r++ {
		s.wxB[r] = s.wrows[r][ncols]
	}
	for j := 0; j < ncols; j++ {
		if s.wstatus[j] == Basic {
			continue
		}
		v := s.wlow[j]
		if s.wstatus[j] == AtUpper {
			v = s.wupp[j]
		}
		if v == 0 {
			continue
		}
		for r := 0; r < m; r++ {
			s.wxB[r] -= s.wrows[r][j] * v
		}
	}

	maxIts := p.maxIts
	if maxIts <= 0 {
		maxIts = 50000 + 50*(m+n)
	}
	sol, err := s.dualSimplex(ctx, p, maxIts)
	if sol != nil {
		lpPivotsPerSolve.Observe(float64(sol.Iterations))
	}
	return sol, err
}

// refactor builds the raw tableau [A | I | b] in s.wrows and factorizes
// basis into it: each declared basic column is eliminated (ascending index,
// largest available pivot element, ties to the lowest row — deterministic),
// then any degenerate remainder is completed with logical (then structural)
// columns. It leaves B^-1 [A | I | b] in s.wrows, the row-to-column basis in
// s.wbasis, the completed statuses in s.wstatus and the reduced costs in
// s.wd; no variable bound is read. A near-zero pivot means the basis went
// singular.
func (s *Solver) refactor(p *Problem, basis *Basis) error {
	n, m := len(p.obj), len(p.cons)
	ncols := n + m
	clear(s.wflat)
	for k := 0; k < m; k++ {
		r := s.wrows[k]
		for _, t := range p.cons[k].terms {
			r[t.Var] += t.Coef
		}
		r[n+k] = 1
		r[ncols] = p.cons[k].rhs
	}

	copy(s.wstatus, basis.status)
	// free lists the rows not yet given a basic column, ascending, so the
	// pivot search scans only those and still breaks ties to the lowest row.
	// It borrows the cold path's basis buffer, idle during warm solves.
	s.basis = growInt(s.basis, m)
	free := s.basis
	for r := range s.wbasis {
		s.wbasis[r] = -1
		free[r] = r
	}
	for j := 0; j < ncols; j++ {
		if s.wstatus[j] != Basic {
			continue
		}
		best, bestAbs := -1, singEps
		for i, r := range free {
			if a := math.Abs(s.wrows[r][j]); a > bestAbs {
				best, bestAbs = i, a
			}
		}
		if best < 0 {
			return fmt.Errorf("%w: singular basis at column %d", ErrWarmStart, j)
		}
		r := free[best]
		free = slices.Delete(free, best, best+1)
		s.nz = eliminate(s.wrows, r, j, s.nz)
		s.wbasis[r] = j
	}
	for _, r := range free {
		pick := -1
		if s.wstatus[n+r] != Basic && math.Abs(s.wrows[r][n+r]) > singEps {
			pick = n + r // the row's own logical, the usual degenerate filler
		} else {
			for j := n; j < ncols && pick < 0; j++ {
				if s.wstatus[j] != Basic && math.Abs(s.wrows[r][j]) > singEps {
					pick = j
				}
			}
			for j := 0; j < n && pick < 0; j++ {
				if s.wstatus[j] != Basic && math.Abs(s.wrows[r][j]) > singEps {
					pick = j
				}
			}
		}
		if pick < 0 {
			return fmt.Errorf("%w: cannot complete degenerate basis at row %d", ErrWarmStart, r)
		}
		s.wstatus[pick] = Basic
		s.nz = eliminate(s.wrows, r, pick, s.nz)
		s.wbasis[r] = pick
	}

	// Reduced costs d = c - c_B^T B^-1 A (structural costs from the
	// objective, logical costs zero).
	copy(s.wd, p.obj)
	for j := n; j < ncols; j++ {
		s.wd[j] = 0
	}
	for r := 0; r < m; r++ {
		b := s.wbasis[r]
		if b >= n || p.obj[b] == 0 {
			continue
		}
		cb := p.obj[b]
		row := s.wrows[r]
		for j := 0; j < ncols; j++ {
			s.wd[j] -= cb * row[j]
		}
	}
	for r := 0; r < m; r++ {
		s.wd[s.wbasis[r]] = 0
	}
	return nil
}

// dualSimplex restores primal feasibility with bound-flipping dual pivots,
// pricing leaving rows with dual Devex weights (ties to the lowest basic
// variable index). A stall switches to Bland's rule; running out of the
// iteration budget or hitting non-finite values abandons the warm start.
func (s *Solver) dualSimplex(ctx context.Context, p *Problem, maxIts int) (*Solution, error) {
	n, m := len(p.obj), len(p.cons)
	ncols := n + m
	s.wweight = grow(s.wweight, m)
	for r := range s.wweight {
		s.wweight[r] = 1
	}
	bland := s.forceBland
	stall := 0
	prevInfeas := math.Inf(1)
	its := 0

	for {
		if its > maxIts {
			return nil, fmt.Errorf("%w: %v after %d dual pivots", ErrWarmStart, ErrIterationLimit, its)
		}
		if its&ctxCheckMask == 0 {
			if ctx != nil {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			if err := fault.Check(sitePivot); err != nil {
				return nil, err
			}
		}

		// Price the leaving row: the most primal-infeasible basic variable,
		// Devex-weighted; under Bland's rule the violated row whose basic
		// variable has the lowest index.
		r := -1
		bestScore := 0.0
		var violation float64
		totalInfeas := 0.0
		for i := 0; i < m; i++ {
			b := s.wbasis[i]
			x := s.wxB[i]
			var v float64
			if lo := s.wlow[b]; x < lo-feasEps {
				v = lo - x
			} else if up := s.wupp[b]; x > up+feasEps {
				v = x - up
			} else {
				continue
			}
			totalInfeas += v
			if bland {
				if r < 0 || b < s.wbasis[r] {
					r, violation = i, v
				}
				continue
			}
			score := v * v / s.wweight[i]
			if score > bestScore || (score == bestScore && r >= 0 && b < s.wbasis[r]) {
				r, bestScore, violation = i, score, v
			}
		}
		if math.IsNaN(totalInfeas) || math.IsInf(totalInfeas, 0) {
			return nil, fmt.Errorf("%w: %v", ErrWarmStart, ErrNumerical)
		}
		if r < 0 {
			break // primal feasible and dual feasible throughout: optimal
		}
		if !bland {
			if totalInfeas >= prevInfeas-1e-12 {
				if stall++; stall >= dualStallLimit {
					bland = true
					stall = 0
				}
			} else {
				stall = 0
			}
			prevInfeas = totalInfeas
		}

		leaving := s.wbasis[r]
		sigma := 1.0
		toBound := s.wupp[leaving]
		leaveStatus := AtUpper
		if s.wxB[r] < s.wlow[leaving]-feasEps {
			sigma = -1
			toBound = s.wlow[leaving]
			leaveStatus = AtLower
		}

		// Dual ratio test over nonbasic columns that can move x_B(r) toward
		// its violated bound while keeping every reduced cost on the right
		// side of zero. Candidates sorted by (ratio, index) — deterministic.
		row := s.wrows[r]
		cands := s.wcands[:0]
		for j := 0; j < ncols; j++ {
			st := s.wstatus[j]
			if st == Basic || s.wlow[j] == s.wupp[j] {
				continue
			}
			a := row[j]
			if a > -pivotEps && a < pivotEps {
				continue
			}
			sa := sigma * a
			if st == AtLower {
				if sa <= pivotEps {
					continue
				}
			} else if sa >= -pivotEps {
				continue
			}
			aa := math.Abs(a)
			cands = append(cands, dualCand{j: j, ratio: math.Abs(s.wd[j]) / aa, abs: aa})
		}
		s.wcands = cands[:0]
		if len(cands) == 0 {
			// Dual unbounded: no column can repair the violated row — the
			// subproblem is primal infeasible (the usual way a tightened
			// branch-and-bound child dies).
			return &Solution{Status: Infeasible, Iterations: its, WarmStarted: true}, nil
		}
		slices.SortFunc(cands, func(a, b dualCand) int {
			if a.ratio != b.ratio {
				if a.ratio < b.ratio {
					return -1
				}
				return 1
			}
			return a.j - b.j
		})

		// Bound-flipping (long-step) walk: boxed candidates whose full flip
		// still leaves the row violated are flipped outright — one pivot's
		// worth of dual progress for an O(m) update — and the first
		// candidate that can finish the repair enters the basis. Bland mode
		// takes the plain shortest step for its termination guarantee.
		enter := -1
		delta := violation
		if bland {
			enter = cands[0].j
		} else {
			for _, c := range cands {
				lo, up := s.wlow[c.j], s.wupp[c.j]
				if math.IsInf(lo, -1) || math.IsInf(up, 1) {
					enter = c.j
					break
				}
				flipGain := (up - lo) * c.abs
				if flipGain >= delta-1e-12 {
					enter = c.j
					break
				}
				delta -= flipGain
				var dlt float64
				if s.wstatus[c.j] == AtLower {
					dlt = up - lo
					s.wstatus[c.j] = AtUpper
				} else {
					dlt = lo - up
					s.wstatus[c.j] = AtLower
				}
				for i := 0; i < m; i++ {
					s.wxB[i] -= s.wrows[i][c.j] * dlt
				}
			}
			if enter < 0 {
				// Every candidate flipped and the row is still out of
				// bounds: the flips exhausted all movement available in the
				// needed direction, a primal infeasibility certificate.
				return &Solution{Status: Infeasible, Iterations: its, WarmStarted: true}, nil
			}
		}

		q := enter
		arq := row[q]
		tau := (s.wxB[r] - toBound) / arq
		qVal := s.wlow[q]
		if s.wstatus[q] == AtUpper {
			qVal = s.wupp[q]
		}
		qVal += tau

		// Dual Devex weight maintenance (reference-framework update,
		// transposed from the primal rule). Any positive weights preserve
		// correctness; this fixed formula preserves determinism.
		ref := s.wweight[r] / (arq * arq)
		for i := 0; i < m; i++ {
			if i == r {
				continue
			}
			aiq := s.wrows[i][q]
			if aiq == 0 {
				continue
			}
			s.wxB[i] -= aiq * tau
			if w := aiq * aiq * ref; w > s.wweight[i] {
				s.wweight[i] = w
			}
		}
		s.wxB[r] = qVal
		s.wweight[r] = math.Max(ref, 1)

		// Pivot: scale row r, eliminate q elsewhere and from the reduced
		// costs.
		s.nz = eliminate(s.wrows, r, q, s.nz)
		reduce(s.wd, row, q, s.nz)
		s.wstatus[leaving] = leaveStatus
		s.wstatus[q] = Basic
		s.wbasis[r] = q
		its++
	}

	return s.warmSolution(p, its)
}

// warmSolution assembles and verifies the optimal solution of a completed
// dual simplex run. Verification re-checks dual feasibility and the row
// residuals against the original data — accumulated drift fails the warm
// start (typed) rather than returning a subtly wrong answer.
func (s *Solver) warmSolution(p *Problem, its int) (*Solution, error) {
	n, m := len(p.obj), len(p.cons)
	ncols := n + m
	for j := 0; j < ncols; j++ {
		if s.wstatus[j] == Basic || s.wlow[j] == s.wupp[j] {
			continue // fixed columns cannot move; their d sign is free
		}
		d := s.wd[j]
		if (s.wstatus[j] == AtLower && d < -1e-6) || (s.wstatus[j] == AtUpper && d > 1e-6) {
			return nil, fmt.Errorf("%w: dual feasibility drifted at column %d", ErrWarmStart, j)
		}
	}

	full := s.wvalsScratch(ncols)
	for j := 0; j < ncols; j++ {
		switch s.wstatus[j] {
		case AtLower:
			full[j] = s.wlow[j]
		case AtUpper:
			full[j] = s.wupp[j]
		}
	}
	for r := 0; r < m; r++ {
		full[s.wbasis[r]] = s.wxB[r]
	}

	x := make([]float64, n)
	copy(x, full[:n])
	for i := range x {
		if x[i] <= 0 && x[i] > -feasEps {
			x[i] = 0 // also turns -0 into +0
		}
	}
	obj := 0.0
	for j, c := range p.obj {
		if math.IsNaN(x[j]) || math.IsInf(x[j], 0) {
			return nil, fmt.Errorf("%w: %v", ErrWarmStart, ErrNumerical)
		}
		obj += c * x[j]
	}
	if math.IsNaN(obj) || math.IsInf(obj, 0) {
		return nil, fmt.Errorf("%w: %v", ErrWarmStart, ErrNumerical)
	}
	for k, c := range p.cons {
		act := 0.0
		for _, t := range c.terms {
			act += t.Coef * x[t.Var]
		}
		scale := math.Max(1, math.Abs(c.rhs))
		if resid := math.Abs(act + full[n+k] - c.rhs); resid > 1e-6*scale {
			return nil, fmt.Errorf("%w: row %d residual %g", ErrWarmStart, k, resid)
		}
	}

	return &Solution{
		Status:      Optimal,
		X:           x,
		Objective:   obj,
		Iterations:  its,
		WarmStarted: true,
		Basis:       &Basis{status: append([]VarStatus(nil), s.wstatus[:ncols]...)},
	}, nil
}

// wvalsScratch returns s.wvals sized to n and zeroed — scratch for the full
// (structural + logical) value vector used during solution assembly and
// residual verification.
func (s *Solver) wvalsScratch(n int) []float64 {
	if cap(s.wvals) < n {
		s.wvals = make([]float64, n)
	}
	s.wvals = s.wvals[:n]
	clear(s.wvals)
	return s.wvals
}
