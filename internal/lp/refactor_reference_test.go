package lp

import (
	"fmt"
	"math"
	"slices"
)

// refactorReference is the refactorization that eliminates every basic
// column, logicals included, and completes a degenerate basis by searching
// the row's own logical, then the other logicals, then the structurals. It
// is kept to check refactor, which skips the eliminations that cannot change
// a bit, against it. It also returns how many declared basic columns it
// eliminated.
func refactorReference(s *Solver, p *Problem, basis *Basis) (elims int, err error) {
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
	s.basis = grow(s.basis, m)
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
			return elims, fmt.Errorf("%w: singular basis at column %d", ErrWarmStart, j)
		}
		r := free[best]
		free = slices.Delete(free, best, best+1)
		s.nz = eliminate(s.wrows, r, j, s.nz)
		elims++
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
			return elims, fmt.Errorf("%w: cannot complete degenerate basis at row %d", ErrWarmStart, r)
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
	return elims, nil
}

// RefactorCheck is the comparison of one refactorization with
// refactorReference run on the same problem and basis.
type RefactorCheck struct {
	// Mismatch is empty when the two agree on the error and, without one,
	// on every bit of the tableau rows, the row-to-column basis, the
	// completed statuses and the reduced costs.
	Mismatch string
	// Elims and RefElims count the declared basic columns that refactor
	// and the reference eliminated (the reference also eliminates the
	// logicals that complete a degenerate basis; refactor never does).
	Elims, RefElims int
}

// compareRefactor checks the factorization s just built (refactor's error
// was err) against refactorReference on fresh buffers.
func compareRefactor(s *Solver, p *Problem, basis *Basis, err error) RefactorCheck {
	n, m := len(p.obj), len(p.cons)
	ncols, width := n+m, n+m+1
	ref := &Solver{
		wflat:   make([]float64, m*width),
		wrows:   make([][]float64, m),
		nz:      make([]int, width),
		wstatus: make([]VarStatus, ncols),
		wbasis:  make([]int, m),
		wd:      make([]float64, ncols),
	}
	for k := range ref.wrows {
		ref.wrows[k] = ref.wflat[k*width : (k+1)*width]
	}
	var c RefactorCheck
	var refErr error
	c.RefElims, refErr = refactorReference(ref, p, basis)
	for _, v := range s.pivoted[:m] {
		if v {
			c.Elims++
		}
	}
	switch {
	case (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()):
		c.Mismatch = fmt.Sprintf("error %v, reference %v", err, refErr)
	case err != nil:
		// Both failed alike; neither built a factorization to compare.
	case !sameBits(s.wflat[:m*width], ref.wflat):
		c.Mismatch = "tableau rows differ"
	case !slices.Equal(s.wbasis[:m], ref.wbasis):
		c.Mismatch = fmt.Sprintf("basis %v, reference %v", s.wbasis[:m], ref.wbasis)
	case !slices.Equal(s.wstatus[:ncols], ref.wstatus):
		c.Mismatch = fmt.Sprintf("statuses %v, reference %v", s.wstatus[:ncols], ref.wstatus)
	case !sameBits(s.wd[:ncols], ref.wd):
		c.Mismatch = "reduced costs differ"
	}
	return c
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y)
	})
}
