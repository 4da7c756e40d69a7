package lp

import "context"

// Test-only exports: the degenerate-LP regressions pin pivot selection to
// Bland's rule, the warm-start tests probe the warm attempt directly to
// assert on the typed fallback instead of the silent cold re-solve, and the
// factor-reuse tests compare searches with reuse switched on and off.

// SetForceBland pins pivot selection to Bland's rule from the first
// iteration in both the primal and dual paths.
func (s *Solver) SetForceBland(v bool) { s.forceBland = v }

// WarmAttempt runs only the warm-started dual simplex, surfacing the
// ErrWarmStart that WarmSolve would swallow into a cold fallback.
func (s *Solver) WarmAttempt(ctx context.Context, p *Problem, lower, upper map[int]float64, basis *Basis) (*Solution, error) {
	return s.warmAttempt(ctx, p, lower, upper, basis)
}

// SetFactorReuse switches parking and restoring of warm factorizations on
// or off for every Solver and returns the previous setting.
func SetFactorReuse(on bool) bool {
	old := factorReuse
	factorReuse = on
	return old
}
