package lp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"sagrelay/internal/obs"
)

// warmStartsTotal counts solves completed by the warm-started dual simplex
// path; coldFallbacksTotal counts warm attempts that were abandoned
// (ErrWarmStart) and re-solved on the cold two-phase path. Together with
// sag_lp_pivots_per_solve they make the warm-start win visible on /metrics.
// refactorizationsTotal counts warm attempts that factorized their basis
// from the raw tableau; factorReusesTotal counts warm attempts that
// restored a factorization parked by an earlier attempt instead.
var (
	warmStartsTotal       atomic.Int64
	coldFallbacksTotal    atomic.Int64
	refactorizationsTotal atomic.Int64
	factorReusesTotal     atomic.Int64
)

func init() {
	obs.Default.Counter("sag_lp_warm_starts_total",
		"LP solves completed by the warm-started dual simplex path.",
		warmStartsTotal.Load)
	obs.Default.Counter("sag_lp_cold_fallbacks_total",
		"Warm-start attempts abandoned to the cold two-phase path.",
		coldFallbacksTotal.Load)
	obs.Default.Counter("sag_lp_refactorizations_total",
		"Warm-start attempts that factorized their basis from the raw tableau.",
		refactorizationsTotal.Load)
	obs.Default.Counter("sag_lp_factor_reuses_total",
		"Warm-start attempts that restored a parked factorization of their basis.",
		factorReusesTotal.Load)
}

// ErrWarmStart reports that a warm-started solve could not be completed
// from the supplied basis — the basis was singular after the bound change,
// dual feasibility could not be restored, the dual iteration stalled, or a
// numerical breakdown appeared. WarmSolve catches it internally and falls
// back to the cold two-phase path, so callers only ever see it wrapped in
// diagnostics (or from tests poking the warm path directly); it exists so
// the fallback is typed rather than a silent wrong answer.
var ErrWarmStart = errors.New("lp: warm start unusable")

// WarmStats returns the process-wide counts of warm-started solves and of
// warm attempts that fell back to the cold path — the same values exported
// as sag_lp_warm_starts_total and sag_lp_cold_fallbacks_total. It exists
// for tooling (the benchmark emitter) that reports deltas around a
// workload.
func WarmStats() (warmStarts, coldFallbacks int64) {
	return warmStartsTotal.Load(), coldFallbacksTotal.Load()
}

// FactorStats returns the process-wide counts of warm-start basis
// factorizations built from the raw tableau and of those restored from a
// parked copy — the same values exported as sag_lp_refactorizations_total
// and sag_lp_factor_reuses_total.
func FactorStats() (refactorizations, reuses int64) {
	return refactorizationsTotal.Load(), factorReusesTotal.Load()
}

// Solver runs simplex with memory reused across solves. It exists for the
// branch-and-bound hot path: every search-tree node re-solves the same base
// problem with only per-variable bounds changed, so the dense tableau (by
// far the largest allocation of a solve) is rebuilt in place inside the
// Solver's buffers instead of being re-made per node — and, via WarmSolve,
// a child node restarts from its parent's optimal basis instead of
// re-pivoting from scratch.
//
// A Solver is not safe for concurrent use; concurrent solves (e.g. parallel
// per-zone ILPs) each use their own Solver.
type Solver struct {
	// Cold-path (two-phase primal) buffers.
	flat    []float64   // backing storage for all tableau rows (and the factor ring)
	rows    [][]float64 // row views into flat
	basis   []int       // also refactor's free-row list during warm solves
	objRow  []float64
	origObj []float64
	devex   []float64 // primal Devex reference weights
	lb, ub  []float64 // effective per-variable bounds for the current solve

	// Warm-path (bounded-variable dual simplex) buffers, kept separate from
	// the cold buffers so an abandoned warm attempt never clobbers the cold
	// fallback's workspace.
	wflat   []float64
	wrows   [][]float64
	wbasis  []int
	wstatus []VarStatus
	wlow    []float64
	wupp    []float64
	wxB     []float64
	wd      []float64
	wweight []float64
	wcands  []dualCand
	wvals   []float64

	// ring indexes the warm factorizations parked in flat (factor.go).
	ring factorRing

	// nz is eliminate's nonzero-column scratch for the cold tableau and the
	// warm path alike: it lives only within one pivot, and each solve sizes
	// it to its row width so no pivot allocates.
	nz []int

	// forceBland pins pivot selection to Bland's rule from the first
	// iteration in both the primal and dual paths. Testing hook: the
	// degenerate-LP regressions compare Devex-with-stall-fallback against
	// pure Bland's.
	forceBland bool
}

// NewSolver returns an empty Solver; buffers grow on first use.
func NewSolver() *Solver { return &Solver{} }

// Solve minimizes p under per-variable bound overrides and returns the
// solution. lower[v] imposes x_v >= lb (values <= 0 are no-ops: x >= 0 is
// implicit), upper[v] tightens x_v's upper bound when below the problem's
// own (negative values clamp to 0). The base problem is not modified, so
// branch-and-bound can re-solve it with different bounds node after node.
// Either map may be nil. Solution.X is freshly allocated per call; all
// other working memory is reused.
//
// Bound rows are emitted in ascending variable order, so two solves of the
// same (problem, bounds) input run the identical pivot sequence — map
// iteration order never leaks into the result.
func (s *Solver) Solve(p *Problem, lower, upper map[int]float64) (*Solution, error) {
	return s.SolveContext(context.Background(), p, lower, upper)
}

// SolveContext is Solve with cooperative cancellation: the simplex
// iteration loop polls ctx every few pivots and aborts with ctx's error
// (context.Canceled or context.DeadlineExceeded) when it is done. The
// cancellation check never changes the pivot sequence of a solve that runs
// to completion, so determinism is unaffected.
func (s *Solver) SolveContext(ctx context.Context, p *Problem, lower, upper map[int]float64) (*Solution, error) {
	return s.solveCold(ctx, p, lower, upper, false)
}

// WarmSolve is SolveContext with a warm start: basis, the Basis of a
// previous optimal solve of the same problem (same variables and
// constraints; only the bound overrides may differ), seeds a bound-flipping
// dual simplex that repairs primal feasibility from the still-dual-feasible
// parent basis instead of re-pivoting from scratch. Whenever the warm start
// is unusable — singular basis after the bound change, irreparable dual
// infeasibility, stall, or numerical trouble — the typed ErrWarmStart is
// caught internally and the solve falls back to the cold two-phase path, so
// the answer is always as trustworthy as a cold solve. A nil basis goes
// straight to the cold path.
//
// The returned Solution always carries a Basis for chaining into the next
// warm solve, and Solution.WarmStarted reports which path produced it.
// The Solver keeps the factorizations of up to two bases it warm-started
// from (factor.go), so the second of two sibling solves from one basis
// skips refactorization; the answer is bit-identical either way.
func (s *Solver) WarmSolve(ctx context.Context, p *Problem, lower, upper map[int]float64, basis *Basis) (*Solution, error) {
	if basis != nil {
		sol, err := s.warmAttempt(ctx, p, lower, upper, basis)
		if err == nil {
			warmStartsTotal.Add(1)
			return sol, nil
		}
		if !errors.Is(err, ErrWarmStart) {
			return nil, err
		}
		coldFallbacksTotal.Add(1)
	}
	return s.solveCold(ctx, p, lower, upper, true)
}

// solveCold runs the two-phase primal simplex. withBasis additionally
// extracts the optimal basis (for warm-starting descendants); plain
// Solve/SolveContext skip the extraction so non-tree callers pay nothing.
func (s *Solver) solveCold(ctx context.Context, p *Problem, lower, upper map[int]float64, withBasis bool) (*Solution, error) {
	t, err := s.build(p, lower, upper)
	if err != nil {
		return nil, err
	}
	if ctx != nil && ctx != context.Background() {
		t.ctx = ctx
	}
	sol, err := t.solve()
	if err != nil {
		return nil, err
	}
	if withBasis && sol.Status == Optimal {
		sol.Basis = s.basisFromPoint(p, sol.X)
	}
	return sol, nil
}

// basisFromPoint crashes a bounded-variable basis from an optimal cold
// solution: columns at a bound become nonbasic at that bound, columns
// strictly inside become Basic. The crash can under-determine the basis on
// degenerate vertices (fewer than m Basic columns) — the warm-start
// factorization completes it deterministically with logical columns, and
// falls back to a cold solve if the completion is singular.
func (s *Solver) basisFromPoint(p *Problem, x []float64) *Basis {
	n, m := len(p.obj), len(p.cons)
	st := make([]VarStatus, n+m)
	const eps = 1e-7
	for i := 0; i < n; i++ {
		switch {
		case x[i] <= s.lb[i]+eps:
			st[i] = AtLower
		case !math.IsInf(s.ub[i], 1) && x[i] >= s.ub[i]-eps:
			st[i] = AtUpper
		default:
			st[i] = Basic
		}
	}
	for k, c := range p.cons {
		act := 0.0
		for _, t := range c.terms {
			act += t.Coef * x[t.Var]
		}
		slack := c.rhs - act
		switch c.op {
		case LE: // logical in [0, +Inf)
			if slack <= eps {
				st[n+k] = AtLower
			} else {
				st[n+k] = Basic
			}
		case GE: // logical in (-Inf, 0]
			if slack >= -eps {
				st[n+k] = AtUpper
			} else {
				st[n+k] = Basic
			}
		case EQ: // logical fixed at 0
			st[n+k] = AtLower
		}
	}
	return &Basis{status: st}
}

// grow returns buf resized to n, reallocating only when capacity is short.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

func growInt(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

func growStatus(buf []VarStatus, n int) []VarStatus {
	if cap(buf) < n {
		return make([]VarStatus, n)
	}
	return buf[:n]
}

// validateInputs rejects non-finite model inputs up front: a single NaN
// coefficient would otherwise spread through the tableau and surface as
// garbage bounds far from its source.
func validateInputs(p *Problem, lower, upper map[int]float64) error {
	for i, c := range p.obj {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return fmt.Errorf("%w: objective coefficient of variable %d is %v", ErrNumerical, i, c)
		}
	}
	for i, ub := range p.ub {
		if math.IsNaN(ub) || math.IsInf(ub, -1) {
			return fmt.Errorf("%w: upper bound of variable %d is %v", ErrNumerical, i, ub)
		}
	}
	for k, c := range p.cons {
		if math.IsNaN(c.rhs) || math.IsInf(c.rhs, 0) {
			return fmt.Errorf("%w: right-hand side of constraint %d is %v", ErrNumerical, k, c.rhs)
		}
		for _, term := range c.terms {
			if math.IsNaN(term.Coef) || math.IsInf(term.Coef, 0) {
				return fmt.Errorf("%w: coefficient of variable %d in constraint %d is %v", ErrNumerical, term.Var, k, term.Coef)
			}
		}
	}
	for v, b := range lower {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			return fmt.Errorf("%w: lower bound override of variable %d is %v", ErrNumerical, v, b)
		}
	}
	for v, b := range upper {
		if math.IsNaN(b) || math.IsInf(b, -1) {
			return fmt.Errorf("%w: upper bound override of variable %d is %v", ErrNumerical, v, b)
		}
	}
	return nil
}

// effectiveBounds fills s.lb/s.ub with the problem's own bounds tightened
// by the per-call overrides (the contract documented on Solve).
func (s *Solver) effectiveBounds(p *Problem, lower, upper map[int]float64) error {
	n := len(p.obj)
	s.ub = grow(s.ub, n)
	copy(s.ub, p.ub)
	for v, ub := range upper {
		if v < 0 || v >= n {
			return fmt.Errorf("lp: upper bound for unknown variable %d", v)
		}
		if ub < 0 {
			ub = 0
		}
		if ub < s.ub[v] {
			s.ub[v] = ub
		}
	}
	s.lb = grow(s.lb, n)
	for i := range s.lb {
		s.lb[i] = 0
	}
	for v, lb := range lower {
		if v < 0 || v >= n {
			return fmt.Errorf("lp: lower bound for unknown variable %d", v)
		}
		if lb > 0 {
			s.lb[v] = lb
		}
	}
	return nil
}

// build assembles the phase-ready tableau inside the Solver's buffers:
// finite (effective) upper bounds become explicit <= rows, positive lower
// bounds >= rows, right-hand sides are normalized non-negative, LE rows get
// slacks, GE rows surplus+artificial, EQ rows artificial — the same
// canonical form the package has always used, built without per-row
// allocations.
func (s *Solver) build(p *Problem, lower, upper map[int]float64) (*tableau, error) {
	n := len(p.obj)

	if err := validateInputs(p, lower, upper); err != nil {
		return nil, err
	}
	if err := s.effectiveBounds(p, lower, upper); err != nil {
		return nil, err
	}

	// First pass: classify every row (after rhs normalization) to size the
	// tableau. Constraint rows flip LE<->GE when rhs < 0; bound rows always
	// have rhs >= 0.
	nUB, nLB := 0, 0
	for i := 0; i < n; i++ {
		if !math.IsInf(s.ub[i], 1) {
			nUB++
		}
		if s.lb[i] > 0 {
			nLB++
		}
	}
	m := len(p.cons) + nUB + nLB
	nSlack, nArt := 0, 0
	for _, c := range p.cons {
		op := c.op
		if c.rhs < 0 {
			switch op {
			case LE:
				op = GE
			case GE:
				op = LE
			}
		}
		switch op {
		case LE:
			nSlack++
		case GE:
			nSlack++
			nArt++
		case EQ:
			nArt++
		default:
			return nil, fmt.Errorf("lp: internal: invalid op %v", op)
		}
	}
	nSlack += nUB // ub rows: x_i <= ub, slack
	nSlack += nLB // lb rows: x_i >= lb, surplus + artificial
	nArt += nLB

	nCols := n + nSlack + nArt
	width := nCols + 1

	// Lay the m rows out in one flat backing array, reused across solves.
	// The build overwrites any factorizations parked there.
	s.dropFactors()
	need := m * width
	s.flat = grow(s.flat, need)
	clear(s.flat)
	if cap(s.rows) < m {
		s.rows = make([][]float64, m)
	}
	s.rows = s.rows[:m]
	for i := 0; i < m; i++ {
		s.rows[i] = s.flat[i*width : (i+1)*width]
	}
	s.basis = growInt(s.basis, m)
	s.objRow = grow(s.objRow, width)
	clear(s.objRow)
	s.origObj = grow(s.origObj, n)
	copy(s.origObj, p.obj)
	s.devex = grow(s.devex, nCols)
	s.nz = growInt(s.nz, width)

	t := &tableau{
		nStruct:    n,
		nCols:      nCols,
		artStart:   n + nSlack,
		rows:       s.rows,
		basis:      s.basis,
		objRow:     s.objRow,
		origObj:    s.origObj,
		nz:         s.nz,
		devex:      s.devex,
		maxIts:     p.maxIts,
		forceBland: s.forceBland,
	}
	if t.maxIts <= 0 {
		t.maxIts = 50000 + 50*(m+n)
	}

	// Second pass: fill rows. Order is deterministic — problem constraints
	// first, then upper-bound rows, then lower-bound rows, each in index
	// order.
	slackCol := n
	artCol := t.artStart
	row := 0
	emit := func(op Op) {
		switch op {
		case LE:
			s.rows[row][slackCol] = 1
			s.basis[row] = slackCol
			slackCol++
		case GE:
			s.rows[row][slackCol] = -1
			slackCol++
			s.rows[row][artCol] = 1
			s.basis[row] = artCol
			artCol++
		case EQ:
			s.rows[row][artCol] = 1
			s.basis[row] = artCol
			artCol++
		}
		row++
	}
	for _, c := range p.cons {
		sign := 1.0
		op := c.op
		if c.rhs < 0 {
			sign = -1
			switch op {
			case LE:
				op = GE
			case GE:
				op = LE
			}
		}
		r := s.rows[row]
		for _, term := range c.terms {
			r[term.Var] += sign * term.Coef
		}
		r[nCols] = sign * c.rhs
		emit(op)
	}
	for i := 0; i < n; i++ {
		if math.IsInf(s.ub[i], 1) {
			continue
		}
		r := s.rows[row]
		r[i] = 1
		r[nCols] = s.ub[i]
		emit(LE)
	}
	for i := 0; i < n; i++ {
		if s.lb[i] <= 0 {
			continue
		}
		r := s.rows[row]
		r[i] = 1
		r[nCols] = s.lb[i]
		emit(GE)
	}
	return t, nil
}
