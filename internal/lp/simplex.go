package lp

import (
	"context"
	"fmt"
	"math"

	"sagrelay/internal/fault"
	"sagrelay/internal/obs"
)

// lpPivotsPerSolve is the process-wide distribution of simplex pivots per
// completed LP solve (both phases).
var lpPivotsPerSolve = obs.Default.NewHistogram(
	"sag_lp_pivots_per_solve",
	"Simplex pivots per completed LP solve.",
	obs.CountBuckets,
)

// sitePivot is the fault-injection point inside the simplex iteration loop,
// polled at the same cadence as the context check (every ctxCheckMask+1
// pivots) so chaos tests can fail, stall or "cancel" a solve mid-pivot.
var sitePivot = fault.Register("lp.pivot")

// pivotEps is the tolerance below which a coefficient is treated as zero
// during pivot selection and ratio tests.
const pivotEps = 1e-9

// feasEps is the tolerance for phase-1 feasibility (artificial residual).
const feasEps = 1e-7

// stallLimit is the number of consecutive pivots without objective
// improvement after which pivot selection abandons Devex pricing for
// Bland's anti-cycling rule (which provably terminates). The switch is
// per-phase and one-way, so the decision depends only on the pivot
// sequence itself — deterministic across runs and worker counts.
const stallLimit = 100

// stallEps scales the relative objective-improvement threshold of the
// stall detector.
const stallEps = 1e-12

// ctxCheckMask gates how often the iteration loop polls the context: every
// ctxCheckMask+1 pivots. Polling costs an atomic load plus an interface
// call, which is noise next to a dense pivot but would still be wasteful at
// every iteration of small tableaus.
const ctxCheckMask = 63

// tableau is a dense simplex tableau in canonical form. Columns are laid
// out [structural | slack/surplus | artificial]; the last entry of each row
// is the right-hand side. Tableaus are assembled by (*Solver).build, which
// owns (and reuses) the backing memory.
type tableau struct {
	nStruct  int // structural variables
	nCols    int // total variable columns
	artStart int // index of the first artificial column
	rows     [][]float64
	basis    []int
	objRow   []float64 // reduced-cost row, len nCols+1; last entry is -z
	origObj  []float64 // structural objective, installed in phase 2
	nz       []int     // eliminate's scratch, the owning Solver's buffer
	maxIts   int
	its      int
	ctx      context.Context // polled during iteration; nil means no check

	// Devex pricing state, reset at each phase install. bland pins
	// selection to Bland's rule — either from the start (forceBland, a
	// test hook) or after the stall detector trips.
	devex      []float64 // per-column reference weights
	bland      bool
	forceBland bool
	stall      int     // consecutive pivots without objective improvement
	lastZ      float64 // objective row rhs at the previous pivot
}

// resetPricing restores the Devex reference framework (all weights 1) and
// re-arms the stall detector. Called at each phase install so phase-1
// weights never leak into phase 2.
func (t *tableau) resetPricing() {
	for j := range t.devex {
		t.devex[j] = 1
	}
	t.bland = t.forceBland
	t.stall = 0
	t.lastZ = math.Inf(1)
}

// eliminate is the one Gauss-Jordan step behind the cold pivot, the dual
// pivot and the warm refactorization: it scales row r so rows[r][c] = 1
// and clears column c from every other row. Row r's nonzero columns are
// collected once into nz (sized by the caller to the row width, so it
// never grows) and the row updates run over them only. A skipped entry
// would lose f*0, an exact zero for finite f, so every nonzero result is
// bit-identical to a dense update; only the sign of an exact zero can
// differ, and no comparison reads it (solution extraction clears it). The
// ascending index list is returned for reduce.
func eliminate(rows [][]float64, r, c int, nz []int) []int {
	pr := rows[r]
	inv := 1 / pr[c]
	nz = nz[:0]
	for j, v := range pr {
		if v != 0 {
			pr[j] = v * inv
			nz = append(nz, j)
		}
	}
	pr[c] = 1 // fight rounding
	for i, ri := range rows {
		if f := ri[c]; f != 0 && i != r {
			for _, j := range nz {
				ri[j] -= f * pr[j]
			}
			ri[c] = 0
		}
	}
	return nz
}

// reduce clears column c from the cost row v over the nonzero columns nz
// of the pivot row pr that eliminate returned. Columns past v's end (the
// rhs, which the dual path's reduced costs do not carry) are skipped.
func reduce(v, pr []float64, c int, nz []int) {
	if f := v[c]; f != 0 {
		for _, j := range nz {
			if j >= len(v) {
				break
			}
			v[j] -= f * pr[j]
		}
		v[c] = 0
	}
}

func (t *tableau) pivot(r, c int) {
	t.nz = eliminate(t.rows, r, c, t.nz)
	reduce(t.objRow, t.rows[r], c, t.nz)
	t.basis[r] = c
	t.its++
}

// chooseEntering returns the entering column or -1 at optimality,
// considering only the first limit columns. Devex pricing picks the column
// maximizing d_j^2 / w_j (steepest-edge approximated against a reference
// framework); the strict > keeps ties on the lowest column index for
// bit-reproducibility. In Bland mode the first improving column wins.
func (t *tableau) chooseEntering(limit int) int {
	if t.bland {
		for j := 0; j < limit; j++ {
			if t.objRow[j] < -pivotEps {
				return j
			}
		}
		return -1
	}
	best := -1
	bestScore := 0.0
	for j := 0; j < limit; j++ {
		d := t.objRow[j]
		if d >= -pivotEps {
			continue
		}
		if score := d * d / t.devex[j]; score > bestScore {
			best, bestScore = j, score
		}
	}
	return best
}

// updateDevex refreshes the reference weights for a pivot on (r, c), using
// the pre-pivot row r. The entering column's weight relative to the
// reference framework propagates to every column the pivot touches; the
// leaving variable re-enters the nonbasic set with weight max(ref, 1).
// Weights only steer pricing — any positive values are correct — but this
// fixed update keeps the pivot sequence deterministic.
func (t *tableau) updateDevex(r, c int) {
	row := t.rows[r]
	arc := row[c]
	ref := t.devex[c] / (arc * arc)
	for j := 0; j < t.nCols; j++ {
		if j == c {
			continue
		}
		a := row[j]
		if a == 0 {
			continue
		}
		if w := a * a * ref; w > t.devex[j] {
			t.devex[j] = w
		}
	}
	t.devex[t.basis[r]] = math.Max(ref, 1)
}

// chooseLeaving runs the ratio test on column c, returning the row or -1
// when the column is unbounded below.
func (t *tableau) chooseLeaving(c int) int {
	bestRow := -1
	bestRatio := math.Inf(1)
	for i, r := range t.rows {
		a := r[c]
		if a <= pivotEps {
			continue
		}
		ratio := r[t.nCols] / a
		if ratio < bestRatio-pivotEps ||
			(ratio < bestRatio+pivotEps && (bestRow == -1 || t.basis[i] < t.basis[bestRow])) {
			bestRow, bestRatio = i, ratio
		}
	}
	return bestRow
}

// iterate runs simplex to optimality over the first limit columns. A
// cancelled context aborts the solve between pivots, returning the
// context's error so callers can distinguish cancellation from
// ErrIterationLimit.
func (t *tableau) iterate(limit int) (Status, error) {
	for {
		if t.its > t.maxIts {
			return 0, ErrIterationLimit
		}
		if t.its&ctxCheckMask == 0 {
			if t.ctx != nil {
				if err := t.ctx.Err(); err != nil {
					return 0, err
				}
			}
			if err := fault.Check(sitePivot); err != nil {
				return 0, err
			}
			// The running objective value is the cheapest breakdown sentinel:
			// any NaN/Inf produced by a degenerate pivot reaches it within a
			// pivot or two via the reduced-cost update.
			if z := t.objRow[t.nCols]; math.IsNaN(z) || math.IsInf(z, 0) {
				return 0, ErrNumerical
			}
		}
		c := t.chooseEntering(limit)
		if c < 0 {
			return Optimal, nil
		}
		r := t.chooseLeaving(c)
		if r < 0 {
			return Unbounded, nil
		}
		if !t.bland {
			t.updateDevex(r, c)
		}
		t.pivot(r, c)
		if !t.bland {
			// Stall detector: stallLimit consecutive pivots with no
			// relative objective improvement (degenerate churn, possible
			// cycling under Devex) switch this phase to Bland's rule.
			z := t.objRow[t.nCols]
			if math.Abs(z-t.lastZ) <= stallEps*(1+math.Abs(z)) {
				if t.stall++; t.stall >= stallLimit {
					t.bland = true
				}
			} else {
				t.stall = 0
			}
			t.lastZ = z
		}
	}
}

// installPhase1 sets the reduced-cost row for minimizing the sum of
// artificial variables given the initial basis.
func (t *tableau) installPhase1() {
	t.resetPricing()
	for j := range t.objRow {
		t.objRow[j] = 0
	}
	for j := t.artStart; j < t.nCols; j++ {
		t.objRow[j] = 1
	}
	// Price out the basic artificial columns.
	for i, b := range t.basis {
		if b >= t.artStart {
			for j := range t.objRow {
				t.objRow[j] -= t.rows[i][j]
			}
		}
	}
}

// installPhase2 sets the reduced-cost row for the original objective given
// the current basis, with artificial columns frozen out.
func (t *tableau) installPhase2() {
	t.resetPricing()
	for j := range t.objRow {
		t.objRow[j] = 0
	}
	for j, c := range t.origObj {
		t.objRow[j] = c
	}
	for i, b := range t.basis {
		if b < len(t.origObj) && t.origObj[b] != 0 {
			f := t.origObj[b]
			for j := range t.objRow {
				t.objRow[j] -= f * t.rows[i][j]
			}
			t.objRow[b] = 0
		}
	}
	// Never re-enter artificials.
	for j := t.artStart; j < t.nCols; j++ {
		t.objRow[j] = math.Inf(1)
	}
}

// driveOutArtificials pivots basic artificial variables out of the basis
// after phase 1. Rows that cannot pivot (all-zero structural part) are
// redundant and are blanked.
func (t *tableau) driveOutArtificials() {
	for i, b := range t.basis {
		if b < t.artStart {
			continue
		}
		pivoted := false
		for j := 0; j < t.artStart; j++ {
			if math.Abs(t.rows[i][j]) > pivotEps {
				t.pivot(i, j)
				pivoted = true
				break
			}
		}
		if !pivoted {
			// Redundant row: zero it so it never constrains anything.
			for j := range t.rows[i] {
				t.rows[i][j] = 0
			}
		}
	}
}

// solve runs the two-phase simplex and records the pivot count of every
// completed solve on the process-wide histogram registry.
func (t *tableau) solve() (*Solution, error) {
	sol, err := t.run()
	if sol != nil {
		lpPivotsPerSolve.Observe(float64(sol.Iterations))
	}
	return sol, err
}

func (t *tableau) run() (*Solution, error) {
	hasArt := t.artStart < t.nCols
	if hasArt {
		t.installPhase1()
		st, err := t.iterate(t.nCols)
		if err != nil {
			return nil, err
		}
		if st == Unbounded {
			// Phase-1 objective is bounded below by 0; unbounded here means
			// numerical trouble.
			return nil, fmt.Errorf("lp: internal: phase-1 unbounded")
		}
		if -t.objRow[t.nCols] > feasEps {
			return &Solution{Status: Infeasible, Iterations: t.its}, nil
		}
		t.driveOutArtificials()
	}
	t.installPhase2()
	st, err := t.iterate(t.artStart)
	if err != nil {
		return nil, err
	}
	if st == Unbounded {
		return &Solution{Status: Unbounded, Iterations: t.its}, nil
	}
	x := make([]float64, t.nStruct)
	for i, b := range t.basis {
		if b < t.nStruct {
			x[b] = t.rows[i][t.nCols]
			if x[b] <= 0 && x[b] > -feasEps {
				x[b] = 0 // also turns -0 into +0
			}
		}
	}
	obj := 0.0
	for j, c := range t.origObj {
		if math.IsNaN(x[j]) || math.IsInf(x[j], 0) {
			return nil, ErrNumerical
		}
		obj += c * x[j]
	}
	if math.IsNaN(obj) || math.IsInf(obj, 0) {
		return nil, ErrNumerical
	}
	return &Solution{Status: Optimal, X: x, Objective: obj, Iterations: t.its}, nil
}
