// Package benchprob builds the representative benchmark problem instances
// shared by the internal/lp and internal/milp benchmarks and tests. Keeping
// one copy of the ILPQC fixture guarantees every consumer measures the
// identical model — pivot counts and node counts recorded across PRs stay
// comparable.
package benchprob

import (
	"fmt"
	"math"
	"math/rand"

	"sagrelay/internal/lp"
)

// ILPQC constructs a representative per-zone ILPQC coverage instance
// (eqs. 3.1-3.5 of the paper): n subscribers, nC candidate positions,
// binary placement variables T_i and assignment variables T_ij, the
// coverage/link constraints (3.2)-(3.3) and the big-M linearized SNR rows
// (3.5). It mirrors what sagrelay/internal/lower builds for each
// Zone-Partition zone, sized at the MaxZoneSS default. The returned isInt
// marks every variable integer.
//
// Gains are synthetic but follow the same 1/d^3 decay shape as the two-ray
// model, so the numerical profile (many small coefficients, a few dominant
// ones) matches the real per-zone solves. Construction is static; failures
// are programming errors and panic.
func ILPQC() (*lp.Problem, []bool) {
	return allInt(ILPQCRelaxation())
}

// ILPQCRelaxation constructs the LP relaxation of the ILPQC instance — the
// exact relaxation branch-and-bound re-solves at every node.
func ILPQCRelaxation() *lp.Problem {
	const (
		n    = 8  // subscribers in the zone (MaxZoneSS default is 10)
		nC   = 14 // candidate positions
		beta = 0.05
	)
	// Synthetic candidate-subscriber distances on a line: candidate i sits
	// at 10*i, subscriber j at 10*j + 3. Coverage radius 25.
	w := make([][]float64, nC)
	covers := make([][]bool, nC)
	for i := 0; i < nC; i++ {
		w[i] = make([]float64, n)
		covers[i] = make([]bool, n)
		for j := 0; j < n; j++ {
			d := math.Abs(float64(10*i) - float64(10*j+3))
			w[i][j] = gain(d)
			covers[i][j] = d <= 25
		}
	}
	return zoneModel(w, covers, beta)
}

// GACZone constructs a per-zone ILPQC instance at the size of gac-sweep's
// zones: ten subscribers spread over a 500x500 field with 30-36 coverage
// radii, and as candidates every center of the 15-wide grid that covers
// one of them — the Grids As Candidates density of lower.GAC. That gives
// 131 candidates and 146 feasible pairs: 277 columns and 418 rows, ~20x
// the ILPQC instance's tableau. beta is the -15 dB threshold of the
// benchmark's fields. The returned isInt marks every variable integer.
func GACZone() (*lp.Problem, []bool) {
	return allInt(GACZoneRelaxation())
}

// GACZoneRelaxation constructs the LP relaxation of the GACZone instance.
func GACZoneRelaxation() *lp.Problem {
	const (
		n     = 10
		field = 500.0
		grid  = 15.0
	)
	beta := math.Pow(10, -15.0/10)
	rng := rand.New(rand.NewSource(7))
	sx, sy, rad := make([]float64, n), make([]float64, n), make([]float64, n)
	for j := range sx {
		sx[j] = 40 + rng.Float64()*(field-80)
		sy[j] = 40 + rng.Float64()*(field-80)
		rad[j] = 30 + 6*rng.Float64()
	}
	var w [][]float64
	var covers [][]bool
	for gx := grid / 2; gx < field; gx += grid {
		for gy := grid / 2; gy < field; gy += grid {
			wi, ci, any := make([]float64, n), make([]bool, n), false
			for j := range sx {
				d := math.Hypot(gx-sx[j], gy-sy[j])
				wi[j] = gain(d)
				ci[j] = d <= rad[j]
				any = any || ci[j]
			}
			if any {
				w, covers = append(w, wi), append(covers, ci)
			}
		}
	}
	return zoneModel(w, covers, beta)
}

// gain is the synthetic path gain 1/d^3, with d clamped to 1.
func gain(d float64) float64 {
	d = math.Max(d, 1)
	return 1 / (d * d * d)
}

// zoneModel builds the ILPQC relaxation of one zone from the candidate x
// subscriber gains w and coverage matrix covers, the way
// sagrelay/internal/lower does: placement variables T_i, then one T_ij per
// feasible pair in (i, j) order, then rows (3.2), (3.3) and (3.5).
func zoneModel(w [][]float64, covers [][]bool, beta float64) *lp.Problem {
	nC, n := len(w), len(w[0])
	p := lp.NewProblem()
	tVar := make([]int, nC)
	for i := range tVar {
		tVar[i] = p.AddVariable("T", 1)
		must(p.SetUpperBound(tVar[i], 1))
	}
	pairVar := make(map[[2]int]int)
	for i := 0; i < nC; i++ {
		for j := 0; j < n; j++ {
			if covers[i][j] {
				v := p.AddVariable("Tij", 0)
				must(p.SetUpperBound(v, 1))
				pairVar[[2]int{i, j}] = v
			}
		}
	}
	// (3.2): T_i <= sum_j T_ij <= n*T_i.
	for i := 0; i < nC; i++ {
		low := []lp.Term{{Var: tVar[i], Coef: 1}}
		high := []lp.Term{{Var: tVar[i], Coef: -float64(n)}}
		for j := 0; j < n; j++ {
			if v, ok := pairVar[[2]int{i, j}]; ok {
				low = append(low, lp.Term{Var: v, Coef: -1})
				high = append(high, lp.Term{Var: v, Coef: 1})
			}
		}
		must(p.AddConstraint(low, lp.LE, 0))
		must(p.AddConstraint(high, lp.LE, 0))
	}
	// (3.3): exactly one access link per subscriber.
	for j := 0; j < n; j++ {
		var terms []lp.Term
		for i := 0; i < nC; i++ {
			if v, ok := pairVar[[2]int{i, j}]; ok {
				terms = append(terms, lp.Term{Var: v, Coef: 1})
			}
		}
		if len(terms) == 0 {
			panic("benchprob: subscriber uncovered in fixture")
		}
		must(p.AddConstraint(terms, lp.EQ, 1))
	}
	// (3.5) big-M linearized per feasible pair.
	for j := 0; j < n; j++ {
		mj := 0.0
		for k := 0; k < nC; k++ {
			mj += w[k][j]
		}
		for i := 0; i < nC; i++ {
			v, ok := pairVar[[2]int{i, j}]
			if !ok {
				continue
			}
			terms := make([]lp.Term, 0, nC+2)
			for k := 0; k < nC; k++ {
				terms = append(terms, lp.Term{Var: tVar[k], Coef: w[k][j]})
			}
			terms = append(terms, lp.Term{Var: tVar[i], Coef: -w[i][j]})
			terms = append(terms, lp.Term{Var: v, Coef: mj})
			must(p.AddConstraint(terms, lp.LE, w[i][j]/beta+mj))
		}
	}
	return p
}

// Covering constructs a random set-covering ILP: n binary columns with
// costs drawn from [1, 5), and m rows each requiring one of a random half
// of the columns (a row that draws no column gets a single random one).
// It also returns the costs and each row's columns, so tests can
// brute-force the optimum.
func Covering(seed int64, n, m int) (p *lp.Problem, isInt []bool, costs []float64, rowsets [][]int) {
	rng := rand.New(rand.NewSource(seed))
	costs = make([]float64, n)
	p = lp.NewProblem()
	for i := range costs {
		costs[i] = 1 + rng.Float64()*4
		must(p.SetUpperBound(p.AddVariable("t", costs[i]), 1))
	}
	rowsets = make([][]int, m)
	for k := range rowsets {
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				rowsets[k] = append(rowsets[k], i)
			}
		}
		if len(rowsets[k]) == 0 {
			rowsets[k] = []int{rng.Intn(n)}
		}
		terms := make([]lp.Term, len(rowsets[k]))
		for i, v := range rowsets[k] {
			terms[i] = lp.Term{Var: v, Coef: 1}
		}
		must(p.AddConstraint(terms, lp.GE, 1))
	}
	p, isInt = allInt(p)
	return p, isInt, costs, rowsets
}

// allInt pairs p with an isInt vector marking every variable integer.
func allInt(p *lp.Problem) (*lp.Problem, []bool) {
	isInt := make([]bool, p.NumVariables())
	for i := range isInt {
		isInt[i] = true
	}
	return p, isInt
}

func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("benchprob: static fixture construction failed: %v", err))
	}
}
