package lower

import (
	"context"
	"fmt"
	"time"

	"sagrelay/internal/geom"
	"sagrelay/internal/hitting"
	"sagrelay/internal/lp"
	"sagrelay/internal/milp"
	"sagrelay/internal/obs"
	"sagrelay/internal/scenario"
)

// ILPOptions tune the ILPQC-based coverage solvers (IAC and GAC).
type ILPOptions struct {
	// GridSize is the GAC grid cell size (paper sweeps 13-20); 0 means 15.
	GridSize float64
	// MaxZoneSS caps the subscribers per solved sub-zone; larger zones are
	// spatially bisected first (see SplitLargeZones). 0 means 10.
	MaxZoneSS int
	// MaxNodes caps branch-and-bound nodes per sub-zone; 0 means 3000.
	MaxNodes int
	// TimeLimit caps branch-and-bound time per sub-zone; 0 means 2s.
	TimeLimit time.Duration
	// Workers bounds the number of Zone-Partition zones solved
	// concurrently; 0 means runtime.GOMAXPROCS(0), 1 solves zones
	// sequentially. Zones are independent subproblems (Section IV-A) and
	// relays are assembled in zone order, so the result is identical at any
	// worker count.
	Workers int
	// Cache, when non-nil, is consulted before each zone's branch-and-bound
	// solve and handed every solved zone afterwards (see ZoneCache). A hit
	// splices the cached placement verbatim, which is byte-identical to
	// re-solving: the key covers every determinism-relevant input.
	Cache ZoneCache
}

// DefaultMaxZoneSS is the default sub-zone size cap applied when
// ILPOptions.MaxZoneSS is zero; exported so a caller can reproduce the
// zone partition an ILP solve uses: ZonePartition, then SplitLargeZones
// with this cap.
const DefaultMaxZoneSS = 10

func (o ILPOptions) withDefaults() ILPOptions {
	if o.GridSize <= 0 {
		o.GridSize = 15
	}
	if o.MaxZoneSS <= 0 {
		o.MaxZoneSS = DefaultMaxZoneSS
	}
	if o.MaxNodes <= 0 {
		o.MaxNodes = 3000
	}
	if o.TimeLimit <= 0 {
		o.TimeLimit = 2 * time.Second
	}
	return o
}

// IAC solves the ILPQC coverage formulation (eqs. 3.1-3.5) with
// Intersections As Candidates (Fig. 2a): candidate relay positions are the
// pairwise intersection points of the subscribers' feasible circles (plus
// the circle centers, so isolated subscribers stay coverable).
//
// Cancellation is cooperative: a cancelled ctx stops unstarted zones and
// aborts in-flight branch-and-bound searches between nodes and simplex
// pivots. The error wraps ctx.Err().
func IAC(ctx context.Context, sc *scenario.Scenario, opts ILPOptions) (*Result, error) {
	return solveILP(ctx, sc, opts, "IAC", geom.IntersectionCandidates)
}

// GAC solves the ILPQC coverage formulation with Grids As Candidates
// (Fig. 2b): candidate relay positions are the centers of the square grid
// cells tiling the field; smaller grid sizes give more accurate results at
// higher cost (Section III-A). Each zone keeps the grid points that cover
// one of its subscribers. Cancellation behaves as in IAC.
func GAC(ctx context.Context, sc *scenario.Scenario, opts ILPOptions) (*Result, error) {
	grid := geom.GridCenters(sc.Field, opts.withDefaults().GridSize)
	return solveILP(ctx, sc, opts, "GAC", func([]geom.Circle) []geom.Point { return grid })
}

// solveILP runs the per-zone ILPQC pipeline with the given candidate
// construction on zones of at most opts.MaxZoneSS subscribers. A cancelled
// ctx both stops unstarted zones and aborts in-flight branch-and-bound
// searches.
func solveILP(ctx context.Context, sc *scenario.Scenario, opts ILPOptions, method string, candidatesFor func(disks []geom.Circle) []geom.Point) (*Result, error) {
	opts = opts.withDefaults()
	m := zoneMethod{name: method, maxSS: opts.MaxZoneSS, workers: opts.Workers, solve: func(ctx context.Context, zone []int, _ *obs.Span) ([]Relay, bool, error) {
		disks := make([]geom.Circle, len(zone))
		for i, s := range zone {
			disks[i] = sc.Subscribers[s].Circle()
		}
		relays, mres, err := solveZoneILP(ctx, sc, zone, disks, candidatesFor(disks), opts)
		return relays, mres != nil && mres.DeadlineHit, err
	}}
	if opts.Cache != nil {
		m.cache, m.key = opts.Cache, func(zone []int) string { return ilpZoneKey(sc, zone, method, opts) }
	}
	return solveZones(ctx, sc, m)
}

// solveZoneILP builds and solves the ILPQC for one zone.
//
// Variables: T_i (place a relay at candidate i) and T_ij (subscriber j's
// access link uses candidate i), both binary; T_ij exists only for pairs
// within the distance requirement (constraint 3.4 by construction).
//
// Constraints (numbers from the paper):
//
//	(3.2)  T_i <= sum_j T_ij <= n*T_i        placed relays cover >= 1 SS,
//	                                         links only to placed relays
//	(3.3)  sum_i T_ij = 1                    exactly one access link per SS
//	(3.5)  sum_k w_kj*T_k - w_ij*T_i <= w_ij/beta + M_j*(1 - T_ij)
//
// (3.5) is the paper's quadratic SNR constraint linearized exactly with
// M_j = sum_k w_kj (the largest possible interference at j): when T_ij = 1
// the relay at i serves j, so the total received power minus the serving
// signal must be at most signal/beta.
func solveZoneILP(ctx context.Context, sc *scenario.Scenario, zone []int, disks []geom.Circle, candidates []geom.Point, opts ILPOptions) (relays []Relay, mres *milp.Result, err error) {
	// Keep only candidates that cover at least one subscriber.
	var cands []geom.Point
	for _, p := range candidates {
		for _, d := range disks {
			if d.Contains(p, coverTol) {
				cands = append(cands, p)
				break
			}
		}
	}
	if len(cands) == 0 {
		return nil, nil, ErrInfeasible
	}
	n := len(zone)
	nC := len(cands)
	beta := sc.Beta()

	// Path gains w_kj between every candidate and every zone subscriber.
	w := make([][]float64, nC)
	for i, p := range cands {
		w[i] = make([]float64, n)
		for j, s := range zone {
			w[i][j] = sc.Model.Gain(p.Dist(sc.Subscribers[s].Pos))
		}
	}

	prob := lp.NewProblem()
	tVar := make([]int, nC)
	for i := range tVar {
		tVar[i] = prob.AddVariable(fmt.Sprintf("T%d", i), 1)
		if err := prob.SetUpperBound(tVar[i], 1); err != nil {
			return nil, nil, err
		}
	}
	// Feasible pairs and their variables.
	pairVar := make(map[[2]int]int) // (candidate, zoneSS) -> var
	pairsOfCand := make([][]int, nC)
	pairsOfSS := make([][]int, n)
	for i := range cands {
		for j := range zone {
			if disks[j].Contains(cands[i], coverTol) {
				v := prob.AddVariable(fmt.Sprintf("T%d_%d", i, j), 0)
				if err := prob.SetUpperBound(v, 1); err != nil {
					return nil, nil, err
				}
				pairVar[[2]int{i, j}] = v
				pairsOfCand[i] = append(pairsOfCand[i], j)
				pairsOfSS[j] = append(pairsOfSS[j], i)
			}
		}
	}
	for j := range zone {
		if len(pairsOfSS[j]) == 0 {
			return nil, nil, ErrInfeasible // no candidate covers this subscriber
		}
	}
	// (3.2): T_i - sum_j T_ij <= 0 and sum_j T_ij - n*T_i <= 0.
	for i := range cands {
		lowTerms := []lp.Term{{Var: tVar[i], Coef: 1}}
		highTerms := []lp.Term{{Var: tVar[i], Coef: -float64(n)}}
		for _, j := range pairsOfCand[i] {
			v := pairVar[[2]int{i, j}]
			lowTerms = append(lowTerms, lp.Term{Var: v, Coef: -1})
			highTerms = append(highTerms, lp.Term{Var: v, Coef: 1})
		}
		if err := prob.AddConstraint(lowTerms, lp.LE, 0); err != nil {
			return nil, nil, err
		}
		if err := prob.AddConstraint(highTerms, lp.LE, 0); err != nil {
			return nil, nil, err
		}
	}
	// (3.3): exactly one access link per subscriber.
	for j := range zone {
		terms := make([]lp.Term, 0, len(pairsOfSS[j]))
		for _, i := range pairsOfSS[j] {
			terms = append(terms, lp.Term{Var: pairVar[[2]int{i, j}], Coef: 1})
		}
		if err := prob.AddConstraint(terms, lp.EQ, 1); err != nil {
			return nil, nil, err
		}
	}
	// (3.5) big-M linearized per feasible pair.
	for j := range zone {
		mj := 0.0
		for k := range cands {
			mj += w[k][j]
		}
		for _, i := range pairsOfSS[j] {
			terms := make([]lp.Term, 0, nC+2)
			for k := range cands {
				terms = append(terms, lp.Term{Var: tVar[k], Coef: w[k][j]})
			}
			terms = append(terms, lp.Term{Var: tVar[i], Coef: -w[i][j]})
			terms = append(terms, lp.Term{Var: pairVar[[2]int{i, j}], Coef: mj})
			rhs := w[i][j]/beta + mj
			if err := prob.AddConstraint(terms, lp.LE, rhs); err != nil {
				return nil, nil, err
			}
		}
	}

	isInt := make([]bool, prob.NumVariables())
	for i := range isInt {
		isInt[i] = true
	}
	mopts := milp.Options{MaxNodes: opts.MaxNodes, TimeLimit: opts.TimeLimit}
	if inc, obj, ok := greedyIncumbent(sc, zone, disks, cands, w, beta, pairVar, prob.NumVariables(), tVar); ok {
		mopts.Incumbent = inc
		mopts.IncumbentObj = obj
	}
	mres, err = milp.Solve(ctx, prob, isInt, mopts)
	if err != nil {
		return nil, nil, fmt.Errorf("branch and bound: %w", err)
	}
	if err := zoneStatusErr(mres.Status, mres.DeadlineHit); err != nil {
		return nil, nil, err
	}
	// Extract placement and assignment.
	covers := make(map[int][]int)
	for j := range zone {
		for _, i := range pairsOfSS[j] {
			if mres.X[pairVar[[2]int{i, j}]] > 0.5 {
				covers[i] = append(covers[i], zone[j])
				break
			}
		}
	}
	for i := range cands {
		if mres.X[tVar[i]] > 0.5 && len(covers[i]) > 0 {
			relays = append(relays, Relay{Pos: cands[i], Covers: covers[i]})
		}
	}
	return relays, mres, nil
}

// zoneStatusErr maps a zone's branch-and-bound outcome to the error the
// zone solve reports. Optimal and Feasible proceed to extraction (a
// Feasible incumbent truncated by the wall-clock deadline is usable but
// marks the result Truncated). A Limit caused by the wall-clock deadline
// is ErrZoneDeadline: running out of time before any incumbent is a
// load-dependent non-answer, not proof of infeasibility. A node-cap Limit
// is deterministic — the same nodes are explored on every machine — and
// keeps the historical infeasible mapping.
func zoneStatusErr(status milp.Status, deadlineHit bool) error {
	switch status {
	case milp.Optimal, milp.Feasible:
		return nil
	case milp.Infeasible:
		return ErrInfeasible
	case milp.Limit:
		if deadlineHit {
			return ErrZoneDeadline
		}
		return ErrInfeasible
	default:
		return fmt.Errorf("branch and bound: unexpected status %v", status)
	}
}

// greedyIncumbent warm-starts branch and bound with a greedy hitting set
// whose max-signal assignment happens to satisfy the SNR constraints.
// ok=false when greedy's placement violates SNR (the search then starts
// cold).
func greedyIncumbent(sc *scenario.Scenario, zone []int, disks []geom.Circle, cands []geom.Point, w [][]float64, beta float64, pairVar map[[2]int]int, numVars int, tVar []int) ([]float64, float64, bool) {
	inst := &hitting.Instance{Disks: disks, Candidates: cands, Tol: coverTol}
	sol, err := inst.Solve(hitting.Options{LocalSearch: true, MaxSwap: 2, MaxRounds: 10})
	if err != nil {
		return nil, 0, false
	}
	chosen := make(map[int]bool, len(sol.Chosen))
	for _, c := range sol.Chosen {
		chosen[c] = true
	}
	// Assign each subscriber to the strongest chosen covering candidate.
	assign := make([]int, len(zone))
	for j := range zone {
		best, bestW := -1, 0.0
		for i := range cands {
			if !chosen[i] || !disks[j].Contains(cands[i], coverTol) {
				continue
			}
			if w[i][j] > bestW {
				best, bestW = i, w[i][j]
			}
		}
		if best < 0 {
			return nil, 0, false
		}
		assign[j] = best
	}
	// Drop chosen candidates that serve nobody (3.2 would be violated).
	// used is indexed by candidate so the SNR noise sum below runs in
	// candidate order: floating-point accumulation order is part of the
	// bit-identical determinism contract, and ranging over a map here would
	// let Go's randomized iteration order perturb the rounding.
	used := make([]bool, len(cands))
	for _, a := range assign {
		used[a] = true
	}
	// SNR check under the used set.
	for j := range zone {
		signal := w[assign[j]][j]
		noise := 0.0
		for i, u := range used {
			if u && i != assign[j] {
				noise += w[i][j]
			}
		}
		if signal < beta*noise {
			return nil, 0, false
		}
	}
	x := make([]float64, numVars)
	usedCount := 0
	for i, u := range used {
		if u {
			x[tVar[i]] = 1
			usedCount++
		}
	}
	for j, a := range assign {
		v, ok := pairVar[[2]int{a, j}]
		if !ok {
			return nil, 0, false
		}
		x[v] = 1
	}
	return x, float64(usedCount), true
}
