package lower

import (
	"context"
	"fmt"
	"math"

	"sagrelay/internal/lp"
	"sagrelay/internal/obs"
	"sagrelay/internal/scenario"
)

// PowerAllocation is a transmission-power assignment for a set of coverage
// relays.
type PowerAllocation struct {
	// Powers holds the transmit power of each relay, indexed like
	// Result.Relays.
	Powers []float64
	// Total is the summed transmit power (the paper's P_L).
	Total float64
	// Method names the algorithm that produced the allocation.
	Method string
}

// BaselinePower returns the paper's baseline allocation: every placed relay
// transmits at PMax (the assumption under which coverage was computed).
func BaselinePower(sc *scenario.Scenario, res *Result) *PowerAllocation {
	powers := make([]float64, len(res.Relays))
	for i := range powers {
		powers[i] = sc.PMax
	}
	return &PowerAllocation{
		Powers: powers,
		Total:  sc.PMax * float64(len(res.Relays)),
		Method: "baseline",
	}
}

// powerContext precomputes the per-(relay, subscriber) path gains and zone
// structure used by the power algorithms.
type powerContext struct {
	sc     *scenario.Scenario
	res    *Result
	gain   [][]float64 // gain[i][j] = path gain between relay i and subscriber j
	zoneOf []int       // subscriber -> zone
	rZone  []int       // relay -> zone
	pmin   []float64   // coverage power Pc per relay
	beta   float64
}

func newPowerContext(sc *scenario.Scenario, res *Result) (*powerContext, error) {
	if err := res.Verify(sc, false); err != nil {
		return nil, fmt.Errorf("lower: power optimization needs a feasible coverage result: %w", err)
	}
	ctx := &powerContext{
		sc:     sc,
		res:    res,
		zoneOf: zoneIndex(sc.NumSS(), res.Zones),
		beta:   sc.Beta(),
	}
	n := len(res.Relays)
	ctx.gain = make([][]float64, n)
	ctx.rZone = make([]int, n)
	ctx.pmin = make([]float64, n)
	for i, relay := range res.Relays {
		ctx.gain[i] = make([]float64, sc.NumSS())
		for j, ss := range sc.Subscribers {
			ctx.gain[i][j] = sc.Model.Gain(relay.Pos.Dist(ss.Pos))
		}
		ctx.rZone[i] = relayZone(relay, ctx.zoneOf)
		// Coverage power Pc (Section III-A.2): the minimum power meeting
		// every covered subscriber's received-power demand.
		for _, j := range relay.Covers {
			need := sc.Subscribers[j].MinRxPower / ctx.gain[i][j]
			if need > ctx.pmin[i] {
				ctx.pmin[i] = need
			}
		}
		if ctx.pmin[i] > sc.PMax {
			// Coverage was verified, so the demand is met at PMax up to
			// rounding; clamp.
			ctx.pmin[i] = sc.PMax
		}
	}
	return ctx, nil
}

// sameZone reports whether relay k interferes with subscriber j under the
// zone-independence assumption.
func (ctx *powerContext) sameZone(k, j int) bool {
	if ctx.zoneOf == nil {
		return true
	}
	return ctx.rZone[k] == ctx.zoneOf[j]
}

// interferenceAt returns the total interference power received at
// subscriber j from all same-zone relays except exclude, under powers.
func (ctx *powerContext) interferenceAt(j, exclude int, powers []float64) float64 {
	total := 0.0
	for k := range ctx.res.Relays {
		if k == exclude || !ctx.sameZone(k, j) {
			continue
		}
		total += powers[k] * ctx.gain[k][j]
	}
	return total
}

// snrOKForRelay checks the SNR constraint of every subscriber covered by
// relay i under powers.
func (ctx *powerContext) snrOKForRelay(i int, powers []float64) bool {
	for _, j := range ctx.res.Relays[i].Covers {
		signal := powers[i] * ctx.gain[i][j]
		if signal < ctx.beta*ctx.interferenceAt(j, i, powers)-1e-12 {
			return false
		}
	}
	return true
}

// psnr returns the SNR power P_snr of relay i: the minimum transmit power
// meeting every covered subscriber's SNR given the other relays' current
// powers (Section III-A.2).
func (ctx *powerContext) psnr(i int, powers []float64) float64 {
	p := 0.0
	for _, j := range ctx.res.Relays[i].Covers {
		need := ctx.beta * ctx.interferenceAt(j, i, powers) / ctx.gain[i][j]
		if need > p {
			p = need
		}
	}
	return p
}

// PRO implements Algorithm 6, Power Reduction Optimization: starting from
// all relays at PMax, it repeatedly drops to the coverage power Pc every
// relay whose covered subscribers' SNR survives the drop; when stuck, it
// settles the relay with the smallest gap Psnr - Pc at its SNR power and
// continues. The result is a (1+phi)-approximation of the optimal power
// cost (Theorem 1).
//
// The sweep runs zone by zone. interferenceAt sums only same-zone relays
// (zone independence, Alg. 2), so one zone's power trajectory depends on
// zone-local state alone, and the per-zone sweeps reproduce the global
// sweep bit for bit: in the global sweep a failed drop restores the exact
// previous float, extra sweeps over an already-stuck zone are no-ops, and
// a stuck-settle always settles the global minimum-delta relay, which is a
// fortiori its own zone's minimum. Within a zone both visit relays in the
// same ascending order and accumulate interference in the same order; the
// Total is summed in relay order. When the relays are not grouped by zone,
// one block [0, n) runs the global sweep itself.
//
// Cancellation is cooperative: the relaxation sweep checks cctx once per
// round, so a cancelled context aborts within one O(relays²) pass.
func PRO(cctx context.Context, sc *scenario.Scenario, res *Result) (*PowerAllocation, error) {
	if cctx == nil {
		cctx = context.Background()
	}
	_, span := obs.StartSpan(cctx, "pro")
	span.SetInt("relays", int64(len(res.Relays)))
	defer span.End()
	ctx, err := newPowerContext(sc, res)
	if err != nil {
		return nil, err
	}
	n := len(res.Relays)
	blocks, ok := zoneBlocks(ctx)
	if !ok {
		blocks = []block{{lo: 0, hi: n}}
	}
	span.SetInt("zones", int64(len(blocks)))
	powers := make([]float64, n)
	rounds := 0
	for _, blk := range blocks {
		r, err := ctx.proBlock(cctx, blk.lo, blk.hi, powers)
		if err != nil {
			return nil, err
		}
		rounds += r
	}
	span.SetInt("rounds", int64(rounds))
	alloc := &PowerAllocation{Powers: powers, Method: "PRO"}
	for _, p := range powers {
		alloc.Total += p
	}
	if err := ctx.verify(powers); err != nil {
		return nil, fmt.Errorf("lower: PRO: produced invalid allocation: %w", err)
	}
	return alloc, nil
}

// block is a contiguous relay index range [lo, hi) belonging to one zone.
type block struct{ lo, hi int }

// zoneBlocks splits the relay list into per-zone contiguous blocks.
// ok=false when a relay has no zone (empty Covers, or a result without
// zones) or the list is not grouped in non-decreasing zone order.
func zoneBlocks(ctx *powerContext) ([]block, bool) {
	var blocks []block
	prev := -1
	for i, z := range ctx.rZone {
		if z < 0 {
			return nil, false
		}
		if z != prev {
			if z < prev {
				return nil, false
			}
			blocks = append(blocks, block{lo: i, hi: i + 1})
			prev = z
		} else {
			blocks[len(blocks)-1].hi = i + 1
		}
	}
	return blocks, true
}

// proBlock runs the PRO relaxation restricted to relays [lo, hi), writing
// their powers into the full-length powers vector, and returns the number
// of sweeps it took. When [lo, hi) is one zone's block, interferenceAt and
// psnr skip every relay outside it, so evaluating them with a
// partially-filled vector is exact — entries outside the block are never
// read. Over [0, n) it is the global sweep of Alg. 6.
func (ctx *powerContext) proBlock(cctx context.Context, lo, hi int, powers []float64) (int, error) {
	sc := ctx.sc
	remaining := hi - lo
	rounds := 0
	inK := make([]bool, hi-lo)
	for i := lo; i < hi; i++ {
		powers[i] = sc.PMax
		inK[i-lo] = true
	}
	for remaining > 0 {
		if err := cctx.Err(); err != nil {
			return 0, fmt.Errorf("lower: PRO: %w", err)
		}
		rounds++
		changed := false
		for i := lo; i < hi; i++ {
			if !inK[i-lo] {
				continue
			}
			old := powers[i]
			powers[i] = ctx.pmin[i]
			if ctx.snrOKForRelay(i, powers) {
				inK[i-lo] = false
				remaining--
				changed = true
			} else {
				powers[i] = old
			}
		}
		if changed || remaining == 0 {
			continue
		}
		// Stuck: settle the relay with minimal delta = Psnr - Pc at Psnr
		// (Alg. 6, Steps 10-13).
		best, bestDelta := -1, math.Inf(1)
		bestP := 0.0
		for i := lo; i < hi; i++ {
			if !inK[i-lo] {
				continue
			}
			p := ctx.psnr(i, powers)
			if p < ctx.pmin[i] {
				p = ctx.pmin[i]
			}
			if p > sc.PMax {
				p = sc.PMax
			}
			if delta := p - ctx.pmin[i]; delta < bestDelta {
				best, bestDelta, bestP = i, delta, p
			}
		}
		if best < 0 {
			return 0, fmt.Errorf("lower: PRO: internal: stuck with %d relays unresolved", remaining)
		}
		powers[best] = bestP
		inK[best-lo] = false
		remaining--
	}
	return rounds, nil
}

// OptimalPower solves the paper's LPQC (eqs. 3.6-3.9) exactly: with the
// assignment fixed by the coverage result, the quadratic SNR constraint
// (3.9) is linear in the powers, so the model is a pure LP:
//
//	min  sum_i P_i
//	s.t. P_a(j) * g_a(j),j >= Pss_j                       (3.8, coverage)
//	     P_a(j) * g_a(j),j >= beta * sum_{k!=a(j)} P_k * g_kj   (3.9, SNR)
//	     0 <= P_i <= PMax
//
// It is the benchmark the paper compares PRO against ("optimal" curves in
// Figs. 4a and 5a). The LP solve polls cctx between simplex pivots, so a
// cancelled context aborts promptly.
//
// The rows of (3.8) for one relay together say P_i >= Pc_i, its coverage
// power, so the LP is solved in the slack Q_i = P_i - Pc_i over the bounds
// [0, PMax - Pc_i], with each SNR row divided by g_a(j),j. Every
// coefficient is then the serving relay's 1 or an interference ratio
// beta*g_kj/g_a(j),j, which sum to at most 1 on a placement that is
// SNR-feasible at PMax. Written as the paper states it, the rows mix
// received powers and gains many orders of magnitude apart, and the
// simplex returned "optimal" points that broke the coverage rows or the
// power bounds. The answer is checked with VerifyPower's test, on the
// gain table the LP was built from, before it is returned.
func OptimalPower(cctx context.Context, sc *scenario.Scenario, res *Result) (*PowerAllocation, error) {
	if cctx == nil {
		cctx = context.Background()
	}
	_, span := obs.StartSpan(cctx, "lpqc")
	span.SetInt("relays", int64(len(res.Relays)))
	defer span.End()
	ctx, err := newPowerContext(sc, res)
	if err != nil {
		return nil, err
	}
	prob := lp.NewProblem()
	n := len(res.Relays)
	vars := make([]int, n)
	for i := 0; i < n; i++ {
		vars[i] = prob.AddVariable(fmt.Sprintf("Q%d", i), 1)
		if err := prob.SetUpperBound(vars[i], sc.PMax-ctx.pmin[i]); err != nil {
			return nil, fmt.Errorf("lower: optimal power: %w", err)
		}
	}
	// SNR (3.9) in Q: Q_a - sum_k c_k Q_k >= sum_k c_k Pc_k - Pc_a with
	// c_k = beta * g_kj / g_a(j),j.
	for j := range sc.Subscribers {
		a := res.AssignOf[j]
		terms := []lp.Term{{Var: vars[a], Coef: 1}}
		rhs := -ctx.pmin[a]
		for k := 0; k < n; k++ {
			if k == a || !ctx.sameZone(k, j) {
				continue
			}
			c := ctx.beta * ctx.gain[k][j] / ctx.gain[a][j]
			terms = append(terms, lp.Term{Var: vars[k], Coef: -c})
			rhs += c * ctx.pmin[k]
		}
		if err := prob.AddConstraint(terms, lp.GE, rhs); err != nil {
			return nil, fmt.Errorf("lower: optimal power: %w", err)
		}
	}
	sol, err := prob.SolveContext(cctx)
	if err != nil {
		return nil, fmt.Errorf("lower: optimal power: %w", err)
	}
	span.SetInt("pivots", int64(sol.Iterations))
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("lower: optimal power: LP status %v (coverage result should be PMax-feasible)", sol.Status)
	}
	alloc := &PowerAllocation{Powers: make([]float64, n), Method: "optimal"}
	for i := range alloc.Powers {
		alloc.Powers[i] = ctx.pmin[i] + sol.X[i]
		alloc.Total += alloc.Powers[i]
	}
	if err := ctx.verify(alloc.Powers); err != nil {
		return nil, fmt.Errorf("lower: optimal power: produced invalid allocation: %w", err)
	}
	return alloc, nil
}

// VerifyPower checks that powers satisfy every subscriber's coverage
// (received power) and SNR constraints under the zone-independence
// assumption. A small relative tolerance absorbs float rounding. It
// recomputes everything from scratch: the coverage check and the gain
// table are rebuilt from sc and res, so it shares no state with the code
// that produced powers.
func VerifyPower(sc *scenario.Scenario, res *Result, powers []float64) error {
	ctx, err := newPowerContext(sc, res)
	if err != nil {
		return err
	}
	return ctx.verify(powers)
}

// verify is VerifyPower's check on a context already built for the same
// scenario and result. PRO and OptimalPower check their own answers with
// it: they never write to sc, res or the gain table, so rebuilding them
// would only repeat the same computation.
func (ctx *powerContext) verify(powers []float64) error {
	sc, res := ctx.sc, ctx.res
	if len(powers) != len(res.Relays) {
		return fmt.Errorf("lower: power vector has %d entries for %d relays", len(powers), len(res.Relays))
	}
	const rel = 1e-6
	for i, p := range powers {
		if p < -1e-12 || p > sc.PMax*(1+rel) {
			return fmt.Errorf("lower: relay %d power %v outside [0, %v]", i, p, sc.PMax)
		}
	}
	for j := range sc.Subscribers {
		a := res.AssignOf[j]
		signal := powers[a] * ctx.gain[a][j]
		if signal < sc.Subscribers[j].MinRxPower*(1-rel)-1e-15 {
			return fmt.Errorf("lower: subscriber %d received power %.4g below demand %.4g", j, signal, sc.Subscribers[j].MinRxPower)
		}
		noise := ctx.interferenceAt(j, a, powers)
		if signal < ctx.beta*noise*(1-rel)-1e-15 {
			return fmt.Errorf("lower: subscriber %d SIR %.4g below threshold %.4g", j, signal/noise, ctx.beta)
		}
	}
	return nil
}
