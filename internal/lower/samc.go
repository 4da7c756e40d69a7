package lower

import (
	"context"
	"errors"

	"sagrelay/internal/hitting"
	"sagrelay/internal/obs"
	"sagrelay/internal/scenario"
)

// SAMCOptions tune the SAMC heuristic.
type SAMCOptions struct {
	// Hitting configures the minimum hitting set PTAS; the zero value
	// selects hitting.DefaultOptions().
	Hitting hitting.Options
	// SkipSliding disables RS Sliding Movement (Alg. 4) for ablation: the
	// hitting-set points are used verbatim and any SNR violation makes the
	// zone infeasible. The paper's design rests on sliding rescuing exactly
	// these cases (Section III-A.1).
	SkipSliding bool
	// Workers bounds the number of Zone-Partition zones solved
	// concurrently by DistanceCoverage and DualCoverage; 0 means
	// runtime.GOMAXPROCS(0). Zone results are assembled in zone order, so
	// any worker count yields the identical placement. SAMC ignores it and
	// solves its zones in order on one worker.
	Workers int
	// Cache, when non-nil, is consulted before each zone's hitting-set +
	// sliding solve and handed every solved zone afterwards (see
	// ZoneCache). A hit splices the cached placement verbatim — SAMC is
	// deterministic per zone, so the splice is byte-identical to solving.
	Cache ZoneCache
}

func (o SAMCOptions) withDefaults() SAMCOptions {
	if o.Hitting == (hitting.Options{}) {
		o.Hitting = hitting.DefaultOptions()
	}
	return o
}

// ErrInfeasible reports that an algorithm could not satisfy every
// subscriber's coverage and SNR requirements (the paper's algorithms return
// "infeasible" in that case rather than a partial placement).
var ErrInfeasible = errors.New("lower: no feasible coverage satisfying the SNR threshold")

// ErrZoneDeadline reports that a zone's branch-and-bound search exhausted
// its wall-clock time limit (ILPOptions.TimeLimit) before finding any
// integer-feasible point. Unlike a proven-infeasible zone this is a
// load-dependent non-answer — a faster or idler machine might have found a
// cover — so it surfaces as an error (letting the degradation ladder retry
// or fall back to SAMC) instead of masquerading as infeasibility, which
// would poison deterministic result caches.
var ErrZoneDeadline = errors.New("lower: zone time limit exhausted before any feasible placement was found")

// SAMC implements Algorithm 1, SNR Aware Minimum Coverage:
//
//  1. Zone Partition (Alg. 2) splits the field into independent zones.
//  2. Per zone: a minimum hitting set over the subscribers' feasible
//     circles places the coverage relays (candidates are the circles'
//     intersection points and centers); Coverage Link Escape (Alg. 3)
//     assigns each subscriber to exactly one relay, maximizing one-on-one
//     coverage; RS Sliding Movement (Alg. 4) slides relays along/inside
//     their feasible circles until every subscriber's SNR clears.
//  3. The union of the zones' relays is returned; if any zone fails, SAMC
//     is infeasible (Alg. 1, Step 5).
//
// The relay count equals the hitting set size per zone (no relays are added
// or deleted while massaging SNR), so a feasible SAMC result inherits the
// hitting set PTAS's (1+eps) approximation on the relay count.
//
// Cancellation is cooperative: a cancelled ctx stops the zone loop between
// zones and the error wraps ctx.Err(). Zones are the natural check
// granularity — each zone's hitting-set and sliding work is bounded — so
// cancellation is prompt without perturbing any zone's result.
func SAMC(ctx context.Context, sc *scenario.Scenario, opts SAMCOptions) (*Result, error) {
	opts = opts.withDefaults()
	m := zoneMethod{name: "SAMC", workers: 1, solve: func(_ context.Context, zone []int, sp *obs.Span) ([]Relay, bool, error) {
		relays, err := samcZone(sc, zone, opts, sp)
		return relays, false, err
	}}
	if opts.Cache != nil {
		m.cache, m.key = opts.Cache, func(zone []int) string { return samcZoneKey(sc, zone, opts) }
	}
	return solveZones(ctx, sc, m)
}

// samcZone runs step 4 of Algorithm 1 for one zone, and records on the
// zone span what local search did to the zone's hitting set.
func samcZone(sc *scenario.Scenario, zone []int, opts SAMCOptions, sp *obs.Span) ([]Relay, error) {
	relays, _, mhs, err := hittingEscape(sc, zone, 1, opts.Hitting)
	if err != nil {
		return nil, err
	}
	sp.SetInt("greedy_size", int64(mhs.GreedySize))
	sp.SetInt("ls_rounds", int64(mhs.Rounds))
	if opts.SkipSliding {
		// Every covered subscriber's Definition 2 SNR must clear as placed.
		if st := newSlidingState(sc, relays); len(st.violatedSubscribers()) > 0 {
			return nil, ErrInfeasible
		}
		return relays, nil
	}
	slid, ok := SlidingMovement(sc, relays)
	if !ok {
		return nil, ErrInfeasible
	}
	return slid, nil
}
