package lower

import (
	"context"
	"errors"
	"fmt"
	"time"

	"sagrelay/internal/geom"
	"sagrelay/internal/hitting"
	"sagrelay/internal/obs"
	"sagrelay/internal/scenario"
)

// zoneSolveSeconds is the process-wide distribution of per-zone coverage
// solve times, across both the SAMC heuristic and the ILP paths.
var zoneSolveSeconds = obs.Default.NewHistogram(
	"sag_zone_solve_seconds",
	"Wall-clock seconds spent solving one Zone-Partition zone.",
	obs.SecondsBuckets,
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
	// Workers bounds the number of Zone-Partition zones solved concurrently
	// by the zone-parallel pipelines (DistanceCoverage, DualCoverage); 0
	// means runtime.GOMAXPROCS(0). Zone results are assembled in zone
	// order, so any worker count yields the identical placement.
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
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	opts = opts.withDefaults()
	if err := sc.Validate(); err != nil {
		return nil, fmt.Errorf("lower: SAMC: %w", err)
	}
	_, zpSpan := obs.StartSpan(ctx, "zone_partition")
	zones, err := ZonePartition(sc)
	zpSpan.SetInt("zones", int64(len(zones)))
	zpSpan.End()
	if err != nil {
		return nil, fmt.Errorf("lower: SAMC: %w", err)
	}
	res := &Result{Method: "SAMC", Zones: zones}
	for zi, zone := range zones {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("lower: SAMC: %w", err)
		}
		zoneStart := time.Now()
		_, zSpan := obs.StartSpan(ctx, "zone")
		zSpan.SetInt("index", int64(zi))
		zSpan.SetInt("subscribers", int64(len(zone)))
		var cacheKey string
		if opts.Cache != nil {
			cacheKey = samcZoneKey(sc, zone, opts)
			e, hit, cerr := opts.Cache.Get(cacheKey)
			if cerr != nil {
				zSpan.SetAttr("error", cerr.Error())
				zSpan.End()
				return nil, fmt.Errorf("lower: SAMC: %w", cerr)
			}
			if hit {
				if relays, ok := globalizeRelays(e.Relays, zone); ok {
					zSpan.SetBool("cache_hit", true)
					zSpan.SetInt("relays", int64(len(relays)))
					zSpan.End()
					zoneSolveSeconds.Observe(time.Since(zoneStart).Seconds())
					res.Relays = append(res.Relays, relays...)
					continue
				}
			}
		}
		relays, mhs, err := samcZone(sc, zone, opts)
		zSpan.End()
		zoneSolveSeconds.Observe(time.Since(zoneStart).Seconds())
		if err != nil {
			if errors.Is(err, ErrInfeasible) || errors.Is(err, hitting.ErrUncoverable) {
				zSpan.SetBool("infeasible", true)
				res.Feasible = false
				res.Relays = nil
				res.AssignOf = nil
				res.Elapsed = time.Since(start)
				return res, nil
			}
			zSpan.SetAttr("error", err.Error())
			return nil, fmt.Errorf("lower: SAMC: %w", err)
		}
		zSpan.SetInt("relays", int64(len(relays)))
		zSpan.SetInt("greedy_size", int64(mhs.GreedySize))
		zSpan.SetInt("ls_rounds", int64(mhs.Rounds))
		if opts.Cache != nil {
			if local, ok := localizeRelays(relays, zone); ok {
				opts.Cache.Put(cacheKey, &ZoneEntry{Relays: local})
			}
		}
		res.Relays = append(res.Relays, relays...)
	}
	res.Feasible = true
	res.AssignOf, err = buildAssign(sc.NumSS(), res.Relays)
	if err != nil {
		return nil, fmt.Errorf("lower: SAMC: %w", err)
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// samcZone runs steps 4 of Algorithm 1 for one zone. It also returns the
// hitting-set solution the relays came from, for the zone span.
func samcZone(sc *scenario.Scenario, zone []int, opts SAMCOptions) ([]Relay, *hitting.Solution, error) {
	disks := make([]geom.Circle, len(zone))
	for i, s := range zone {
		disks[i] = sc.Subscribers[s].Circle()
	}
	inst := &hitting.Instance{
		Disks:      disks,
		Candidates: geom.IntersectionCandidates(disks),
		Tol:        coverTol,
	}
	mhs, err := inst.Solve(opts.Hitting)
	if err != nil {
		return nil, nil, err
	}
	points := make([]geom.Point, len(mhs.Chosen))
	for i, c := range mhs.Chosen {
		points[i] = inst.Candidates[c]
	}
	relays, err := CoverageLinkEscape(sc, zone, points)
	if err != nil {
		return nil, nil, err
	}
	if opts.SkipSliding {
		if !snrSatisfied(sc, relays) {
			return nil, nil, ErrInfeasible
		}
		return relays, mhs, nil
	}
	slid, ok := SlidingMovement(sc, relays)
	if !ok {
		return nil, nil, ErrInfeasible
	}
	return slid, mhs, nil
}

// snrSatisfied checks every covered subscriber's Definition 2 SNR against
// the zone's relays at PMax (used by the SkipSliding ablation path).
func snrSatisfied(sc *scenario.Scenario, relays []Relay) bool {
	st := &slidingState{
		sc:        sc,
		beta:      sc.Beta(),
		relays:    relays,
		servingOf: make(map[int]int),
	}
	for r, relay := range relays {
		for _, s := range relay.Covers {
			st.servingOf[s] = r
		}
	}
	return len(st.violatedSubscribers()) == 0
}
