package lower

import (
	"context"
	"fmt"

	"sagrelay/internal/obs"
	"sagrelay/internal/scenario"
)

// DistanceCoverage is the lower tier of DARP [1]: minimum hitting set
// coverage under distance requirements only, with no SNR awareness — the
// approach the paper improves on ("[1] does not take SNR constraint into
// account"). It runs Zone Partition and Coverage Link Escape like SAMC but
// skips RS Sliding Movement entirely and accepts whatever SNR results.
//
// The returned result is always "feasible" in DARP's distance-only sense;
// callers can measure the SNR damage with Result.SIRAtSubscriber or
// Verify(sc, true) — quantifying exactly the gap the paper's Fig. 3
// feasibility arguments are about.
func DistanceCoverage(ctx context.Context, sc *scenario.Scenario, opts SAMCOptions) (*Result, error) {
	opts = opts.withDefaults()
	// opts.Cache stays unused: its entries are SAMC's SNR-slid placements,
	// keyed by samcZoneKey, not distance-only covers.
	return solveZones(ctx, sc, zoneMethod{
		name:    "DARP-cover",
		workers: opts.Workers,
		solve: func(_ context.Context, zone []int, _ *obs.Span) ([]Relay, bool, error) {
			relays, _, _, err := hittingEscape(sc, zone, 1, opts.Hitting)
			return relays, false, err
		},
	})
}

// SNRViolations counts the subscribers whose Definition 2 SNR (all relays
// at PMax, zone-local interference) falls below the threshold — the
// diagnostic that separates SNR-aware placements from distance-only ones.
func SNRViolations(ctx context.Context, sc *scenario.Scenario, res *Result) (int, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return 0, fmt.Errorf("lower: SNR violations: %w", err)
		}
	}
	if err := res.Verify(sc, false); err != nil {
		return 0, err
	}
	zoneOf := zoneIndex(sc.NumSS(), res.Zones)
	violations := 0
	for j := range sc.Subscribers {
		if res.SIRAtSubscriber(sc, j, zoneOf) < sc.Beta()-1e-12 {
			violations++
		}
	}
	return violations, nil
}
