package lower

import (
	"context"
	"fmt"
	"math"
	"time"

	"sagrelay/internal/geom"
	"sagrelay/internal/hitting"
	"sagrelay/internal/obs"
	"sagrelay/internal/scenario"
)

// DualResult is a dual-coverage placement: every subscriber has a primary
// access relay (Result.AssignOf) and a distinct backup relay within its
// distance requirement, following the dual-relay MMR architecture of [8],
// [9] in the paper's related work. Any single coverage-relay failure
// leaves every subscriber with a working access link.
type DualResult struct {
	// Result carries the relays and the primary assignment.
	Result
	// BackupOf maps each subscriber to its backup relay index (distinct
	// from the primary).
	BackupOf []int
}

// DualCoverage places coverage relays such that every subscriber's
// feasible circle contains at least two of them. It reuses Zone Partition
// and the hitting-set machinery with a 2-fold coverage demand, assigns
// primaries by Coverage Link Escape, and picks each subscriber's strongest
// remaining covering relay as backup.
//
// Sliding is intentionally skipped: moving a relay to favour its primary
// subscribers could evict it from circles where it serves as backup. Use
// SNRViolations to audit the SNR cost of the redundancy.
func DualCoverage(ctx context.Context, sc *scenario.Scenario, opts SAMCOptions) (*DualResult, error) {
	start := time.Now()
	// opts.Cache stays unused: its entries are SAMC's 1-fold SNR-slid
	// placements, keyed by samcZoneKey, not 2-fold covers.
	cover, err := solveZones(ctx, sc, zoneMethod{
		name:    "dual-cover",
		workers: opts.Workers,
		solve: func(_ context.Context, zone []int, _ *obs.Span) ([]Relay, bool, error) {
			relays, err := dualZone(sc, zone)
			return relays, false, err
		},
	})
	if err != nil {
		return nil, err
	}
	res := &DualResult{Result: *cover}
	if res.Feasible {
		if err := res.assignBackups(sc); err != nil {
			return nil, fmt.Errorf("lower: dual-cover: %w", err)
		}
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// dualZone places 2-fold coverage for one zone and derives the primary
// assignment. Escape drops relays that end up with no primary subscriber,
// which would break 2-fold coverage, so dropped points come back as
// pure-backup relays with no primaries.
func dualZone(sc *scenario.Scenario, zone []int) ([]Relay, error) {
	relays, points, _, err := hittingEscape(sc, zone, 2, hitting.Options{})
	if err != nil {
		return nil, err
	}
	used := make(map[geom.Point]bool, len(relays))
	for _, r := range relays {
		used[r.Pos] = true
	}
	for _, p := range points {
		if !used[p] {
			relays = append(relays, Relay{Pos: p})
		}
	}
	return relays, nil
}

// assignBackups picks, for each subscriber, the strongest covering relay
// other than its primary.
func (r *DualResult) assignBackups(sc *scenario.Scenario) error {
	r.BackupOf = make([]int, sc.NumSS())
	for j := range sc.Subscribers {
		primary := r.AssignOf[j]
		ss := sc.Subscribers[j]
		best, bestDist := -1, math.Inf(1)
		for k, relay := range r.Relays {
			if k == primary {
				continue
			}
			d := relay.Pos.Dist(ss.Pos)
			if d <= ss.DistReq+coverTol && d < bestDist {
				best, bestDist = k, d
			}
		}
		if best < 0 {
			return fmt.Errorf("subscriber %d has no backup relay in range", j)
		}
		r.BackupOf[j] = best
	}
	return nil
}

// VerifyDual checks primary coverage (via Result.Verify) and that every
// backup is distinct from the primary and within range.
func (r *DualResult) VerifyDual(sc *scenario.Scenario) error {
	if err := r.Verify(sc, false); err != nil {
		return err
	}
	if len(r.BackupOf) != sc.NumSS() {
		return fmt.Errorf("lower: BackupOf has %d entries for %d subscribers", len(r.BackupOf), sc.NumSS())
	}
	for j, b := range r.BackupOf {
		if b < 0 || b >= len(r.Relays) {
			return fmt.Errorf("lower: subscriber %d backup %d out of range", j, b)
		}
		if b == r.AssignOf[j] {
			return fmt.Errorf("lower: subscriber %d backup equals primary", j)
		}
		ss := sc.Subscribers[j]
		if d := r.Relays[b].Pos.Dist(ss.Pos); d > ss.DistReq+1e-6 {
			return fmt.Errorf("lower: subscriber %d backup at distance %.3f exceeds %.3f", j, d, ss.DistReq)
		}
	}
	return nil
}

// SurvivesSingleFailure reports whether every subscriber keeps a covering
// relay (primary or backup) when the given relay fails. For a placement
// passing VerifyDual this always holds — the method makes the guarantee
// checkable against corrupted or hand-built placements.
func (r *DualResult) SurvivesSingleFailure(failed int) bool {
	for j := range r.AssignOf {
		if r.AssignOf[j] == failed && r.BackupOf[j] == failed {
			return false
		}
	}
	return true
}
