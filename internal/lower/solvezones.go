package lower

import (
	"context"
	"errors"
	"fmt"
	"time"

	"sagrelay/internal/hitting"
	"sagrelay/internal/milp"
	"sagrelay/internal/obs"
	"sagrelay/internal/par"
	"sagrelay/internal/scenario"
)

// zoneSolveSeconds is the process-wide distribution of per-zone solve
// times, store hits included, across every coverage method.
var zoneSolveSeconds = obs.Default.NewHistogram(
	"sag_zone_solve_seconds",
	"Wall-clock seconds spent solving one Zone-Partition zone.",
	obs.SecondsBuckets,
)

// zoneMethod is what one coverage method hands solveZones.
type zoneMethod struct {
	name    string // Result.Method and error prefix
	maxSS   int    // SplitLargeZones cap; 0 keeps Zone Partition's zones
	workers int    // zones solved at once; 0 means GOMAXPROCS
	// cache, when non-nil, serves and stores zones under key(zone).
	cache ZoneCache
	key   func(zone []int) string
	// solve places one zone's relays (global subscriber indices) and may
	// annotate its span; truncated marks a search cut by the wall clock.
	solve func(ctx context.Context, zone []int, sp *obs.Span) (relays []Relay, truncated bool, err error)
}

// zoneOut is one zone's slot in the fan-out.
type zoneOut struct {
	relays    []Relay
	truncated bool
}

// solveZones is Algorithm 1's outer loop, shared by every coverage method:
// Zone Partition (Alg. 2), one solve per zone, and the union of the zones'
// relays, concatenated in zone order so any worker count yields the same
// placement. An infeasible zone (ErrInfeasible, hitting.ErrUncoverable)
// makes the result infeasible (Alg. 1, Step 5) and stops the zones not yet
// started. A cancelled ctx stops unstarted zones; the error wraps
// ctx.Err().
func solveZones(ctx context.Context, sc *scenario.Scenario, m zoneMethod) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	if err := sc.Validate(); err != nil {
		return nil, fmt.Errorf("lower: %s: %w", m.name, err)
	}
	_, zpSpan := obs.StartSpan(ctx, "zone_partition")
	zones, err := ZonePartition(sc)
	zones = SplitLargeZones(sc, zones, m.maxSS)
	zpSpan.SetInt("zones", int64(len(zones)))
	zpSpan.End()
	if err != nil {
		return nil, fmt.Errorf("lower: %s: %w", m.name, err)
	}

	res := &Result{Method: m.name, Zones: zones}
	pfn := milp.ProgressFrom(ctx)
	out := make([]zoneOut, len(zones))
	// ctx carries the caller's span, so every zone span lands under it
	// whichever worker runs the zone.
	err = par.ForEachContext(ctx, m.workers, len(zones), func(zi int) (err error) {
		out[zi], err = m.solveZone(ctx, zi, zones[zi], pfn)
		return err
	})
	// ErrZoneDeadline is an error, not infeasibility: running out of wall
	// clock before any incumbent is load-dependent and must not be cached.
	if isInfeasible(err) {
		res.Elapsed = time.Since(start)
		return res, nil
	}
	if err != nil {
		return nil, fmt.Errorf("lower: %s: %w", m.name, err)
	}
	n := 0
	for _, z := range out {
		n += len(z.relays)
	}
	res.Relays = make([]Relay, 0, n)
	for _, z := range out {
		res.Relays = append(res.Relays, z.relays...)
		res.Truncated = res.Truncated || z.truncated
	}
	res.Feasible = true
	if res.AssignOf, err = buildAssign(sc.NumSS(), res.Relays); err != nil {
		return nil, fmt.Errorf("lower: %s: %w", m.name, err)
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// solveZone serves zone zi from m.cache or solves it, under its own "zone"
// span. With a progress hook armed, every event of the zone carries its
// identity, and the zone closes with zone_reused on a store hit, or with a
// final event when its solve ran no search of its own.
func (m zoneMethod) solveZone(ctx context.Context, zi int, zone []int, pfn milp.ProgressFunc) (zoneOut, error) {
	zoneStart := time.Now()
	zCtx, sp := obs.StartSpan(ctx, "zone")
	sp.SetInt("index", int64(zi))
	sp.SetInt("subscribers", int64(len(zone)))
	var zp *zoneProgress
	if pfn != nil {
		zp = &zoneProgress{fn: pfn, zone: zi, subscribers: len(zone)}
		zCtx = milp.WithProgress(zCtx, zp.observe)
	}
	end := func(relays []Relay, kind string) {
		sp.SetInt("relays", int64(len(relays)))
		sp.End()
		zoneSolveSeconds.Observe(time.Since(zoneStart).Seconds())
		zp.done(kind)
	}
	var key string
	if m.cache != nil {
		key = m.key(zone)
		e, hit, err := m.cache.Get(key)
		if err != nil {
			sp.SetAttr("error", err.Error())
			sp.End()
			return zoneOut{}, err
		}
		if hit {
			// A corrupt or mismatched entry falls through to a solve.
			if relays, ok := globalizeRelays(e.Relays, zone); ok {
				sp.SetBool("cache_hit", true)
				end(relays, milp.KindZoneReused)
				return zoneOut{relays: relays}, nil
			}
		}
	}
	relays, truncated, err := m.solve(zCtx, zone, sp)
	if err != nil {
		sp.End()
		zoneSolveSeconds.Observe(time.Since(zoneStart).Seconds())
		if isInfeasible(err) {
			sp.SetBool("infeasible", true)
		} else {
			sp.SetAttr("error", err.Error())
		}
		return zoneOut{}, err
	}
	if truncated {
		sp.SetBool("truncated", true)
	}
	end(relays, milp.KindFinal)
	if m.cache != nil {
		if local, ok := localizeRelays(relays, zone); ok {
			m.cache.Put(key, &ZoneEntry{Relays: local, Truncated: truncated})
		}
	}
	return zoneOut{relays: relays, truncated: truncated}, nil
}

// isInfeasible reports a zone error that makes the placement infeasible
// instead of failing the solve.
func isInfeasible(err error) bool {
	return errors.Is(err, ErrInfeasible) || errors.Is(err, hitting.ErrUncoverable)
}

// zoneProgress stamps one zone's identity on its progress events and
// notes whether the zone's own search sent a final one. A zone's events
// arrive on the goroutine solving it.
type zoneProgress struct {
	fn                milp.ProgressFunc
	zone, subscribers int
	final             bool
}

func (z *zoneProgress) observe(p milp.Progress) {
	p.Zone, p.Subscribers = z.zone, z.subscribers
	z.final = z.final || p.Final
	z.fn(p)
}

// done closes the zone with an event of the given kind carrying no B&B
// status or counters, unless its search already closed it. Nil-safe: the
// disarmed path costs a nil check.
func (z *zoneProgress) done(kind string) {
	if z != nil && !z.final {
		z.fn(milp.Progress{Kind: kind, Zone: z.zone, Subscribers: z.subscribers, Final: true})
	}
}
