package incr

import (
	"sagrelay/internal/core"
	"sagrelay/internal/fault"
	"sagrelay/internal/lower"
	"sagrelay/internal/lru"
)

// Stores bundles the three zone-level content-addressed LRUs that make
// incremental re-solves (and cross-job reuse during full solves) work:
//
//	zones — per-zone coverage placements (lower.ZoneEntry)
//	power — per-zone PRO power blocks
//	upper — whole connectivity-stage results (core.UpperEntry)
//
// One Stores instance is shared by every job of a server; all three LRUs
// are safe for concurrent use, and the first entry stored under a key wins,
// so two jobs racing on one key never observe two different entries for it.
type Stores struct {
	zones *lru.Cache[string, *lower.ZoneEntry]
	power *lru.Cache[string, []float64]
	upper *lru.Cache[string, *core.UpperEntry]
}

// NewStores sizes each store to maxEntries (0 means 1024).
func NewStores(maxEntries int) *Stores {
	if maxEntries <= 0 {
		maxEntries = 1024
	}
	return &Stores{
		zones: lru.New[string, *lower.ZoneEntry](maxEntries),
		power: lru.New[string, []float64](maxEntries),
		upper: lru.New[string, *core.UpperEntry](maxEntries),
	}
}

// Wire installs the stores into a pipeline configuration in exact mode:
// zone placements, power blocks and upper-tier results are consulted and
// populated, and every splice is byte-identical to re-solving. Safe for
// full solves and incremental re-solves alike.
func (s *Stores) Wire(cfg *core.Config) {
	cfg.SAMC.Cache = &zoneAdapter{s: s.zones}
	cfg.ILP.Cache = &zoneAdapter{s: s.zones}
	cfg.ZonePowerCache = &powerAdapter{s: s.power}
	cfg.UpperCache = &upperAdapter{s: s.upper}
}

// WireFast installs the stores read-only plus fast-mode warm-start seeding
// for dirty zones. A fast solve may land on a different (equally good)
// optimum than a cold solve, so nothing it produces may enter any cache —
// the adapters still serve hits (those splices are exact) but drop every
// Put, and the caller must also keep the result out of whole-result caches.
func (s *Stores) WireFast(cfg *core.Config, seed lower.ZoneSeed) {
	cfg.SAMC.Cache = &zoneAdapter{s: s.zones, readOnly: true}
	cfg.ILP.Cache = &zoneAdapter{s: s.zones, readOnly: true}
	cfg.ILP.Seed = seed
	cfg.ZonePowerCache = &powerAdapter{s: s.power, readOnly: true}
	cfg.UpperCache = &upperAdapter{s: s.upper, readOnly: true}
}

// zoneAdapter implements lower.ZoneCache over the zone store, carrying the
// incr.zone fault-injection site and the reuse/resolve counters.
type zoneAdapter struct {
	s        *lru.Cache[string, *lower.ZoneEntry]
	readOnly bool
}

func (a *zoneAdapter) Get(key string) (*lower.ZoneEntry, bool, error) {
	if err := fault.Check(siteZone); err != nil {
		return nil, false, err
	}
	e, ok := a.s.Get(key)
	if !ok {
		return nil, false, nil
	}
	zonesReused.Add(1)
	return e, true, nil
}

func (a *zoneAdapter) Put(key string, e *lower.ZoneEntry) {
	zonesResolved.Add(1)
	// Truncated entries are load-dependent incumbents; storing one would
	// let a later solve splice a non-reproducible placement.
	if e.Truncated || a.readOnly {
		return
	}
	a.s.Add(key, e)
}

// powerAdapter implements lower.ZonePowerCache over the power store.
type powerAdapter struct {
	s        *lru.Cache[string, []float64]
	readOnly bool
}

func (a *powerAdapter) GetPower(key string) ([]float64, bool) {
	return a.s.Get(key)
}

func (a *powerAdapter) PutPower(key string, powers []float64) {
	if a.readOnly {
		return
	}
	a.s.Add(key, powers)
}

// upperAdapter implements core.UpperCache over the upper store.
type upperAdapter struct {
	s        *lru.Cache[string, *core.UpperEntry]
	readOnly bool
}

func (a *upperAdapter) Get(key string) (*core.UpperEntry, bool) {
	return a.s.Get(key)
}

func (a *upperAdapter) Put(key string, e *core.UpperEntry) {
	if a.readOnly {
		return
	}
	a.s.Add(key, e)
}

// Len returns (zones, power, upper) entry counts, for metrics.
func (s *Stores) Len() (zones, power, upper int) {
	return s.zones.Len(), s.power.Len(), s.upper.Len()
}
