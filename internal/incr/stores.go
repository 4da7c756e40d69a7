package incr

import (
	"sagrelay/internal/core"
	"sagrelay/internal/fault"
	"sagrelay/internal/lower"
	"sagrelay/internal/lru"
)

// Stores is the zone-level content-addressed LRU of coverage placements
// (lower.ZoneEntry) that makes incremental re-solves, and cross-job reuse
// during full solves, skip the zones they have seen. Only the coverage
// stage is stored: a SAMC or IAC/GAC zone solve costs more than its key,
// while PRO's per-zone sweep and the connectivity stage cost no more than
// hashing their inputs would.
//
// One Stores instance is shared by every job of a server; the LRU is safe
// for concurrent use, and the first entry stored under a key wins, so two
// jobs racing on one key never observe two different entries for it.
type Stores struct {
	zones *lru.Cache[string, *lower.ZoneEntry]
}

// NewStores sizes the store to maxEntries (0 means 1024).
func NewStores(maxEntries int) *Stores {
	if maxEntries <= 0 {
		maxEntries = 1024
	}
	return &Stores{
		zones: lru.New[string, *lower.ZoneEntry](maxEntries),
	}
}

// Wire installs the store as the zone cache of SAMC and IAC/GAC in a
// pipeline configuration: zone placements are consulted and populated, and
// every splice is byte-identical to re-solving. Safe for full solves and
// incremental re-solves alike.
func (s *Stores) Wire(cfg *core.Config) {
	cfg.SAMC.Cache = &zoneAdapter{s: s.zones}
	cfg.ILP.Cache = &zoneAdapter{s: s.zones}
}

// zoneAdapter implements lower.ZoneCache over the zone store, carrying the
// incr.zone fault-injection site and the reuse/resolve counters.
type zoneAdapter struct {
	s *lru.Cache[string, *lower.ZoneEntry]
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
	if e.Truncated {
		return
	}
	a.s.Add(key, e)
}

// Len returns the number of stored zone placements, for metrics.
func (s *Stores) Len() int {
	return s.zones.Len()
}
