package incr

import (
	"fmt"

	"sagrelay/internal/core"
	"sagrelay/internal/lower"
	"sagrelay/internal/scenario"
)

// PlanOptions carry the solve configuration a resolve will run with, so the
// planner reproduces the exact zone partition and cache keys of the solve.
type PlanOptions struct {
	// Coverage is the coverage method the resolve will use.
	Coverage core.CoverageMethod
	// ILP are the ILP options (for the partition's sub-zone split);
	// ignored for SAMC.
	ILP lower.ILPOptions
}

// Plan is the dirty-set analysis of one delta: which of the mutated
// scenario's zones can splice from cache and which must re-solve. It is
// observability machinery — the caches themselves enforce reuse
// mechanically, so a Plan is never needed for correctness.
type Plan struct {
	// TotalZones and DirtyZones count the mutated scenario's zones and the
	// subset whose coverage inputs differ from every base zone (including
	// zones created or reshaped by a partition change: a zone that splits,
	// merges, or shifts membership hashes differently on both sides and is
	// conservatively counted dirty).
	TotalZones int
	DirtyZones int
	// DirtyFraction is DirtyZones/TotalZones (0 for an empty partition).
	DirtyFraction float64
	// Dirty marks, per mutated-scenario zone index, the zones that must
	// re-solve; len(Dirty) == TotalZones. ZoneSizes gives each zone's
	// subscriber count. Both let a progress consumer pre-seed per-zone rows
	// for a resolve before any solver event arrives.
	Dirty     []bool
	ZoneSizes []int
}

// Plan partitions both scenarios the way the solve will, diffs the zone
// hashes, and records the dirty fraction on the sag_incr_dirty_fraction
// histogram.
func (s *Stores) Plan(base, mutated *scenario.Scenario, opts PlanOptions) (*Plan, error) {
	baseZones, err := partitionOf(base, opts)
	if err != nil {
		return nil, fmt.Errorf("incr: plan base: %w", err)
	}
	mutZones, err := partitionOf(mutated, opts)
	if err != nil {
		return nil, fmt.Errorf("incr: plan mutated: %w", err)
	}
	// Multiset of base zone hashes: two identical base zones supply two
	// reuses, no more.
	baseHashes := make(map[string]int, len(baseZones))
	for _, z := range baseZones {
		baseHashes[base.CanonicalZoneHash(z)]++
	}
	p := &Plan{
		TotalZones: len(mutZones),
		Dirty:      make([]bool, len(mutZones)),
		ZoneSizes:  make([]int, len(mutZones)),
	}
	for zi, z := range mutZones {
		p.ZoneSizes[zi] = len(z)
		h := mutated.CanonicalZoneHash(z)
		if baseHashes[h] > 0 {
			baseHashes[h]--
			continue
		}
		p.DirtyZones++
		p.Dirty[zi] = true
	}
	if p.TotalZones > 0 {
		p.DirtyFraction = float64(p.DirtyZones) / float64(p.TotalZones)
	}
	dirtyFraction.Observe(p.DirtyFraction)
	return p, nil
}

// partitionOf reproduces the zone partition the coverage solver will
// compute: ZonePartition for every method, plus the sub-zone bisection for
// the ILP methods.
func partitionOf(sc *scenario.Scenario, opts PlanOptions) ([][]int, error) {
	zones, err := lower.ZonePartition(sc)
	if err != nil {
		return nil, err
	}
	if opts.Coverage != core.CoverSAMC {
		maxSS := opts.ILP.MaxZoneSS
		if maxSS <= 0 {
			maxSS = lower.DefaultMaxZoneSS
		}
		zones = lower.SplitLargeZones(sc, zones, maxSS)
	}
	return zones, nil
}
