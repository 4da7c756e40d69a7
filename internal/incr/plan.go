package incr

import (
	"fmt"
	"strconv"
	"strings"

	"sagrelay/internal/core"
	"sagrelay/internal/lower"
	"sagrelay/internal/lp"
	"sagrelay/internal/scenario"
)

// PlanOptions carry the solve configuration a resolve will run with, so the
// planner reproduces the exact zone partition and cache keys of the solve.
type PlanOptions struct {
	// Coverage is the coverage method the resolve will use.
	Coverage core.CoverageMethod
	// ILP are the ILP options (for the partition's sub-zone split and for
	// fast-mode seed lookups); ignored for SAMC.
	ILP lower.ILPOptions
	// Fast builds warm-start seeds for dirty zones from the base
	// scenario's cached entries (ILP methods only).
	Fast bool
}

// Plan is the dirty-set analysis of one delta: which of the mutated
// scenario's zones can splice from cache and which must re-solve. It is
// observability (and fast-mode seed) machinery — the caches themselves
// enforce reuse mechanically, so a Plan is never needed for correctness.
type Plan struct {
	// TotalZones and DirtyZones count the mutated scenario's zones and the
	// subset whose coverage-variant inputs differ from every base zone
	// (including zones created or reshaped by a partition change: a zone
	// that splits, merges, or shifts membership hashes differently on both
	// sides and is conservatively counted dirty).
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
	// Seeder supplies fast-mode warm starts for the dirty zones, matching
	// each to the base zone sharing the most subscriber IDs; nil unless
	// PlanOptions.Fast was set and base entries were available.
	Seeder lower.ZoneSeed
}

// Plan partitions both scenarios the way the solve will, diffs the
// coverage-variant zone hashes, and records the dirty fraction on the
// sag_incr_dirty_fraction histogram.
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
		baseHashes[base.CanonicalZoneHash(z, scenario.ZoneHashCoverage)]++
	}
	p := &Plan{
		TotalZones: len(mutZones),
		Dirty:      make([]bool, len(mutZones)),
		ZoneSizes:  make([]int, len(mutZones)),
	}
	var dirty [][]int
	for zi, z := range mutZones {
		p.ZoneSizes[zi] = len(z)
		h := mutated.CanonicalZoneHash(z, scenario.ZoneHashCoverage)
		if baseHashes[h] > 0 {
			baseHashes[h]--
			continue
		}
		p.DirtyZones++
		p.Dirty[zi] = true
		dirty = append(dirty, z)
	}
	if p.TotalZones > 0 {
		p.DirtyFraction = float64(p.DirtyZones) / float64(p.TotalZones)
	}
	dirtyFraction.Observe(p.DirtyFraction)
	if opts.Fast && opts.Coverage != core.CoverSAMC {
		p.Seeder = s.seederFor(base, mutated, baseZones, dirty, opts)
	}
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

// seederFor matches each dirty mutated zone to the base zone sharing the
// most subscriber IDs and, when that base zone's solve is in the zone
// store, records its incumbent and final basis as the dirty zone's seed.
func (s *Stores) seederFor(base, mutated *scenario.Scenario, baseZones, dirty [][]int, opts PlanOptions) lower.ZoneSeed {
	method := opts.Coverage.String()
	baseIDs := make([]map[int]bool, len(baseZones))
	for i, z := range baseZones {
		ids := make(map[int]bool, len(z))
		for _, j := range z {
			ids[base.Subscribers[j].ID] = true
		}
		baseIDs[i] = ids
	}
	seeds := make(map[string]*lower.ZoneEntry, len(dirty))
	for _, z := range dirty {
		best, bestOverlap := -1, 0
		for i, ids := range baseIDs {
			overlap := 0
			for _, j := range z {
				if ids[mutated.Subscribers[j].ID] {
					overlap++
				}
			}
			if overlap > bestOverlap {
				best, bestOverlap = i, overlap
			}
		}
		if best < 0 {
			continue
		}
		key := lower.ZoneKeyILP(base, baseZones[best], method, opts.ILP)
		if e, ok := s.zones.Get(key); ok {
			seeds[zoneSig(z)] = e
		}
	}
	if len(seeds) == 0 {
		return nil
	}
	return &planSeeder{seeds: seeds}
}

// planSeeder resolves SeedFor lookups by the zone's global-index signature
// in the mutated scenario (the exact slice the solver passes back).
type planSeeder struct {
	seeds map[string]*lower.ZoneEntry
}

func (p *planSeeder) SeedFor(zone []int, numVars int) ([]float64, *lp.Basis, bool) {
	e, ok := p.seeds[zoneSig(zone)]
	if !ok || e.NumVars != numVars || len(e.X) != numVars {
		// A model-shape mismatch (different candidate set) makes the
		// incumbent meaningless; the basis alone is still returned when its
		// size happens to fit, handled by the solver's own length check.
		if ok && e.Basis != nil {
			return nil, e.Basis, true
		}
		return nil, nil, false
	}
	return e.X, e.Basis, true
}

func zoneSig(zone []int) string {
	var b strings.Builder
	for i, v := range zone {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(v))
	}
	return b.String()
}
