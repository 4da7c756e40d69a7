// Package incr is the incremental re-solve engine: it turns "the same field
// again, slightly changed" from a full-pipeline solve into a splice of
// cached zone placements plus coverage re-solves of only the zones whose
// inputs changed. The power and connectivity stages always run: they cost
// no more than hashing their inputs would.
//
// The design leans entirely on content addressing rather than explicit
// invalidation. The zone partition (Alg. 2) makes zones independent
// subproblems, so each zone's coverage placement is cached under a
// canonical hash of exactly its inputs. Applying a scenario delta and
// re-solving through the same caches then reuses every zone whose inputs
// are unchanged *mechanically*: a mutation that moves a subscriber, splits
// a zone, or merges two zones simply produces zones whose hashes miss.
// There is no dirty-set bookkeeping to get wrong, which is what makes the
// central invariant cheap to uphold: an incremental solve is byte-for-byte
// identical to a cold full solve of the mutated scenario, because cache
// hits splice values a cold solve would have recomputed bit-identically.
// What a solve reused is read from the solve itself: the zone counters
// below, and each zone span's cache_hit attribute.
package incr

import (
	"sync/atomic"

	"sagrelay/internal/fault"
)

// siteZone is the fault-injection point checked on every zone-store lookup;
// one atomic load when injection is off. Arming it makes incremental solves
// fail mid-splice, which the chaos suite uses to prove jobs stay terminal.
var siteZone = fault.Register("incr.zone")

// zonesReused / zonesResolved count zone-level coverage outcomes
// process-wide across all jobs: a reuse is a zone-store hit spliced into a
// result, a resolve is a zone actually solved (and offered to the store).
var (
	zonesReused   atomic.Int64
	zonesResolved atomic.Int64
)

// ZonesReused returns the process-wide count of zone coverage solutions
// spliced from the zone store.
func ZonesReused() int64 { return zonesReused.Load() }

// ZonesResolved returns the process-wide count of zone coverage solutions
// computed by an actual solve.
func ZonesResolved() int64 { return zonesResolved.Load() }
