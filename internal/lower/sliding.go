package lower

import (
	"math"
	"math/bits"

	"sagrelay/internal/geom"
	"sagrelay/internal/scenario"
)

// maxUpdateCombos caps the number of update combinations Update RS Topology
// (Alg. 5, Step 3) enumerates per recursion level. The paper enumerates
// "all the possible combinations" of updatable relays; combinations are
// tried from largest (apply every update) to smallest, which finds the
// all-updates fix — the common case — first.
const maxUpdateCombos = 4096

// maxUpdateDepth caps the recursion of Update RS Topology. The recursion is
// naturally bounded because |B| strictly decreases, but the cap keeps
// adversarial inputs polynomial.
const maxUpdateDepth = 16

// slidingState carries the per-zone context shared by Sliding Movement and
// Update RS Topology.
type slidingState struct {
	sc   *scenario.Scenario
	beta float64
	// relays are the zone's coverage relays (positions mutate as they
	// slide); servingOf maps zone subscriber -> relay index.
	relays    []Relay
	servingOf map[int]int
	// final marks relays in H: finalized, never updated again.
	final []bool
}

// SlidingMovement implements Algorithm 4 (with Algorithm 5 as a
// subroutine): adjust the positions of the zone's coverage relays so every
// subscriber meets the SNR threshold with all relays at PMax. It returns
// the updated relays, or ok=false when no combination of slides clears the
// SNR violations (the SAMC caller then reports infeasible).
//
// The relays slice is not modified; a copy is returned.
func SlidingMovement(sc *scenario.Scenario, relays []Relay) ([]Relay, bool) {
	st := newSlidingState(sc, cloneRelays(relays))
	// Step 2: one-on-one relays move onto their subscriber and are
	// finalized (added to H, removed from further consideration).
	for r := range st.relays {
		if len(st.relays[r].Covers) == 1 {
			s := st.relays[r].Covers[0]
			st.relays[r].Pos = sc.Subscribers[s].Pos
			st.final[r] = true
		}
	}
	// Steps 3-4: collect SNR-violated subscribers.
	violated := st.violatedSubscribers()
	if len(violated) == 0 {
		return st.relays, true
	}
	// Step 5: escalate to Update RS Topology.
	if st.updateTopology(violated, 0) {
		return st.relays, true
	}
	return nil, false
}

// newSlidingState indexes which relay serves each covered subscriber. It
// works on relays in place, without a copy.
func newSlidingState(sc *scenario.Scenario, relays []Relay) slidingState {
	st := slidingState{
		sc:        sc,
		beta:      sc.Beta(),
		relays:    relays,
		servingOf: make(map[int]int),
		final:     make([]bool, len(relays)),
	}
	for r, relay := range relays {
		for _, s := range relay.Covers {
			st.servingOf[s] = r
		}
	}
	return st
}

// violatedSubscribers returns the zone subscribers whose Definition 2 SNR
// (all relays at PMax, current positions) is below the threshold.
func (st *slidingState) violatedSubscribers() []int {
	var out []int
	for s := range st.servingOf {
		if st.sirAt(s) < st.beta-1e-12 {
			out = append(out, s)
		}
	}
	sortInts(out)
	return out
}

// sirAt evaluates the SIR of subscriber s against the zone's relays.
func (st *slidingState) sirAt(s int) float64 {
	serving := st.servingOf[s]
	pos := st.sc.Subscribers[s].Pos
	signal := st.sc.Model.ReceivedPower(st.sc.PMax, pos.Dist(st.relays[serving].Pos))
	interference := 0.0
	for r := range st.relays {
		if r == serving {
			continue
		}
		interference += st.sc.Model.ReceivedPower(st.sc.PMax, pos.Dist(st.relays[r].Pos))
	}
	if interference <= 0 {
		return math.Inf(1)
	}
	return signal / interference
}

// interferenceAtExcluding sums received power at subscriber s from every
// relay except exclude.
func (st *slidingState) interferenceAtExcluding(s, exclude int) float64 {
	pos := st.sc.Subscribers[s].Pos
	total := 0.0
	for r := range st.relays {
		if r == exclude {
			continue
		}
		total += st.sc.Model.ReceivedPower(st.sc.PMax, pos.Dist(st.relays[r].Pos))
	}
	return total
}

// updateTopology implements Algorithm 5. violated is the current set B of
// SNR-unsatisfied subscribers; depth guards the recursion.
func (st *slidingState) updateTopology(violated []int, depth int) bool {
	if depth > maxUpdateDepth {
		return false
	}
	inB := make(map[int]bool, len(violated))
	for _, s := range violated {
		inB[s] = true
	}
	// R^s_u: non-final relays covering a violated subscriber.
	var updatable []int // relay indices with a feasible retarget position
	newPos := make(map[int]geom.Point)
	for r := range st.relays {
		if st.final[r] {
			continue
		}
		coversViolated := false
		for _, s := range st.relays[r].Covers {
			if inB[s] {
				coversViolated = true
				break
			}
		}
		if !coversViolated {
			continue
		}
		// Step 2: build W = virtual circles of unmet subscribers + feasible
		// circles of met subscribers, all covered by r.
		var w []geom.Circle
		feasible := true
		for _, s := range st.relays[r].Covers {
			ss := st.sc.Subscribers[s]
			if !inB[s] {
				w = append(w, ss.Circle())
				continue
			}
			// Virtual circle c'_s: positions of r at which s's SNR clears,
			// given the other relays' current positions:
			// PMax*Gain(d) >= beta * N_s  =>  d <= (PMax*G/(beta*N_s))^(1/alpha).
			ns := st.interferenceAtExcluding(s, r)
			radius := ss.DistReq
			if ns > 0 {
				need := st.beta * ns
				rsnr, err := st.sc.Model.DistanceForPower(st.sc.PMax, need)
				if err != nil {
					feasible = false
					break
				}
				if rsnr < radius {
					radius = rsnr
				}
			}
			w = append(w, geom.C(ss.Pos, radius))
		}
		if !feasible {
			continue // r is un-updatable
		}
		if p, ok := geom.CommonPoint(w, coverTol); ok {
			updatable = append(updatable, r)
			newPos[r] = p
		}
	}
	if len(updatable) == 0 {
		return false
	}
	// Step 3: try combinations of updates, largest first.
	combos := combinationsBySize(len(updatable), maxUpdateCombos)
	saved := make(map[int]geom.Point, len(updatable))
	for _, r := range updatable {
		saved[r] = st.relays[r].Pos
	}
	for _, mask := range combos {
		// Apply the combination.
		for i, r := range updatable {
			if mask&(1<<uint(i)) != 0 {
				st.relays[r].Pos = newPos[r]
			} else {
				st.relays[r].Pos = saved[r]
			}
		}
		after := st.violatedSubscribers()
		if len(after) == 0 {
			return true
		}
		if len(after) < len(violated) {
			if st.updateTopology(after, depth+1) {
				return true
			}
		}
		// Restore before the next combination.
		for _, r := range updatable {
			st.relays[r].Pos = saved[r]
		}
	}
	// Leave positions restored on failure.
	for _, r := range updatable {
		st.relays[r].Pos = saved[r]
	}
	return false
}

// combinationsBySize returns non-empty bitmasks over n items ordered by
// descending popcount (the all-updates mask first), capped at limit masks.
// For large n, full enumeration is replaced by the practically useful
// prefix of that order: the full mask, all leave-one-out masks, and all
// singleton masks.
func combinationsBySize(n, limit int) []uint64 {
	if n <= 0 {
		return nil
	}
	if n > 12 {
		full := (uint64(1) << uint(n)) - 1
		masks := []uint64{full}
		for i := 0; i < n; i++ {
			masks = append(masks, full&^(1<<uint(i)))
		}
		for i := 0; i < n; i++ {
			masks = append(masks, 1<<uint(i))
		}
		if len(masks) > limit {
			masks = masks[:limit]
		}
		return masks
	}
	total := (uint64(1) << uint(n)) - 1
	masks := make([]uint64, 0, total)
	for m := total; m >= 1; m-- {
		masks = append(masks, m)
	}
	// Order by descending popcount, stable by descending mask value.
	buckets := make([][]uint64, 65)
	for _, m := range masks {
		pc := bits.OnesCount64(m)
		buckets[pc] = append(buckets[pc], m)
	}
	out := masks[:0]
	for pc := 64; pc >= 0; pc-- {
		out = append(out, buckets[pc]...)
	}
	if len(out) > limit {
		out = out[:limit]
	}
	return out
}

func cloneRelays(rs []Relay) []Relay {
	out := make([]Relay, len(rs))
	for i, r := range rs {
		out[i] = Relay{Pos: r.Pos, Covers: append([]int(nil), r.Covers...)}
	}
	return out
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for k := i; k > 0 && xs[k] < xs[k-1]; k-- {
			xs[k], xs[k-1] = xs[k-1], xs[k]
		}
	}
}
