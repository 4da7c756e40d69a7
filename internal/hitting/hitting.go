// Package hitting solves geometric minimum hitting set instances: given the
// subscribers' feasible coverage disks and a finite set of candidate relay
// positions, pick the fewest candidates such that every disk contains at
// least one chosen point.
//
// The paper (Alg. 1, Step 4) invokes the minimum hitting set PTAS of
// Mustafa & Ray [5], which is greedy-seeded local search over bounded-size
// swaps. This package implements exactly that scheme: a greedy cover
// followed by (q -> q-1) improvement swaps for q <= MaxSwap. With unbounded
// swap size the local optimum approaches (1+eps)OPT; the default MaxSwap of
// 3 is the standard practical operating point.
package hitting

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"

	"sagrelay/internal/geom"
)

// Instance is a hitting set instance over disks and candidate points.
type Instance struct {
	// Disks are the sets to hit (subscribers' feasible coverage circles).
	Disks []geom.Circle
	// Candidates are the available points (candidate relay positions).
	Candidates []geom.Point
	// Tol is added to each disk radius during membership tests; candidate
	// generators that place points exactly on circle boundaries (IAC) need
	// a small positive tolerance.
	Tol float64
}

// Options tune Solve.
type Options struct {
	// LocalSearch enables the improvement phase (on by default via Solve's
	// documented behaviour when using DefaultOptions).
	LocalSearch bool
	// MaxSwap bounds the swap size q in (q -> q-1) local moves; 0 means 3.
	MaxSwap int
	// MaxRounds bounds full local-search sweeps; 0 means 50.
	MaxRounds int
}

// DefaultOptions enables local search with swap size 3.
func DefaultOptions() Options { return Options{LocalSearch: true, MaxSwap: 3} }

func (o Options) withDefaults() Options {
	if o.MaxSwap <= 0 {
		o.MaxSwap = 3
	}
	if o.MaxRounds <= 0 {
		o.MaxRounds = 50
	}
	return o
}

// ErrUncoverable reports that some disk contains no candidate at all, so no
// hitting set exists over the given candidates.
var ErrUncoverable = errors.New("hitting: some disk contains no candidate point")

// Solution is a feasible hitting set.
type Solution struct {
	// Chosen are the selected candidate indices, sorted ascending.
	Chosen []int
	// GreedySize is the solution size before local search (== len(Chosen)
	// when local search is off or made no progress).
	GreedySize int
	// Rounds is the number of completed local-search sweeps.
	Rounds int
}

// bitset is a fixed-capacity set of disk indices.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)      { b[i/64] |= 1 << (uint(i) % 64) }
func (b bitset) has(i int) bool { return b[i/64]&(1<<(uint(i)%64)) != 0 }

func (b bitset) orInto(o bitset) {
	for i := range b {
		b[i] |= o[i]
	}
}

// countNotIn returns |o \ b|: bits of o not present in b.
func (b bitset) countNotIn(o bitset) int {
	n := 0
	for i := range b {
		n += bits.OnesCount64(o[i] &^ b[i])
	}
	return n
}

// containsAll reports whether every bit of o is set in b.
func (b bitset) containsAll(o bitset) bool {
	for i := range b {
		if o[i]&^b[i] != 0 {
			return false
		}
	}
	return true
}

// meets reports whether b and o share a bit.
func (b bitset) meets(o bitset) bool {
	for i := range b {
		if o[i]&b[i] != 0 {
			return true
		}
	}
	return false
}

func (b bitset) popcount() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// hitSets returns, per candidate, the bitset of disks it hits. The sets
// share one backing array.
func (in *Instance) hitSets() []bitset {
	w := (len(in.Disks) + 63) / 64
	flat := make(bitset, w*len(in.Candidates))
	sets := make([]bitset, len(in.Candidates))
	for c, p := range in.Candidates {
		s := flat[c*w : (c+1)*w : (c+1)*w]
		for d, disk := range in.Disks {
			if disk.Contains(p, in.Tol) {
				s.set(d)
			}
		}
		sets[c] = s
	}
	return sets
}

// Verify reports whether the chosen candidate indices hit every disk.
func (in *Instance) Verify(chosen []int) bool {
	for _, disk := range in.Disks {
		hit := false
		for _, c := range chosen {
			if c < 0 || c >= len(in.Candidates) {
				return false
			}
			if disk.Contains(in.Candidates[c], in.Tol) {
				hit = true
				break
			}
		}
		if !hit {
			return false
		}
	}
	return true
}

// Solve computes a hitting set. It returns ErrUncoverable when some disk
// contains no candidate. An instance with no disks yields an empty solution.
func (in *Instance) Solve(opts Options) (*Solution, error) {
	opts = opts.withDefaults()
	nD := len(in.Disks)
	if nD == 0 {
		return &Solution{Chosen: []int{}}, nil
	}
	if len(in.Candidates) == 0 {
		return nil, ErrUncoverable
	}
	hit := in.hitSets()

	// Coverage feasibility: every disk needs at least one candidate.
	coverable := newBitset(nD)
	for _, s := range hit {
		coverable.orInto(s)
	}
	if coverable.popcount() != nD {
		return nil, ErrUncoverable
	}

	chosen := greedy(hit, nD)
	sol := &Solution{GreedySize: len(chosen)}
	if opts.LocalSearch {
		s := newSearch(hit, nD, chosen)
		sol.Rounds = s.localSearch(opts)
		chosen = s.chosen
	}
	sort.Ints(chosen)
	sol.Chosen = chosen
	if !in.Verify(chosen) {
		// Defensive: the algorithms above maintain feasibility by
		// construction; a failure here is an internal bug, not user error.
		return nil, fmt.Errorf("hitting: internal: produced infeasible solution of size %d", len(chosen))
	}
	return sol, nil
}

// SolveMultiCover returns a set of candidates such that every disk
// contains at least demand distinct chosen points (a multi-hitting set).
// demand = 1 reduces to Solve without local search refinement beyond
// redundancy removal. It returns ErrUncoverable when some disk contains
// fewer than demand candidates in total.
//
// Multi-coverage is the dual-relay architecture of IEEE 802.16j MMR
// networks ([8], [9] in the paper's related work): every subscriber keeps
// a backup access relay, so any single relay failure leaves it covered.
func (in *Instance) SolveMultiCover(demand int) (*Solution, error) {
	if demand < 1 {
		return nil, fmt.Errorf("hitting: demand %d must be >= 1", demand)
	}
	nD := len(in.Disks)
	if nD == 0 {
		return &Solution{Chosen: []int{}}, nil
	}
	hit := in.hitSets()
	// Feasibility: every disk needs >= demand candidates.
	for d := range in.Disks {
		avail := 0
		for _, s := range hit {
			if s.has(d) {
				avail++
			}
		}
		if avail < demand {
			return nil, ErrUncoverable
		}
	}
	// Greedy multi-cover: pick the candidate reducing the most residual
	// demand, smallest index on ties.
	need := make([]int, nD)
	for d := range need {
		need[d] = demand
	}
	remaining := nD * demand
	chosen := make([]bool, len(in.Candidates))
	var order []int
	for remaining > 0 {
		best, bestGain := -1, 0
		for c, s := range hit {
			if chosen[c] {
				continue
			}
			gain := 0
			for d := 0; d < nD; d++ {
				if need[d] > 0 && s.has(d) {
					gain++
				}
			}
			if gain > bestGain {
				best, bestGain = c, gain
			}
		}
		if best < 0 {
			return nil, ErrUncoverable // exhausted candidates (shouldn't happen)
		}
		chosen[best] = true
		order = append(order, best)
		for d := 0; d < nD; d++ {
			if need[d] > 0 && hit[best].has(d) {
				need[d]--
				remaining--
			}
		}
	}
	// Redundancy removal in reverse pick order.
	covers := func(sel []int, skip int) bool {
		for d := 0; d < nD; d++ {
			cnt := 0
			for _, c := range sel {
				if c != skip && hit[c].has(d) {
					cnt++
				}
			}
			if cnt < demand {
				return false
			}
		}
		return true
	}
	for i := len(order) - 1; i >= 0; i-- {
		if covers(order, order[i]) {
			order = append(order[:i], order[i+1:]...)
		}
	}
	sort.Ints(order)
	sol := &Solution{Chosen: order, GreedySize: len(order)}
	if !in.verifyMulti(order, demand) {
		return nil, fmt.Errorf("hitting: internal: multi-cover produced infeasible solution")
	}
	return sol, nil
}

// verifyMulti reports whether every disk contains >= demand chosen points.
func (in *Instance) verifyMulti(chosen []int, demand int) bool {
	for _, disk := range in.Disks {
		cnt := 0
		for _, c := range chosen {
			if c < 0 || c >= len(in.Candidates) {
				return false
			}
			if disk.Contains(in.Candidates[c], in.Tol) {
				cnt++
			}
		}
		if cnt < demand {
			return false
		}
	}
	return true
}

// VerifyMultiCover reports whether chosen satisfies the demand-fold
// coverage of every disk.
func (in *Instance) VerifyMultiCover(chosen []int, demand int) bool {
	return in.verifyMulti(chosen, demand)
}

// greedy repeatedly picks the candidate hitting the most not-yet-hit disks
// (smallest index on ties, for determinism).
func greedy(hit []bitset, nD int) []int {
	covered := newBitset(nD)
	var chosen []int
	remaining := nD
	for remaining > 0 {
		best, bestGain := -1, 0
		for c, s := range hit {
			if gain := covered.countNotIn(s); gain > bestGain {
				best, bestGain = c, gain
			}
		}
		if best < 0 {
			// Callers check coverability first; this is unreachable there.
			break
		}
		chosen = append(chosen, best)
		covered.orInto(hit[best])
		remaining = nD - covered.popcount()
	}
	return chosen
}

// search is the local-search state of one Solve call. Its scratch bitsets
// and the useful slice are allocated once, so trying a move allocates
// nothing. Zones are solved concurrently, so it is never shared.
//
// Every move is tested against the exclusive set need: the disks that no
// kept point hits, i.e. the disks only the removed points hit. Since chosen
// is always a full cover, a replacement restores the cover iff it hits all
// of need.
type search struct {
	hit    []bitset
	chosen []int
	// once, twice and thrice hold the disks that exactly one, two and
	// three chosen points hit. replace recounts them whenever chosen
	// changes, so every move reads current data.
	once, twice, thrice bitset
	need, needA         bitset
	useful              []int
}

func newSearch(hit []bitset, nD int, chosen []int) *search {
	w := (nD + 63) / 64
	flat := make(bitset, 5*w)
	s := &search{
		hit:    hit,
		chosen: chosen,
		once:   flat[0*w : 1*w : 1*w],
		twice:  flat[1*w : 2*w : 2*w],
		thrice: flat[2*w : 3*w : 3*w],
		need:   flat[3*w : 4*w : 4*w],
		needA:  flat[4*w : 5*w : 5*w],
		useful: make([]int, 0, len(hit)),
	}
	s.count()
	return s
}

// localSearch improves the solution with (q -> q-1) swaps for q = 1..MaxSwap:
// q=1 removes redundant points; q=2 replaces two points with one; q=3
// replaces three with two. Sweeps repeat until a full round makes no
// progress or MaxRounds is hit. It returns the number of rounds run.
func (s *search) localSearch(opts Options) int {
	rounds := 0
	for rounds < opts.MaxRounds {
		rounds++
		improved := false
		if s.removeRedundant() {
			improved = true
		}
		if opts.MaxSwap >= 2 && s.swap21() {
			improved = true
		}
		if opts.MaxSwap >= 3 && s.swap32() {
			improved = true
		}
		if !improved {
			break
		}
	}
	return rounds
}

// count fills once, twice and thrice from the current chosen points.
func (s *search) count() {
	for w := range s.once {
		var ge1, ge2, ge3, ge4 uint64
		for _, c := range s.chosen {
			x := s.hit[c][w]
			ge4 |= ge3 & x
			ge3 |= ge2 & x
			ge2 |= ge1 & x
			ge1 |= x
		}
		s.once[w] = ge1 &^ ge2
		s.twice[w] = ge2 &^ ge3
		s.thrice[w] = ge3 &^ ge4
	}
}

// removeRedundant deletes chosen points that hit no disk alone (1 -> 0
// swaps: need is empty). Returns true when anything was removed.
func (s *search) removeRedundant() bool {
	removed := false
	for i := 0; i < len(s.chosen); {
		if !s.hit[s.chosen[i]].meets(s.once) {
			s.replace(i, -1, -1)
			removed = true
			continue
		}
		i++
	}
	return removed
}

// swap21 tries to replace a pair of chosen points with a single candidate
// (2 -> 1 swaps): candidate c succeeds iff hit[c] ⊇ need. Returns true on
// the first successful swap per sweep.
func (s *search) swap21() bool {
	ch := s.chosen
	for i := 0; i < len(ch); i++ {
		x := s.hit[ch[i]]
		for j := i + 1; j < len(ch); j++ {
			y := s.hit[ch[j]]
			for w := range s.need {
				s.need[w] = s.once[w]&(x[w]|y[w]) | s.twice[w]&x[w]&y[w]
			}
			for c, h := range s.hit {
				if c == ch[i] || c == ch[j] {
					continue
				}
				if h.containsAll(s.need) {
					s.replace(i, j, -1, c)
					return true
				}
			}
		}
	}
	return false
}

// swap32 tries to replace a triple of chosen points with two candidates
// (3 -> 2 swaps). To stay polynomial it only pairs useful candidates, those
// hitting some disk of need; a triple with an empty need has none. The pair
// (a, b) succeeds iff hit[b] ⊇ need \ hit[a], and a alone (3 -> 1) iff
// hit[a] ⊇ need.
func (s *search) swap32() bool {
	ch := s.chosen
	if len(ch) < 3 {
		return false
	}
	for i := 0; i < len(ch); i++ {
		x := s.hit[ch[i]]
		for j := i + 1; j < len(ch); j++ {
			y := s.hit[ch[j]]
			for k := j + 1; k < len(ch); k++ {
				z := s.hit[ch[k]]
				var nonEmpty uint64
				for w := range s.need {
					xy, xyOr := x[w]&y[w], x[w]|y[w]
					n := s.once[w]&(xyOr|z[w]) | s.twice[w]&(xy|xyOr&z[w]) | s.thrice[w]&xy&z[w]
					s.need[w] = n
					nonEmpty |= n
				}
				if nonEmpty == 0 {
					continue
				}
				useful := s.useful[:0]
				for c, h := range s.hit {
					if c == ch[i] || c == ch[j] || c == ch[k] {
						continue
					}
					if h.meets(s.need) {
						useful = append(useful, c)
					}
				}
				for a, ca := range useful {
					ha := s.hit[ca]
					var left uint64
					for w := range s.needA {
						s.needA[w] = s.need[w] &^ ha[w]
						left |= s.needA[w]
					}
					if left == 0 {
						// Even a single candidate suffices: 3 -> 1.
						s.replace(i, j, k, ca)
						return true
					}
					for _, cb := range useful[a+1:] {
						if s.hit[cb].containsAll(s.needA) {
							s.replace(i, j, k, ca, cb)
							return true
						}
					}
				}
			}
		}
	}
	return false
}

// replace drops the chosen points at positions i, j and k (-1 for none) in
// place, keeping the rest in order, appends add and recounts the
// multiplicity bitsets.
func (s *search) replace(i, j, k int, add ...int) {
	out := s.chosen[:0]
	for p, v := range s.chosen {
		if p != i && p != j && p != k {
			out = append(out, v)
		}
	}
	s.chosen = append(out, add...)
	s.count()
}
