package lp

// Parked factorizations. A warm refactorization — B^-1 [A | I | b], the
// completed basis and the reduced costs — reads the problem's matrix and
// objective and the basis statuses, never a bound. Both children of a
// branch-and-bound node warm-start from the same parent *Basis, so the
// second child can restore what the first one computed, bit for bit.
//
// The snapshots live in the cold tableau's backing array s.flat, which sits
// idle during warm solves. It carries an explicit row per finite bound, so
// on a 0-1 model it holds about (m+2n)/m warm tableaus, and the ring
// allocates nothing.
// A cold build overwrites s.flat and drops the ring; so does a snapshot of a
// different problem, or of the same problem after an edit (Problem.rev).

// factorSlots caps the number of parked factorizations. Depth-first search
// consumes them in stack order, so evicting the oldest unconsumed snapshot
// keeps the ones the nearest backtracks need.
const factorSlots = 2

// factorReuse switches parking and restoring on; tests switch it off to
// check that reuse leaves every answer and search bit-identical.
var factorReuse = true

// factorSlot keys one parked factorization by its basis. Holding the
// pointer keeps the address from being reused by another Basis.
type factorSlot struct {
	basis *Basis
	// stamp orders eviction: the slot with the smallest stamp goes first.
	// Free and already-restored slots have stamp 0.
	stamp uint64
}

// factorRing is the Solver's set of parked factorizations, all of one
// problem revision and one slot size.
type factorRing struct {
	p     *Problem
	rev   uint64
	size  int // float64s per slot
	n     int // slots that fit in s.flat
	clock uint64
	slots [factorSlots]factorSlot
}

// dropFactors forgets every parked factorization.
func (s *Solver) dropFactors() { s.ring = factorRing{} }

// parkFactor saves the factorization refactor just left in the warm buffers
// as the one for (p, basis). Slot layout: the m tableau rows, then wbasis,
// wd and wstatus, the integers stored exactly as float64.
func (s *Solver) parkFactor(p *Problem, basis *Basis) {
	if !factorReuse {
		return
	}
	m, ncols := len(p.cons), len(p.obj)+len(p.cons)
	g := &s.ring
	if g.p != p || g.rev != p.rev {
		size := m*(ncols+1) + m + 2*ncols
		*g = factorRing{p: p, rev: p.rev, size: size, n: min(factorSlots, cap(s.flat)/size)}
	}
	if g.n == 0 {
		return
	}
	v := 0
	for i := 1; i < g.n; i++ {
		if g.slots[i].stamp < g.slots[v].stamp {
			v = i
		}
	}
	buf := s.flat[:cap(s.flat)][v*g.size : (v+1)*g.size]
	k := copy(buf, s.wflat)
	for r, b := range s.wbasis {
		buf[k+r] = float64(b)
	}
	k += m
	k += copy(buf[k:], s.wd)
	for j, st := range s.wstatus {
		buf[k+j] = float64(st)
	}
	g.clock++
	g.slots[v] = factorSlot{basis: basis, stamp: g.clock}
}

// restoreFactor loads the factorization parked for (p, basis) into the
// warm buffers (sized by the caller) and reports whether there was one.
// The restored slot is marked for eviction first: both children of its
// parent have now used it.
func (s *Solver) restoreFactor(p *Problem, basis *Basis) bool {
	g := &s.ring
	if !factorReuse || g.p != p || g.rev != p.rev {
		return false
	}
	for i := 0; i < g.n; i++ {
		if g.slots[i].basis != basis {
			continue
		}
		buf := s.flat[:cap(s.flat)][i*g.size : (i+1)*g.size]
		k := copy(s.wflat, buf)
		for r := range s.wbasis {
			s.wbasis[r] = int(buf[k+r])
		}
		k += len(s.wbasis)
		k += copy(s.wd, buf[k:])
		for j := range s.wstatus {
			s.wstatus[j] = VarStatus(buf[k+j])
		}
		g.slots[i].stamp = 0
		return true
	}
	return false
}
