package hitting

import (
	"fmt"
	"sort"
)

// This file keeps a test-only reference of the local search Solve ran
// before its moves were tested against exclusive sets: every pair or triple
// re-ORs the kept points' hit sets, clones a bitset per candidate tried and
// skips the removed points through a map. It is the straightforward reading
// of the algorithm, and slow. The differential tests require Solve and its
// local search to return exactly what it returns.

// refSolve is Solve with the reference local search.
func (in *Instance) refSolve(opts Options) (*Solution, error) {
	sol, err := in.Solve(Options{}) // coverability and greedy size
	if err != nil || !opts.LocalSearch || len(in.Disks) == 0 {
		return sol, err
	}
	hit, nD := in.hitSets(), len(in.Disks)
	chosen, rounds := refLocalSearch(hit, nD, greedy(hit, nD), opts.withDefaults())
	sort.Ints(chosen)
	sol.Chosen, sol.Rounds = chosen, rounds
	if !in.Verify(chosen) {
		return nil, fmt.Errorf("reference: infeasible solution of size %d", len(chosen))
	}
	return sol, nil
}

// refLocalSearchFrom runs the reference local search from start.
func (in *Instance) refLocalSearchFrom(start []int, opts Options) ([]int, int) {
	return refLocalSearch(in.hitSets(), len(in.Disks), append([]int(nil), start...), opts.withDefaults())
}

func clone(b bitset) bitset { return append(bitset(nil), b...) }

func refLocalSearch(hit []bitset, nD int, chosen []int, opts Options) ([]int, int) {
	rounds := 0
	for rounds < opts.MaxRounds {
		rounds++
		improved := false
		if refRemoveRedundant(hit, nD, &chosen) {
			improved = true
		}
		if opts.MaxSwap >= 2 && refSwap21(hit, nD, &chosen) {
			improved = true
		}
		if opts.MaxSwap >= 3 && refSwap32(hit, nD, &chosen) {
			improved = true
		}
		if !improved {
			break
		}
	}
	return chosen, rounds
}

func refCoverageWithout(hit []bitset, nD int, chosen []int, skip map[int]bool) bitset {
	cov := newBitset(nD)
	for _, c := range chosen {
		if skip[c] {
			continue
		}
		cov.orInto(hit[c])
	}
	return cov
}

func refRemoveRedundant(hit []bitset, nD int, chosen *[]int) bool {
	removed := false
	for i := 0; i < len(*chosen); {
		c := (*chosen)[i]
		rest := refCoverageWithout(hit, nD, *chosen, map[int]bool{c: true})
		if rest.containsAll(hit[c]) && rest.popcount() == nD {
			*chosen = append((*chosen)[:i], (*chosen)[i+1:]...)
			removed = true
			continue
		}
		i++
	}
	return removed
}

func refSwap21(hit []bitset, nD int, chosen *[]int) bool {
	ch := *chosen
	for i := 0; i < len(ch); i++ {
		for j := i + 1; j < len(ch); j++ {
			rest := refCoverageWithout(hit, nD, ch, map[int]bool{ch[i]: true, ch[j]: true})
			for c, s := range hit {
				if c == ch[i] || c == ch[j] {
					continue
				}
				merged := clone(rest)
				merged.orInto(s)
				if merged.popcount() == nD {
					out := make([]int, 0, len(ch)-1)
					for k, v := range ch {
						if k != i && k != j {
							out = append(out, v)
						}
					}
					out = append(out, c)
					*chosen = out
					return true
				}
			}
		}
	}
	return false
}

func refSwap32(hit []bitset, nD int, chosen *[]int) bool {
	ch := *chosen
	if len(ch) < 3 {
		return false
	}
	for i := 0; i < len(ch); i++ {
		for j := i + 1; j < len(ch); j++ {
			for k := j + 1; k < len(ch); k++ {
				skip := map[int]bool{ch[i]: true, ch[j]: true, ch[k]: true}
				rest := refCoverageWithout(hit, nD, ch, skip)
				var useful []int
				for c, s := range hit {
					if skip[c] {
						continue
					}
					if rest.countNotIn(s) > 0 {
						useful = append(useful, c)
					}
				}
				for a := 0; a < len(useful); a++ {
					mergedA := clone(rest)
					mergedA.orInto(hit[useful[a]])
					if mergedA.popcount() == nD {
						*chosen = refRebuild(ch, skip, useful[a])
						return true
					}
					for b := a + 1; b < len(useful); b++ {
						merged := clone(mergedA)
						merged.orInto(hit[useful[b]])
						if merged.popcount() == nD {
							*chosen = refRebuild(ch, skip, useful[a], useful[b])
							return true
						}
					}
				}
			}
		}
	}
	return false
}

func refRebuild(chosen []int, skip map[int]bool, add ...int) []int {
	out := make([]int, 0, len(chosen))
	for _, v := range chosen {
		if !skip[v] {
			out = append(out, v)
		}
	}
	return append(out, add...)
}
