package hitting

// LocalSearchFrom runs Solve's local search from the given full cover
// instead of the greedy one and returns the final points, unsorted, with the
// number of rounds run.
func (in *Instance) LocalSearchFrom(start []int, opts Options) ([]int, int) {
	s := newSearch(in.hitSets(), len(in.Disks), append([]int(nil), start...))
	rounds := s.localSearch(opts.withDefaults())
	return s.chosen, rounds
}

// RefSolve is Solve with the reference local search of reference_test.go.
func (in *Instance) RefSolve(opts Options) (*Solution, error) { return in.refSolve(opts) }

// RefLocalSearchFrom is LocalSearchFrom with the reference local search.
func (in *Instance) RefLocalSearchFrom(start []int, opts Options) ([]int, int) {
	return in.refLocalSearchFrom(start, opts)
}
