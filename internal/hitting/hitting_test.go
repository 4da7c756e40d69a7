package hitting

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"sagrelay/internal/geom"
)

func TestEmptyInstance(t *testing.T) {
	in := &Instance{}
	sol, err := in.Solve(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Chosen) != 0 {
		t.Errorf("empty instance chose %v", sol.Chosen)
	}
}

func TestUncoverable(t *testing.T) {
	in := &Instance{
		Disks:      []geom.Circle{geom.C(geom.Pt(0, 0), 1)},
		Candidates: []geom.Point{geom.Pt(100, 100)},
	}
	if _, err := in.Solve(DefaultOptions()); !errors.Is(err, ErrUncoverable) {
		t.Errorf("want ErrUncoverable, got %v", err)
	}
	in.Candidates = nil
	if _, err := in.Solve(DefaultOptions()); !errors.Is(err, ErrUncoverable) {
		t.Errorf("no candidates: want ErrUncoverable, got %v", err)
	}
}

func TestSingleCandidateCoversAll(t *testing.T) {
	in := &Instance{
		Disks: []geom.Circle{
			geom.C(geom.Pt(0, 0), 10),
			geom.C(geom.Pt(5, 0), 10),
			geom.C(geom.Pt(0, 5), 10),
		},
		Candidates: []geom.Point{geom.Pt(50, 50), geom.Pt(1, 1), geom.Pt(-20, 0)},
	}
	sol, err := in.Solve(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Chosen) != 1 || sol.Chosen[0] != 1 {
		t.Errorf("Chosen = %v, want [1]", sol.Chosen)
	}
}

func TestDisjointDisksNeedOneEach(t *testing.T) {
	in := &Instance{
		Disks: []geom.Circle{
			geom.C(geom.Pt(0, 0), 1),
			geom.C(geom.Pt(100, 0), 1),
			geom.C(geom.Pt(0, 100), 1),
		},
		Candidates: []geom.Point{geom.Pt(0, 0), geom.Pt(100, 0), geom.Pt(0, 100)},
	}
	sol, err := in.Solve(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Chosen) != 3 {
		t.Errorf("Chosen = %v, want all three", sol.Chosen)
	}
}

func TestBoundaryToleranceMatters(t *testing.T) {
	// Candidate exactly on the boundary: without tolerance float error can
	// reject it; with Tol it must be accepted.
	disk := geom.C(geom.Pt(0, 0), 5)
	onBoundary := disk.PointAt(0.7) // exact boundary point
	in := &Instance{
		Disks:      []geom.Circle{disk},
		Candidates: []geom.Point{onBoundary},
		Tol:        1e-7,
	}
	sol, err := in.Solve(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Chosen) != 1 {
		t.Errorf("boundary candidate rejected")
	}
}

// localSearchBeatsGreedyInstance is a construction where greedy picks a
// middle point then needs two more, while the optimum is 2: disks A,B hit
// jointly by p0; disks C,D hit jointly by p1; and a decoy p2 hitting B,C
// (greedy ties pick it first only if it covers the most; here A,B,C gives it
// the edge).
func TestLocalSearchImproves(t *testing.T) {
	disks := []geom.Circle{
		geom.C(geom.Pt(0, 0), 2),  // A
		geom.C(geom.Pt(3, 0), 2),  // B
		geom.C(geom.Pt(10, 0), 2), // C
		geom.C(geom.Pt(13, 0), 2), // D
	}
	cands := []geom.Point{
		geom.Pt(1.5, 0),  // hits A,B
		geom.Pt(11.5, 0), // hits C,D
		geom.Pt(2.9, 0),  // hits A(no: dist 2.9>2)... hits B only
		geom.Pt(9.9, 0),  // hits C only
	}
	in := &Instance{Disks: disks, Candidates: cands}
	greedyOnly, err := in.Solve(Options{LocalSearch: false})
	if err != nil {
		t.Fatal(err)
	}
	withLS, err := in.Solve(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(withLS.Chosen) > len(greedyOnly.Chosen) {
		t.Errorf("local search made things worse: %d > %d", len(withLS.Chosen), len(greedyOnly.Chosen))
	}
	if len(withLS.Chosen) != 2 {
		t.Errorf("optimal size 2 not found: %v", withLS.Chosen)
	}
}

func TestSwap21Improvement(t *testing.T) {
	// Force greedy into 3 picks where 2 suffice, then verify 2->1 swap.
	// Universe: disks 0..4. greedy bait candidate hits {0,1,2}; then it needs
	// {3} and {4} separately. Optimal: {0,1,3} + {2,4}? Construct via bitsets
	// by geometry: line of disks radius 1.1 at x=0,2,4,6,8.
	disks := []geom.Circle{
		geom.C(geom.Pt(0, 0), 1.1),
		geom.C(geom.Pt(2, 0), 1.1),
		geom.C(geom.Pt(4, 0), 1.1),
		geom.C(geom.Pt(6, 0), 1.1),
		geom.C(geom.Pt(8, 0), 1.1),
	}
	cands := []geom.Point{
		geom.Pt(1, 0), // hits 0,1
		geom.Pt(3, 0), // hits 1,2
		geom.Pt(5, 0), // hits 2,3
		geom.Pt(7, 0), // hits 3,4
	}
	in := &Instance{Disks: disks, Candidates: cands}
	sol, err := in.Solve(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Optimum here is 3 ({1,0},{3,2},{4}) -> e.g. cands 0,2,3.
	if len(sol.Chosen) != 3 {
		t.Errorf("Chosen = %v, want size 3", sol.Chosen)
	}
	if !in.Verify(sol.Chosen) {
		t.Error("solution infeasible")
	}
}

// TestSwap21MatchesReferenceWithRedundantPoints calls swap21 on chosen
// points that removeRedundant would have pruned first, so a pair can have an
// empty need (then the lowest candidate outside the pair wins) or a need no
// candidate outside the pair hits. swap21 must take the reference's swap.
func TestSwap21MatchesReferenceWithRedundantPoints(t *testing.T) {
	// Candidates 0 and 1 hit disk 0, 2 hits disk 1, and 3 hits both.
	four := []bitset{{1}, {1}, {2}, {3}}
	cases := []struct {
		hit    []bitset
		nD     int
		chosen []int
	}{
		{four, 2, []int{0, 1, 3}},
		{four, 2, []int{3, 0, 1}},
		{four, 2, []int{0, 1, 2}},
		{[]bitset{{1}, {1}}, 1, []int{0, 1}},
	}
	for _, tc := range cases {
		s := newSearch(tc.hit, tc.nD, append([]int(nil), tc.chosen...))
		got := s.swap21()
		want := append([]int(nil), tc.chosen...)
		wantOK := refSwap21(tc.hit, tc.nD, &want)
		if got != wantOK || !reflect.DeepEqual(s.chosen, want) {
			t.Errorf("from %v: got %v %v, reference %v %v", tc.chosen, got, s.chosen, wantOK, want)
		}
	}
}

func TestVerify(t *testing.T) {
	in := &Instance{
		Disks:      []geom.Circle{geom.C(geom.Pt(0, 0), 5)},
		Candidates: []geom.Point{geom.Pt(0, 0), geom.Pt(100, 0)},
	}
	if !in.Verify([]int{0}) {
		t.Error("covering choice rejected")
	}
	if in.Verify([]int{1}) {
		t.Error("non-covering choice accepted")
	}
	if in.Verify([]int{}) {
		t.Error("empty choice accepted for non-empty disks")
	}
	if in.Verify([]int{99}) {
		t.Error("out-of-range choice accepted")
	}
}

// Property: on random instances where every disk center is a candidate, the
// solver returns a feasible solution no larger than greedy, and never larger
// than the number of disks.
func TestSolveProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nD := 1 + rng.Intn(25)
		disks := make([]geom.Circle, nD)
		cands := make([]geom.Point, 0, nD*2)
		for i := range disks {
			disks[i] = geom.C(geom.Pt(rng.Float64()*200, rng.Float64()*200), 15+rng.Float64()*20)
			cands = append(cands, disks[i].Center)
		}
		for i := 0; i < nD; i++ {
			cands = append(cands, geom.Pt(rng.Float64()*200, rng.Float64()*200))
		}
		in := &Instance{Disks: disks, Candidates: cands}
		sol, err := in.Solve(DefaultOptions())
		if err != nil {
			return false
		}
		if !in.Verify(sol.Chosen) {
			return false
		}
		return len(sol.Chosen) <= sol.GreedySize && len(sol.Chosen) <= nD
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: local search result is no larger than optimal by more than the
// brute-force optimum on tiny instances (exact check: size <= OPT would be
// ideal; we assert size <= OPT is observed in at least the brute-force
// comparable cases where local search is within +1 of optimum).
func TestNearOptimalOnTinyInstances(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nD := 1 + rng.Intn(6)
		nC := 1 + rng.Intn(8)
		disks := make([]geom.Circle, nD)
		for i := range disks {
			disks[i] = geom.C(geom.Pt(rng.Float64()*50, rng.Float64()*50), 10+rng.Float64()*20)
		}
		cands := make([]geom.Point, nC)
		for i := range cands {
			cands[i] = geom.Pt(rng.Float64()*50, rng.Float64()*50)
		}
		in := &Instance{Disks: disks, Candidates: cands}
		sol, err := in.Solve(DefaultOptions())
		if errors.Is(err, ErrUncoverable) {
			return true
		}
		if err != nil {
			return false
		}
		// Brute force optimum.
		best := nC + 1
		for mask := 0; mask < 1<<nC; mask++ {
			var chosen []int
			for c := 0; c < nC; c++ {
				if mask&(1<<c) != 0 {
					chosen = append(chosen, c)
				}
			}
			if len(chosen) < best && in.Verify(chosen) {
				best = len(chosen)
			}
		}
		// Local search with swaps up to 3 guarantees <= 1 + OPT on these
		// tiny instances in practice; assert feasibility and a sane bound.
		return len(sol.Chosen) >= best && len(sol.Chosen) <= best+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestMaxRoundsRespected(t *testing.T) {
	disks := []geom.Circle{geom.C(geom.Pt(0, 0), 5)}
	in := &Instance{Disks: disks, Candidates: []geom.Point{geom.Pt(0, 0)}}
	sol, err := in.Solve(Options{LocalSearch: true, MaxSwap: 3, MaxRounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Rounds > 1 {
		t.Errorf("Rounds = %d, want <= 1", sol.Rounds)
	}
}
