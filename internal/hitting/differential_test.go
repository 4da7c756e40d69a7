package hitting_test

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"sagrelay/internal/geom"
	"sagrelay/internal/hitting"
	"sagrelay/internal/lower"
	"sagrelay/internal/scenario"
)

// zoneTol is the membership tolerance SAMC gives its hitting instances.
const zoneTol = 1e-7

// diffOptions are the option sets Solve is compared under: the SAMC
// default, the IAC greedy incumbent's, and redundancy removal only.
var diffOptions = []hitting.Options{
	hitting.DefaultOptions(),
	{LocalSearch: true, MaxSwap: 2, MaxRounds: 10},
	{LocalSearch: true, MaxSwap: 1},
}

// diskField draws nD disks of radius 30-40 (the subscribers' distance
// requirements) on a square sized so that neighbours overlap. Candidates
// are the SAMC ones, pairwise intersections plus centres; about one field
// in five instead gets 2nD uniform points, which may leave a disk
// uncoverable.
func diskField(rng *rand.Rand, nD int) *hitting.Instance {
	side := 35 * math.Sqrt(float64(nD))
	disks := make([]geom.Circle, nD)
	for i := range disks {
		disks[i] = geom.C(geom.Pt(rng.Float64()*side, rng.Float64()*side), 30+rng.Float64()*10)
	}
	in := &hitting.Instance{Disks: disks, Tol: zoneTol}
	if rng.Intn(5) == 0 {
		for i := 0; i < 2*nD; i++ {
			in.Candidates = append(in.Candidates, geom.Pt(rng.Float64()*side, rng.Float64()*side))
		}
	} else {
		in.Candidates = geom.IntersectionCandidates(disks)
	}
	return in
}

// samcZones returns SAMC's hitting instances for a seeded 800×800,
// 40-user field: one per zone of the zone partition.
func samcZones(t testing.TB, seed int64) []*hitting.Instance {
	t.Helper()
	sc, err := scenario.Generate(scenario.GenConfig{FieldSide: 800, NumSS: 40, NumBS: 4, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	zones, err := lower.ZonePartition(sc)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*hitting.Instance, len(zones))
	for z, zone := range zones {
		disks := make([]geom.Circle, len(zone))
		for i, s := range zone {
			disks[i] = sc.Subscribers[s].Circle()
		}
		out[z] = &hitting.Instance{Disks: disks, Candidates: geom.IntersectionCandidates(disks), Tol: zoneTol}
	}
	return out
}

func requireSameAsReference(t *testing.T, name string, in *hitting.Instance) {
	t.Helper()
	for _, opts := range diffOptions {
		got, err := in.Solve(opts)
		want, wantErr := in.RefSolve(opts)
		bothUncoverable := errors.Is(err, hitting.ErrUncoverable) && errors.Is(wantErr, hitting.ErrUncoverable)
		if (err != nil || wantErr != nil) && !bothUncoverable {
			t.Fatalf("%s %+v: err %v, reference %v", name, opts, err, wantErr)
		}
		if bothUncoverable {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s %+v: got %+v, reference %+v", name, opts, got, want)
		}
	}
}

// TestSolveMatchesReference requires Solve to return the reference's
// Chosen, GreedySize and Rounds (or its ErrUncoverable) on random fields
// of 1-30 disks and of 65-80 disks (multi-word bitsets), and on every zone
// of seeded 800×800, 40-user fields, under each of diffOptions.
func TestSolveMatchesReference(t *testing.T) {
	small, large, fields := 600, 25, 30
	if testing.Short() {
		small, large, fields = 150, 1, 8
	}
	rng := rand.New(rand.NewSource(18))
	for i := 0; i < small; i++ {
		nD := 1 + rng.Intn(30)
		requireSameAsReference(t, "small field", diskField(rng, nD))
	}
	for i := 0; i < large; i++ {
		nD := 65 + rng.Intn(16)
		requireSameAsReference(t, "large field", diskField(rng, nD))
	}
	for seed := int64(1); seed <= int64(fields); seed++ {
		for _, in := range samcZones(t, seed) {
			requireSameAsReference(t, "SAMC zone", in)
		}
	}
}

// randomCover returns the candidates of a seeded random order up to the
// first prefix that hits every disk, so many of them are redundant.
func randomCover(rng *rand.Rand, in *hitting.Instance) []int {
	var cover []int
	for _, c := range rng.Perm(len(in.Candidates)) {
		cover = append(cover, c)
		if in.Verify(cover) {
			return cover
		}
	}
	return nil
}

// TestLocalSearchMatchesReference starts local search from random covers,
// far worse than greedy ones, so each run chains many removals and swaps.
// The final points must equal the reference's in order, not only as a set,
// and so must the number of rounds.
func TestLocalSearchMatchesReference(t *testing.T) {
	n := 200
	if testing.Short() {
		n = 40
	}
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < n; i++ {
		nD := 1 + rng.Intn(30)
		if i%10 == 9 {
			nD = 65 + rng.Intn(16)
		}
		in := diskField(rng, nD)
		start := randomCover(rng, in)
		if start == nil {
			continue
		}
		for _, opts := range diffOptions {
			got, gotRounds := in.LocalSearchFrom(start, opts)
			want, wantRounds := in.RefLocalSearchFrom(start, opts)
			if !reflect.DeepEqual(got, want) || gotRounds != wantRounds {
				t.Fatalf("field %d %+v from %v: got %v in %d rounds, reference %v in %d", i, opts, start, got, gotRounds, want, wantRounds)
			}
		}
	}
}

// TestSolveAllocsIndependentOfMoves pins that local search allocates
// nothing per move tried: on a SAMC-size instance where 3 -> 2 swaps try
// many triples and pairs, MaxSwap 3 allocates at most a small constant
// more than MaxSwap 1, which only tries removals.
func TestSolveAllocsIndependentOfMoves(t *testing.T) {
	in := diskField(rand.New(rand.NewSource(3)), 30)
	in.Candidates = geom.IntersectionCandidates(in.Disks)
	sol, err := in.Solve(hitting.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Chosen) < 6 {
		t.Fatalf("instance too easy: %d chosen points leave few triples to try", len(sol.Chosen))
	}
	allocs := func(opts hitting.Options) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := in.Solve(opts); err != nil {
				t.Fatal(err)
			}
		})
	}
	one := allocs(hitting.Options{LocalSearch: true, MaxSwap: 1})
	three := allocs(hitting.DefaultOptions())
	t.Logf("allocs/Solve: MaxSwap 1 %v, MaxSwap 3 %v (%d disks, %d candidates, %d chosen)",
		one, three, len(in.Disks), len(in.Candidates), len(sol.Chosen))
	if three > one+2 {
		t.Errorf("MaxSwap 3 allocates %v per Solve, MaxSwap 1 %v: local search allocates per move", three, one)
	}
}
