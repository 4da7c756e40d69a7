package hitting_test

import (
	"errors"
	"fmt"
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

// localSearchFields draws the seeded stream of n fields local search is
// compared on, with their random starting covers (nil for an uncoverable
// field): 1-30 disks, and 65-80 disks for every tenth field.
func localSearchFields(n int) (fields []*hitting.Instance, starts [][]int) {
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < n; i++ {
		nD := 1 + rng.Intn(30)
		if i%10 == 9 {
			nD = 65 + rng.Intn(16)
		}
		in := diskField(rng, nD)
		fields = append(fields, in)
		starts = append(starts, randomCover(rng, in))
	}
	return fields, starts
}

// requireSameSearchAsReference runs local search from start under each of
// diffOptions. The final points must equal the reference's in order, not
// only as a set, and so must the number of rounds.
func requireSameSearchAsReference(t *testing.T, name string, in *hitting.Instance, start []int) {
	t.Helper()
	for _, opts := range diffOptions {
		got, gotRounds := in.LocalSearchFrom(start, opts)
		want, wantRounds := in.RefLocalSearchFrom(start, opts)
		if !reflect.DeepEqual(got, want) || gotRounds != wantRounds {
			t.Fatalf("%s %+v from %v: got %v in %d rounds, reference %v in %d", name, opts, start, got, gotRounds, want, wantRounds)
		}
	}
}

// TestLocalSearchMatchesReference starts local search from random covers,
// far worse than greedy ones, so each run chains many removals and swaps.
func TestLocalSearchMatchesReference(t *testing.T) {
	n := 200
	if testing.Short() {
		n = 40
	}
	fields, starts := localSearchFields(n)
	for i, in := range fields {
		if starts[i] != nil {
			requireSameSearchAsReference(t, fmt.Sprintf("field %d", i), in, starts[i])
		}
	}
}

// TestLocalSearchMatchesReferenceOnPinnedFields keeps two fields of the
// stream above in every run, -short included; each ends elsewhere than the
// reference, at MaxSwap 3, under a mutant only the full stream caught.
//   - Field 126: a 2 -> 1 swap leaves a chosen point that no disk needs
//     alone when the same sweep's 3 -> 2 pass starts, so the triple skip
//     must treat a point without exclusive disks as compatible with every
//     other.
//   - Field 121: a 3 -> 2 swap must not offer a removed point of the triple
//     as one of its two replacements.
func TestLocalSearchMatchesReferenceOnPinnedFields(t *testing.T) {
	fields, starts := localSearchFields(127)
	for _, pin := range []struct {
		field int
		want  []int
	}{
		{121, []int{80, 81, 0, 43}},
		{126, []int{107, 63, 2, 24, 52}},
	} {
		in, start := fields[pin.field], starts[pin.field]
		got, _ := in.LocalSearchFrom(start, hitting.DefaultOptions())
		if !reflect.DeepEqual(got, pin.want) {
			t.Fatalf("field %d, MaxSwap 3 from %v: got %v, want %v", pin.field, start, got, pin.want)
		}
		requireSameSearchAsReference(t, fmt.Sprintf("field %d", pin.field), in, start)
	}
}

// wordField draws nD disks and exactly nC uniform candidate points, and
// centres each disk within half its radius of a random candidate, so every
// disk is coverable whatever the counts.
func wordField(rng *rand.Rand, nD, nC int) *hitting.Instance {
	side := 35 * math.Sqrt(float64(nD))
	in := &hitting.Instance{Tol: zoneTol}
	for i := 0; i < nC; i++ {
		in.Candidates = append(in.Candidates, geom.Pt(rng.Float64()*side, rng.Float64()*side))
	}
	for i := 0; i < nD; i++ {
		r := 30 + rng.Float64()*10
		c := in.Candidates[rng.Intn(nC)]
		a, d := rng.Float64()*2*math.Pi, rng.Float64()*r/2
		in.Disks = append(in.Disks, geom.C(geom.Pt(c.X+d*math.Cos(a), c.Y+d*math.Sin(a)), r))
	}
	return in
}

// TestWordBoundariesMatchReference compares Solve and local search from a
// random cover with the reference on candidate counts at either side of
// one and two 64-bit words, with disk counts of at most one word and of
// more than one, where the disk→candidate index and the candidate sets
// built from it must mask their last word exactly.
func TestWordBoundariesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for _, nC := range []int{63, 64, 65, 127, 128, 129} {
		for _, nD := range []int{20 + rng.Intn(45), 65 + rng.Intn(16)} {
			for rep := 0; rep < 2; rep++ {
				in := wordField(rng, nD, nC)
				name := fmt.Sprintf("%d disks, %d candidates", nD, nC)
				requireSameAsReference(t, name, in)
				requireSameSearchAsReference(t, name, in, randomCover(rng, in))
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
