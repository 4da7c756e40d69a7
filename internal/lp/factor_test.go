package lp_test

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"sagrelay/internal/benchprob"
	"sagrelay/internal/lower"
	"sagrelay/internal/lp"
	"sagrelay/internal/milp"
	"sagrelay/internal/scenario"
)

// withFactorReuse runs f with factor reuse switched on or off and restores
// the previous setting.
func withFactorReuse(on bool, f func()) {
	defer lp.SetFactorReuse(lp.SetFactorReuse(on))
	f()
}

// factorCounts returns how many warm starts in f factorized their basis
// and how many restored a parked factorization.
func factorCounts(f func()) (refactors, reuses int64) {
	f0, r0 := lp.FactorStats()
	f()
	f1, r1 := lp.FactorStats()
	return f1 - f0, r1 - r0
}

// sameSearch fails t unless two branch-and-bound results agree on the
// search (nodes, pivots, warm/cold split) and on the answer bit for bit.
func sameSearch(t *testing.T, name string, on, off *milp.Result) {
	t.Helper()
	if on.Status != off.Status || on.Nodes != off.Nodes || on.Pivots != off.Pivots ||
		on.WarmSolves != off.WarmSolves || on.ColdSolves != off.ColdSolves {
		t.Fatalf("%s: reuse on (status,nodes,pivots,warm,cold) = (%v,%d,%d,%d,%d), off = (%v,%d,%d,%d,%d)",
			name, on.Status, on.Nodes, on.Pivots, on.WarmSolves, on.ColdSolves,
			off.Status, off.Nodes, off.Pivots, off.WarmSolves, off.ColdSolves)
	}
	if math.Float64bits(on.Objective) != math.Float64bits(off.Objective) ||
		math.Float64bits(on.Bound) != math.Float64bits(off.Bound) {
		t.Fatalf("%s: objective/bound %v/%v with reuse, %v/%v without",
			name, on.Objective, on.Bound, off.Objective, off.Bound)
	}
	if len(on.X) != len(off.X) {
		t.Fatalf("%s: len(X) %d with reuse, %d without", name, len(on.X), len(off.X))
	}
	for i := range on.X {
		if math.Float64bits(on.X[i]) != math.Float64bits(off.X[i]) {
			t.Fatalf("%s: x[%d] = %v with reuse, %v without", name, i, on.X[i], off.X[i])
		}
	}
}

// TestFactorReuseBitIdentical solves branch-and-bound instances with factor
// reuse on and off: the pinned ILPQC zone, the gac-sweep-sized zone at both
// node caps the benchmarks use, and 100 random covering ILPs. Restoring a
// parked factorization must change neither the search nor a single bit of
// the answer, and must actually happen.
func TestFactorReuseBitIdentical(t *testing.T) {
	type instance struct {
		name  string
		p     *lp.Problem
		isInt []bool
		opts  milp.Options
	}
	ilpqc, ilpqcInt := benchprob.ILPQC()
	gac, gacInt := benchprob.GACZone()
	cases := []instance{
		{"ILPQC", ilpqc, ilpqcInt, milp.Options{}},
		{"GACZone/10", gac, gacInt, milp.Options{MaxNodes: 10}},
		{"GACZone/50", gac, gacInt, milp.Options{MaxNodes: 50}},
	}
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 100; i++ {
		p, isInt, _, _ := benchprob.Covering(rng.Int63(), 2+rng.Intn(9), 1+rng.Intn(12))
		cases = append(cases, instance{"covering", p, isInt, milp.Options{}})
	}
	ctx := context.Background()
	var reused int64
	for _, c := range cases {
		var on, off *milp.Result
		var errOn, errOff error
		_, r := factorCounts(func() { on, errOn = milp.Solve(ctx, c.p, c.isInt, c.opts) })
		reused += r
		withFactorReuse(false, func() { off, errOff = milp.Solve(ctx, c.p, c.isInt, c.opts) })
		if errOn != nil || errOff != nil {
			t.Fatalf("%s: errors %v / %v", c.name, errOn, errOff)
		}
		sameSearch(t, c.name, on, off)
	}
	if reused == 0 {
		t.Fatal("no warm start restored a parked factorization; the comparison is vacuous")
	}
	t.Logf("%d factorizations restored", reused)
}

// TestFactorReuseRealZones runs the IAC pipeline on seeded 500x500 fields
// with factor reuse on and off. Every zone's search must report the same
// nodes, pivots, warm/cold split and incumbent bits, and the placements
// (read off each zone's X) must be identical.
func TestFactorReuseRealZones(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	opts := lower.ILPOptions{MaxNodes: 50, TimeLimit: time.Hour, Workers: 1}
	solve := func(sc *scenario.Scenario) (*lower.Result, []milp.Progress) {
		var finals []milp.Progress
		ctx := milp.WithProgress(context.Background(), func(p milp.Progress) {
			if p.Kind == milp.KindFinal {
				finals = append(finals, p)
			}
		})
		res, err := lower.IAC(ctx, sc, opts)
		if err != nil {
			t.Fatal(err)
		}
		res.Elapsed = 0
		return res, finals
	}
	var built, reused int64
	for _, seed := range seeds {
		sc, err := scenario.Generate(scenario.GenConfig{FieldSide: 500, NumSS: 30, NumBS: 4, SNRdB: -15, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		var resOn, resOff *lower.Result
		var on, off []milp.Progress
		b, r := factorCounts(func() { resOn, on = solve(sc) })
		built, reused = built+b, reused+r
		withFactorReuse(false, func() { resOff, off = solve(sc) })
		if len(on) == 0 || len(on) != len(off) {
			t.Fatalf("seed %d: %d zone searches with reuse, %d without", seed, len(on), len(off))
		}
		for i := range on {
			a, b := on[i], off[i]
			if a.Zone != b.Zone || a.Nodes != b.Nodes || a.Pivots != b.Pivots ||
				a.WarmSolves != b.WarmSolves || a.ColdSolves != b.ColdSolves || a.Status != b.Status ||
				math.Float64bits(a.Incumbent) != math.Float64bits(b.Incumbent) ||
				math.Float64bits(a.Bound) != math.Float64bits(b.Bound) {
				t.Fatalf("seed %d zone %d: search %+v with reuse, %+v without", seed, a.Zone, a, b)
			}
		}
		if !reflect.DeepEqual(resOn, resOff) {
			t.Fatalf("seed %d: placements differ with and without reuse", seed)
		}
	}
	if reused == 0 {
		t.Fatal("no zone search restored a parked factorization")
	}
	t.Logf("%d factorizations restored, %d built", reused, built)
}

// TestFactorRingInvalidation checks the cases where a parked factorization
// must not be restored: after a cold fallback has rebuilt the cold tableau
// it lives in, and after an edit to the problem's objective. In each case
// the second sibling must refactorize and agree with a fresh Solver.
func TestFactorRingInvalidation(t *testing.T) {
	ctx := context.Background()
	p := uniqueOptimumLP(t, 7, 12, 16)
	s := lp.NewSolver()
	root, err := s.WarmSolve(ctx, p, nil, nil, nil)
	if err != nil || root.Status != lp.Optimal {
		t.Fatalf("root: %v %v", err, root)
	}
	ceil := map[int]float64{0: 1}
	floor := map[int]float64{0: 0}
	check := func(name string, wantReuse int64) {
		t.Helper()
		var got *lp.Solution
		_, n := factorCounts(func() { got, err = s.WarmSolve(ctx, p, nil, floor, root.Basis) })
		if n != wantReuse || err != nil {
			t.Fatalf("%s: %d restores (err %v), want %d", name, n, err, wantReuse)
		}
		want, err := lp.NewSolver().WarmSolve(ctx, p, nil, floor, root.Basis)
		if err != nil {
			t.Fatal(err)
		}
		if got.Status != want.Status || got.Iterations != want.Iterations ||
			math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
			t.Fatalf("%s: (%v,%d,%v), fresh solver (%v,%d,%v)", name,
				got.Status, got.Iterations, got.Objective, want.Status, want.Iterations, want.Objective)
		}
		for i := range want.X {
			if math.Float64bits(got.X[i]) != math.Float64bits(want.X[i]) {
				t.Fatalf("%s: x[%d] = %v, fresh solver %v", name, i, got.X[i], want.X[i])
			}
		}
	}
	sibling := func() {
		t.Helper()
		if _, err := s.WarmSolve(ctx, p, ceil, nil, root.Basis); err != nil {
			t.Fatal(err)
		}
	}

	// Baseline: the floor sibling restores what the ceil sibling parked.
	sibling()
	check("siblings", 1)

	// A cold fallback between the siblings: a basis of another problem's
	// shape cannot warm-start p, so the solve rebuilds the cold tableau.
	sibling()
	_, falls0 := lp.WarmStats()
	other := uniqueOptimumLP(t, 8, 5, 3)
	otherRoot, err := lp.NewSolver().WarmSolve(ctx, other, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.WarmSolve(ctx, p, nil, nil, otherRoot.Basis); err != nil {
		t.Fatal(err)
	}
	if _, falls1 := lp.WarmStats(); falls1 != falls0+1 {
		t.Fatalf("cold fallbacks went %d -> %d, want one", falls0, falls1)
	}
	check("after a cold fallback", 0)

	// An objective edit between the siblings changes the reduced costs.
	sibling()
	if err := p.SetObjective(0, 2.5); err != nil {
		t.Fatal(err)
	}
	check("after an objective edit", 0)
}
