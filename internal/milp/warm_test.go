package milp_test

import (
	"context"
	"math"
	"sync"
	"testing"

	"sagrelay/internal/benchprob"
	"sagrelay/internal/milp"
)

// pivotGateBaseline is the pivot-regression budget for the pinned ILPQC
// instance: half the pre-warm-start seed measurement (3598 pivots with the
// cold Bland/Dantzig solver at every node), so holding the gate proves the
// required >= 2x total-pivot reduction survives future changes. The
// warm-started dual simplex with Devex pricing currently needs ~508.
const pivotGateBaseline = 1799

// TestPivotRegressionGate solves the pinned ILPQC benchmark instance and
// fails if the total LP pivot count regresses past the recorded budget, or
// if the search stops warm-starting its nodes. ci.sh runs this as the
// perf gate.
func TestPivotRegressionGate(t *testing.T) {
	p, isInt := benchprob.ILPQC()
	res, err := milp.Solve(context.Background(), p, isInt, milp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != milp.Optimal {
		t.Fatalf("status %v, want optimal", res.Status)
	}
	if math.Abs(res.Objective-2) > 1e-6 {
		t.Fatalf("objective %v, want 2 (the instance's known optimum)", res.Objective)
	}
	t.Logf("nodes=%d pivots=%d warm=%d cold=%d", res.Nodes, res.Pivots, res.WarmSolves, res.ColdSolves)
	if res.Pivots > pivotGateBaseline {
		t.Errorf("total pivots %d exceed the regression budget %d (seed baseline was 3598)",
			res.Pivots, pivotGateBaseline)
	}
	if res.WarmSolves <= res.ColdSolves {
		t.Errorf("warm solves %d <= cold solves %d; warm starts are not carrying the tree",
			res.WarmSolves, res.ColdSolves)
	}
}

// The exact search of the pinned ILPQC instance. Only a deliberate change
// to the search algorithm (pricing, ratio tests, tolerances, branching or
// node order) may update these values; a change to how the simplex
// arithmetic is carried out must leave every one of them bit-identical.
const (
	pinnedNodes     = 97
	pinnedPivots    = 508
	pinnedWarm      = 96
	pinnedCold      = 1
	pinnedObjective = 0x4000000000000002
)

// pinnedX is the pinned incumbent's nonzero entries as IEEE-754 bits; every
// other entry is +0.
var pinnedX = map[int]uint64{
	0: 0x3ff0000000000000, 1: 0x3cc5800000000000, 3: 0x3cb2492492492492,
	5: 0x3ff0000000000000, 9: 0x3c70000000000000, 14: 0x3ff0000000000000,
	15: 0x3ff0000000000000, 16: 0x3feffffffffffffe, 20: 0x3cf5800000000000,
	36: 0x3ff0000000000000, 37: 0x3ff0000000000000, 38: 0x3feffffffffffffe,
	39: 0x3ff0000000000000, 40: 0x3ff0000000000000, 50: 0x3ca0000000000000,
}

// TestPinnedILPQCSearch holds the pinned instance's search to the recorded
// node, pivot and warm/cold counts and its answer to the recorded bits.
func TestPinnedILPQCSearch(t *testing.T) {
	p, isInt := benchprob.ILPQC()
	res, err := milp.Solve(context.Background(), p, isInt, milp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes != pinnedNodes || res.Pivots != pinnedPivots ||
		res.WarmSolves != pinnedWarm || res.ColdSolves != pinnedCold {
		t.Errorf("nodes=%d pivots=%d warm=%d cold=%d, want %d %d %d %d",
			res.Nodes, res.Pivots, res.WarmSolves, res.ColdSolves,
			pinnedNodes, pinnedPivots, pinnedWarm, pinnedCold)
	}
	if got := math.Float64bits(res.Objective); got != pinnedObjective {
		t.Errorf("objective bits %#x, want %#x", got, uint64(pinnedObjective))
	}
	if len(res.X) != p.NumVariables() {
		t.Fatalf("len(X) = %d, want %d", len(res.X), p.NumVariables())
	}
	for i, x := range res.X {
		if got, want := math.Float64bits(x), pinnedX[i]; got != want {
			t.Errorf("x[%d] bits %#x, want %#x", i, got, want)
		}
	}
}

// TestWarmStartConcurrentSolvers runs the same MILP solve on many
// goroutines at once — the parallel per-zone configuration — and asserts
// every run returns the identical result. Under -race this also proves the
// per-Solver warm-start buffers never leak across goroutines.
func TestWarmStartConcurrentSolvers(t *testing.T) {
	const workers = 8
	p, isInt := benchprob.ILPQC()
	results := make([]*milp.Result, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w], errs[w] = milp.Solve(context.Background(), p, isInt, milp.Options{})
		}(w)
	}
	wg.Wait()
	ref := results[0]
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		r := results[w]
		if r.Status != ref.Status || r.Nodes != ref.Nodes || r.Pivots != ref.Pivots ||
			r.WarmSolves != ref.WarmSolves || r.Objective != ref.Objective {
			t.Fatalf("worker %d diverged: (status,nodes,pivots,warm,obj) = (%v,%d,%d,%d,%v) vs (%v,%d,%d,%d,%v)",
				w, r.Status, r.Nodes, r.Pivots, r.WarmSolves, r.Objective,
				ref.Status, ref.Nodes, ref.Pivots, ref.WarmSolves, ref.Objective)
		}
		for i := range ref.X {
			if r.X[i] != ref.X[i] {
				t.Fatalf("worker %d: x[%d] = %v, want bit-identical %v", w, i, r.X[i], ref.X[i])
			}
		}
	}
}
