package milp

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"sagrelay/internal/lp"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// binProblem builds a problem with n binary variables and the given costs.
func binProblem(costs []float64) (*lp.Problem, []bool) {
	p := lp.NewProblem()
	isInt := make([]bool, len(costs))
	for i, c := range costs {
		v := p.AddVariable("t", c)
		_ = p.SetUpperBound(v, 1)
		isInt[i] = true
	}
	return p, isInt
}

func TestKnapsackStyle(t *testing.T) {
	// max 5a + 4b + 3c s.t. 2a + 3b + c <= 5, binary.
	// Optimum: a=1, c=1 (values 5+3=8, weight 3) vs a=1,b=1 (9, weight 5) ->
	// a=1,b=1 wins with value 9.
	p, isInt := binProblem([]float64{-5, -4, -3})
	if err := p.AddConstraint([]lp.Term{{Var: 0, Coef: 2}, {Var: 1, Coef: 3}, {Var: 2, Coef: 1}}, lp.LE, 5); err != nil {
		t.Fatal(err)
	}
	res, err := Solve(context.Background(), p, isInt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal {
		t.Fatalf("status = %v", res.Status)
	}
	if !almost(res.Objective, -9, 1e-6) {
		t.Errorf("objective = %v, want -9", res.Objective)
	}
	if !almost(res.X[0], 1, 1e-6) || !almost(res.X[1], 1, 1e-6) || !almost(res.X[2], 0, 1e-6) {
		t.Errorf("solution = %v, want (1,1,0)", res.X)
	}
}

func TestSetCover(t *testing.T) {
	// Universe {0,1,2,3}; sets A={0,1}, B={2,3}, C={0,1,2,3} cost 1 each.
	// Optimum: {C} with cost 1.
	p, isInt := binProblem([]float64{1, 1, 1})
	cover := [][]int{{0, 2}, {0, 2}, {1, 2}, {1, 2}} // element -> sets containing it
	for _, sets := range cover {
		terms := make([]lp.Term, len(sets))
		for i, s := range sets {
			terms[i] = lp.Term{Var: s, Coef: 1}
		}
		if err := p.AddConstraint(terms, lp.GE, 1); err != nil {
			t.Fatal(err)
		}
	}
	res, err := Solve(context.Background(), p, isInt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal || !almost(res.Objective, 1, 1e-6) {
		t.Fatalf("got %v obj=%v, want optimal obj=1", res.Status, res.Objective)
	}
	if !almost(res.X[2], 1, 1e-6) {
		t.Errorf("expected set C chosen: %v", res.X)
	}
}

func TestIntegerInfeasible(t *testing.T) {
	// 0.4 <= x <= 0.6 has no integer point.
	p, isInt := binProblem([]float64{1})
	if err := p.AddConstraint([]lp.Term{{Var: 0, Coef: 1}}, lp.GE, 0.4); err != nil {
		t.Fatal(err)
	}
	if err := p.AddConstraint([]lp.Term{{Var: 0, Coef: 1}}, lp.LE, 0.6); err != nil {
		t.Fatal(err)
	}
	res, err := Solve(context.Background(), p, isInt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", res.Status)
	}
}

func TestLPInfeasible(t *testing.T) {
	p, isInt := binProblem([]float64{1})
	if err := p.AddConstraint([]lp.Term{{Var: 0, Coef: 1}}, lp.GE, 2); err != nil {
		t.Fatal(err)
	}
	res, err := Solve(context.Background(), p, isInt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", res.Status)
	}
}

func TestUnboundedModel(t *testing.T) {
	p := lp.NewProblem()
	x := p.AddVariable("x", -1) // continuous, unbounded below in objective
	y := p.AddVariable("t", 1)
	_ = p.SetUpperBound(y, 1)
	_ = x
	res, err := Solve(context.Background(), p, []bool{false, true}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Unbounded {
		t.Errorf("status = %v, want unbounded", res.Status)
	}
}

func TestMixedIntegerContinuous(t *testing.T) {
	// min -t - 0.5y  s.t. t binary, 0 <= y <= 2.5, t + y <= 3.
	// Optimum: t=1, y=2 -> obj -2.
	p := lp.NewProblem()
	tv := p.AddVariable("t", -1)
	_ = p.SetUpperBound(tv, 1)
	y := p.AddVariable("y", -0.5)
	_ = p.SetUpperBound(y, 2.5)
	if err := p.AddConstraint([]lp.Term{{Var: tv, Coef: 1}, {Var: y, Coef: 1}}, lp.LE, 3); err != nil {
		t.Fatal(err)
	}
	res, err := Solve(context.Background(), p, []bool{true, false}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal || !almost(res.Objective, -2, 1e-6) {
		t.Fatalf("got %v obj=%v, want optimal -2", res.Status, res.Objective)
	}
	if !almost(res.X[tv], 1, 1e-6) || !almost(res.X[y], 2, 1e-6) {
		t.Errorf("solution = %v", res.X)
	}
}

func TestValidation(t *testing.T) {
	if _, err := Solve(context.Background(), nil, nil, Options{}); err == nil {
		t.Error("nil problem accepted")
	}
	p, _ := binProblem([]float64{1})
	if _, err := Solve(context.Background(), p, []bool{true, true}, Options{}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Solve(context.Background(), p, []bool{false}, Options{}); !errors.Is(err, ErrNoIntegers) {
		t.Errorf("want ErrNoIntegers, got %v", err)
	}
}

func TestWarmStartPrunes(t *testing.T) {
	// Incumbent equal to the optimum should come back optimal (possibly the
	// same point) with few nodes.
	p, isInt := binProblem([]float64{1, 1})
	if err := p.AddConstraint([]lp.Term{{Var: 0, Coef: 1}, {Var: 1, Coef: 1}}, lp.GE, 1); err != nil {
		t.Fatal(err)
	}
	res, err := Solve(context.Background(), p, isInt, Options{Incumbent: []float64{1, 0}, IncumbentObj: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal || !almost(res.Objective, 1, 1e-6) {
		t.Errorf("got %v obj=%v", res.Status, res.Objective)
	}
}

func TestNodeLimitGivesFeasible(t *testing.T) {
	// A model the solver cannot finish in one node, with a warm start, must
	// report Feasible (not Optimal) under MaxNodes=1.
	rng := rand.New(rand.NewSource(42))
	n := 14
	costs := make([]float64, n)
	for i := range costs {
		costs[i] = 1 + rng.Float64()
	}
	p, isInt := binProblem(costs)
	for k := 0; k < 25; k++ {
		var terms []lp.Term
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				terms = append(terms, lp.Term{Var: i, Coef: 1})
			}
		}
		if len(terms) == 0 {
			terms = []lp.Term{{Var: 0, Coef: 1}}
		}
		if err := p.AddConstraint(terms, lp.GE, 1); err != nil {
			t.Fatal(err)
		}
	}
	all := make([]float64, n)
	total := 0.0
	for i := range all {
		all[i] = 1
		total += costs[i]
	}
	res, err := Solve(context.Background(), p, isInt, Options{MaxNodes: 1, Incumbent: all, IncumbentObj: total})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status == Optimal && res.Objective == total {
		t.Error("node-limited search claimed optimality of the warm start")
	}
	if res.X == nil {
		t.Error("warm start lost")
	}
}

func TestTimeLimit(t *testing.T) {
	p, isInt := binProblem([]float64{1, 1, 1})
	if err := p.AddConstraint([]lp.Term{{Var: 0, Coef: 1}, {Var: 1, Coef: 1}, {Var: 2, Coef: 1}}, lp.GE, 2); err != nil {
		t.Fatal(err)
	}
	// An already-expired deadline must stop before the first node.
	res, err := Solve(context.Background(), p, isInt, Options{TimeLimit: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes != 0 {
		t.Errorf("explored %d nodes despite expired deadline", res.Nodes)
	}
	if res.Status != Limit {
		t.Errorf("status = %v, want limit", res.Status)
	}
	if !res.DeadlineHit {
		t.Error("wall-clock limit stopped the search but DeadlineHit is false")
	}
}

func TestNodeLimitIsNotDeadlineHit(t *testing.T) {
	// A node-cap stop is deterministic and must not carry the
	// load-dependent DeadlineHit marker.
	p, isInt := binProblem([]float64{1, 1, 1})
	if err := p.AddConstraint([]lp.Term{{Var: 0, Coef: 1}, {Var: 1, Coef: 1}, {Var: 2, Coef: 1}}, lp.GE, 2); err != nil {
		t.Fatal(err)
	}
	res, err := Solve(context.Background(), p, isInt, Options{MaxNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.DeadlineHit {
		t.Errorf("node-limited search (status %v) marked DeadlineHit", res.Status)
	}
}

// Property: on random covering instances, branch-and-bound matches brute
// force exactly.
func TestMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6) // up to 7 binaries -> brute force 128 points
		m := 1 + rng.Intn(8)
		p, isInt, want := coveringInstance(rng.Int63(), n, m)
		res, err := Solve(context.Background(), p, isInt, Options{})
		if err != nil {
			return false
		}
		if math.IsInf(want, 1) {
			return res.Status == Infeasible
		}
		return res.Status == Optimal && almost(res.Objective, want, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: the reported bound never exceeds the objective for minimization.
func TestBoundBelowObjective(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		costs := make([]float64, n)
		for i := range costs {
			costs[i] = 1 + rng.Float64()
		}
		p, isInt := binProblem(costs)
		terms := make([]lp.Term, n)
		for i := 0; i < n; i++ {
			terms[i] = lp.Term{Var: i, Coef: 1}
		}
		if err := p.AddConstraint(terms, lp.GE, 1+float64(rng.Intn(n))); err != nil {
			return false
		}
		res, err := Solve(context.Background(), p, isInt, Options{})
		if err != nil || res.Status != Optimal {
			return false
		}
		return res.Bound <= res.Objective+1e-6 && res.Gap() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
