package milp

import (
	"context"
	"math"
	"testing"
	"testing/quick"
	"time"

	"sagrelay/internal/benchprob"
	"sagrelay/internal/lp"
)

// coveringInstance builds a random covering MILP and returns it with its
// brute-force optimum.
func coveringInstance(seed int64, n, m int) (*lp.Problem, []bool, float64) {
	p, isInt, costs, rowsets := benchprob.Covering(seed, n, m)
	best := math.Inf(1)
	for mask := 0; mask < 1<<n; mask++ {
		ok := true
		for _, rs := range rowsets {
			hit := false
			for _, v := range rs {
				if mask&(1<<v) != 0 {
					hit = true
					break
				}
			}
			if !hit {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		c := 0.0
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				c += costs[i]
			}
		}
		if c < best {
			best = c
		}
	}
	return p, isInt, best
}

// Every remaining way to run the search (cold, warm-started from the
// trivial all-ones cover, under a generous wall-clock limit) must find the
// same optimum.
func TestStrategiesAgree(t *testing.T) {
	f := func(seed int64) bool {
		p, isInt, want := coveringInstance(seed, 2+int(uint(seed)%5), 1+int(uint(seed)%7))
		all := make([]float64, p.NumVariables())
		for i := range all {
			all[i] = 1
		}
		allObj, err := p.Objective(all)
		if err != nil {
			return false
		}
		strategies := []Options{
			{},
			{Incumbent: all, IncumbentObj: allObj},
			{TimeLimit: time.Minute},
		}
		for _, opts := range strategies {
			res, err := Solve(context.Background(), p, isInt, opts)
			if err != nil {
				return false
			}
			if math.IsInf(want, 1) {
				if res.Status != Infeasible {
					return false
				}
				continue
			}
			if res.Status != Optimal || math.Abs(res.Objective-want) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestDfsStackOrdering(t *testing.T) {
	s := &dfsStack{}
	s.push(node{bound: 1})
	s.push(node{bound: 2})
	if n, ok := s.pop(); !ok || n.bound != 2 {
		t.Error("stack not LIFO")
	}
	if s.len() != 1 {
		t.Error("len wrong")
	}
	if _, ok := (&dfsStack{}).pop(); ok {
		t.Error("pop on empty stack succeeded")
	}
}

func TestPickBranchRules(t *testing.T) {
	x := []float64{0.1, 0.5, 0.9}
	isInt := []bool{true, true, true}
	if got := pickBranch(x, isInt); got != 1 {
		t.Errorf("most-fractional picked %d, want 1", got)
	}
	if got := pickBranch([]float64{1, 0, 2}, isInt); got != -1 {
		t.Errorf("integral point picked %d", got)
	}
}

func TestTryRounding(t *testing.T) {
	// min x0+x1 s.t. x0+x1 >= 1, binaries. Fractional point (0.5, 0.5):
	// nearest rounds to (1,1) (0.5 rounds up), feasible with obj 2 — any
	// feasible rounding is acceptable as an incumbent seed.
	p := lp.NewProblem()
	a := p.AddVariable("a", 1)
	b := p.AddVariable("b", 1)
	_ = p.SetUpperBound(a, 1)
	_ = p.SetUpperBound(b, 1)
	_ = p.AddConstraint([]lp.Term{{Var: a, Coef: 1}, {Var: b, Coef: 1}}, lp.GE, 1)
	x, obj, ok := tryRounding(p, []float64{0.5, 0.5}, []bool{true, true}, make([]float64, 2), make([]float64, 2))
	if !ok {
		t.Fatal("rounding failed on a trivially roundable point")
	}
	if feasible, _ := p.CheckFeasible(x, 1e-9); !feasible {
		t.Error("rounded point infeasible")
	}
	if obj < 1-1e-9 {
		t.Errorf("objective %v below LP bound", obj)
	}
	// An unroundable point: equality constraint x0 == 0.5.
	p2 := lp.NewProblem()
	c := p2.AddVariable("c", 1)
	_ = p2.SetUpperBound(c, 1)
	_ = p2.AddConstraint([]lp.Term{{Var: c, Coef: 1}}, lp.EQ, 0.5)
	if _, _, ok := tryRounding(p2, []float64{0.5}, []bool{true}, make([]float64, 1), make([]float64, 1)); ok {
		t.Error("rounding claimed success on an integer-infeasible model")
	}
}
