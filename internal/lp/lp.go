// Package lp implements a dense two-phase primal simplex solver for linear
// programs in the form
//
//	minimize    c.x
//	subject to  a_k.x (<=|=|>=) b_k      for each constraint k
//	            0 <= x_i <= ub_i         (ub optional, +Inf by default)
//
// It substitutes for the LP path of Gurobi 5.0 used by the paper: the
// power-minimization "LPQC" (eqs. 3.6-3.9) becomes a pure LP once the
// coverage assignment is fixed, and the branch-and-bound MILP solver in
// sagrelay/internal/milp solves its node relaxations here.
//
// Pivot selection uses Devex pricing (an inexpensive steepest-edge
// approximation) with a deterministic anti-cycling guard: a fixed-iteration
// stall detector switches the phase to Bland's rule, which provably
// terminates. All tie-breaks go to the lowest variable index, so solves are
// bit-reproducible across runs and worker counts. All arithmetic is dense
// float64 and solves are bounded by an iteration budget. Problem sizes in
// this repository are at most a few hundred variables and constraints per
// zone, well within dense-simplex territory.
//
// For branch-and-bound, Solver.WarmSolve re-solves a problem under changed
// variable bounds starting from a parent Basis: a bound-flipping dual
// simplex over the bounded-variable form restores primal feasibility in a
// few pivots, falling back to the cold two-phase path (typed ErrWarmStart,
// never a wrong answer) when the warm basis is unusable.
package lp

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
)

// Op is a constraint comparison operator.
type Op int

// Constraint operators. (Enums start at 1 so the zero value is invalid.)
const (
	LE Op = iota + 1 // a.x <= b
	GE               // a.x >= b
	EQ               // a.x == b
)

// String renders the operator.
func (o Op) String() string {
	switch o {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "=="
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Status is the outcome of a solve.
type Status int

// Solve outcomes. (Enums start at 1 so the zero value is invalid.)
const (
	Optimal Status = iota + 1
	Infeasible
	Unbounded
)

// String renders the status.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Term is one coefficient of a constraint row: Coef * x[Var].
type Term struct {
	Var  int
	Coef float64
}

type constraint struct {
	terms []Term
	op    Op
	rhs   float64
}

// Problem is a linear program under construction. The zero value is not
// usable; call NewProblem.
type Problem struct {
	obj    []float64 // objective coefficient per variable
	ub     []float64 // upper bound per variable (+Inf when absent)
	names  []string
	cons   []constraint
	maxIts int
	// rev counts edits to the matrix and the objective — everything a warm
	// refactorization reads — so a Solver never reuses a factorization it
	// parked before the problem changed. Bound edits leave it alone.
	rev uint64
}

// NewProblem returns an empty minimization problem.
func NewProblem() *Problem {
	return &Problem{maxIts: 0}
}

// SetMaxIterations caps simplex pivots per phase; 0 means the default
// (50000 + 50*(m+n)). ErrIterationLimit is returned when exceeded.
func (p *Problem) SetMaxIterations(n int) { p.maxIts = n }

// NumVariables returns the number of variables added so far.
func (p *Problem) NumVariables() int { return len(p.obj) }

// NumConstraints returns the number of constraints added so far.
func (p *Problem) NumConstraints() int { return len(p.cons) }

// AddVariable adds a variable x >= 0 with the given objective coefficient
// and returns its index. name is for diagnostics only.
func (p *Problem) AddVariable(name string, obj float64) int {
	p.obj = append(p.obj, obj)
	p.ub = append(p.ub, math.Inf(1))
	p.names = append(p.names, name)
	p.rev++
	return len(p.obj) - 1
}

// SetObjective replaces the objective coefficient of variable i.
func (p *Problem) SetObjective(i int, obj float64) error {
	if i < 0 || i >= len(p.obj) {
		return fmt.Errorf("lp: variable %d out of range", i)
	}
	p.obj[i] = obj
	p.rev++
	return nil
}

// SetUpperBound sets x_i <= ub (ub must be >= 0; +Inf clears the bound).
func (p *Problem) SetUpperBound(i int, ub float64) error {
	if i < 0 || i >= len(p.ub) {
		return fmt.Errorf("lp: variable %d out of range", i)
	}
	if ub < 0 {
		return fmt.Errorf("lp: negative upper bound %v for variable %d", ub, i)
	}
	p.ub[i] = ub
	return nil
}

// UpperBound returns the current upper bound of variable i (+Inf if unset).
func (p *Problem) UpperBound(i int) float64 {
	if i < 0 || i >= len(p.ub) {
		return math.Inf(1)
	}
	return p.ub[i]
}

// AddConstraint appends the constraint sum(terms) op rhs. Terms referencing
// the same variable are summed in input order and zero sums are dropped.
// Unknown variable indices are an error.
//
// The stored row is sorted by variable: constraint evaluation
// (CheckFeasible) sums terms in slice order, and floating-point addition
// order must not vary between identical problem builds.
func (p *Problem) AddConstraint(terms []Term, op Op, rhs float64) error {
	if op != LE && op != GE && op != EQ {
		return fmt.Errorf("lp: invalid operator %v", op)
	}
	for _, t := range terms {
		if t.Var < 0 || t.Var >= len(p.obj) {
			return fmt.Errorf("lp: constraint references unknown variable %d", t.Var)
		}
	}
	// A stable sort keeps each variable's terms in input order, so merging
	// adjacent runs adds them in the same order a per-variable accumulator
	// would, starting from +0.
	row := slices.Clone(terms)
	slices.SortStableFunc(row, func(a, b Term) int { return cmp.Compare(a.Var, b.Var) })
	k := 0
	for i := 0; i < len(row); {
		v, sum := row[i].Var, 0.0
		for ; i < len(row) && row[i].Var == v; i++ {
			sum += row[i].Coef
		}
		if sum != 0 {
			row[k] = Term{Var: v, Coef: sum}
			k++
		}
	}
	p.cons = append(p.cons, constraint{terms: row[:k], op: op, rhs: rhs})
	p.rev++
	return nil
}

// CheckFeasible evaluates every constraint and variable bound at the point
// x (length must match the variable count), with absolute tolerance tol on
// each row. It lets callers — notably branch-and-bound primal heuristics —
// test candidate integer points without a solve.
func (p *Problem) CheckFeasible(x []float64, tol float64) (bool, error) {
	if len(x) != len(p.obj) {
		return false, fmt.Errorf("lp: point has %d entries for %d variables", len(x), len(p.obj))
	}
	for i, xi := range x {
		if xi < -tol || xi > p.ub[i]+tol {
			return false, nil
		}
	}
	for _, c := range p.cons {
		lhs := 0.0
		for _, t := range c.terms {
			lhs += t.Coef * x[t.Var]
		}
		switch c.op {
		case LE:
			if lhs > c.rhs+tol {
				return false, nil
			}
		case GE:
			if lhs < c.rhs-tol {
				return false, nil
			}
		case EQ:
			if math.Abs(lhs-c.rhs) > tol {
				return false, nil
			}
		}
	}
	return true, nil
}

// Objective evaluates the objective c.x at the point x.
func (p *Problem) Objective(x []float64) (float64, error) {
	if len(x) != len(p.obj) {
		return 0, fmt.Errorf("lp: point has %d entries for %d variables", len(x), len(p.obj))
	}
	obj := 0.0
	for i, c := range p.obj {
		obj += c * x[i]
	}
	return obj, nil
}

// Solution is the result of a successful Solve with Status Optimal, or a
// diagnosis (Infeasible/Unbounded) with zeroed values.
//
// (Problem.Clone was deleted with the warm-start work: Solve never modifies
// the base problem, so branch-and-bound re-solves one shared Problem with
// per-node bound overrides and nothing cloned it any more.)
type Solution struct {
	Status    Status
	X         []float64
	Objective float64
	// Iterations is the total number of simplex pivots across both phases
	// (or dual pivots, for a warm-started solve).
	Iterations int
	// Basis is the optimal basis snapshot for warm-starting a re-solve
	// under changed bounds. Only (*Solver).WarmSolve populates it (on
	// Optimal solutions); plain Solve leaves it nil so non-tree callers pay
	// nothing.
	Basis *Basis
	// WarmStarted reports that the warm-started dual simplex path produced
	// this solution (false: the cold two-phase path, whether called
	// directly or as a fallback).
	WarmStarted bool
}

// ErrIterationLimit is returned when the pivot budget is exhausted; it
// indicates a degenerate or adversarial instance rather than a model error.
var ErrIterationLimit = errors.New("lp: simplex iteration limit exceeded")

// ErrNumerical is returned when a non-finite value (NaN or Inf) is found in
// the model inputs or appears in the tableau during pivoting. It turns a
// silent numerical breakdown — which would otherwise propagate NaN
// objectives into branch-and-bound bounds and poison pruning — into a typed,
// recoverable failure the degradation ladder can act on.
var ErrNumerical = errors.New("lp: non-finite value (numerical breakdown)")

// Solve runs two-phase simplex and returns the solution. Infeasible and
// unbounded problems are reported through Solution.Status with a nil error;
// the error return is reserved for resource exhaustion and internal faults.
//
// Each call uses a fresh Solver; callers that re-solve the same problem
// with varying bounds (branch-and-bound) should hold a Solver and call its
// Solve method to reuse the tableau memory.
func (p *Problem) Solve() (*Solution, error) {
	return NewSolver().Solve(p, nil, nil)
}

// SolveContext is Solve with cooperative cancellation; see
// (*Solver).SolveContext.
func (p *Problem) SolveContext(ctx context.Context) (*Solution, error) {
	return NewSolver().SolveContext(ctx, p, nil, nil)
}
