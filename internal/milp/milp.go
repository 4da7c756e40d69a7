// Package milp implements a branch-and-bound mixed-integer linear
// programming solver over the simplex relaxations of sagrelay/internal/lp.
//
// Together with the big-M linearization in sagrelay/internal/lower, this is
// the substitute for Gurobi 5.0's integer path: the paper's ILPQC coverage
// formulation (eqs. 3.1-3.5) has binary placement/assignment variables and a
// quadratic SNR constraint whose products of binaries linearize exactly, so
// the solved model is identical — only wall-clock behaviour differs, and the
// paper reports that behaviour (exponential growth; Figs. 4b, 5b) rather
// than relying on it.
package milp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"sagrelay/internal/fault"
	"sagrelay/internal/lp"
	"sagrelay/internal/obs"
)

// bbNodesPerSolve is the process-wide distribution of branch-and-bound
// nodes explored per Solve call.
var bbNodesPerSolve = obs.Default.NewHistogram(
	"sag_bb_nodes_per_solve",
	"Branch-and-bound nodes explored per MILP solve.",
	obs.CountBuckets,
)

// totalNodes counts branch-and-bound nodes explored process-wide, across
// all solves and goroutines. It feeds expvar-style observability (the
// serve subsystem's /metrics endpoint) without threading counters through
// every caller.
var totalNodes atomic.Int64

// siteNode is the fault-injection point checked before each
// branch-and-bound node expansion; one atomic load when injection is off.
var siteNode = fault.Register("milp.node")

// TotalNodes returns the number of branch-and-bound nodes explored by this
// process so far.
func TotalNodes() int64 { return totalNodes.Load() }

// Status is the outcome of a MILP solve.
type Status int

// Solve outcomes. (Enums start at 1 so the zero value is invalid.)
const (
	// Optimal means the search proved the incumbent optimal.
	Optimal Status = iota + 1
	// Feasible means a limit stopped the search with an incumbent in hand.
	Feasible
	// Infeasible means no integer-feasible point exists.
	Infeasible
	// Unbounded means the relaxation is unbounded below.
	Unbounded
	// Limit means a limit stopped the search before any incumbent was found.
	Limit
)

// String renders the status.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Feasible:
		return "feasible"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case Limit:
		return "limit"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// intTol is the integrality tolerance: a variable within intTol of an
// integer counts as integral.
const intTol = 1e-6

// Options tune the branch-and-bound search. The search itself is fixed:
// depth-first, branching on the most fractional variable, with the
// rounding heuristic tried at every fractional node.
type Options struct {
	// MaxNodes caps explored nodes (0 = default 200000).
	MaxNodes int
	// TimeLimit caps wall-clock search time (0 = none).
	TimeLimit time.Duration
	// Incumbent, when non-nil, warm-starts the search with a known
	// integer-feasible point (e.g. from a greedy heuristic); its objective
	// prunes the tree from the first node.
	Incumbent []float64
	// IncumbentObj is the objective of Incumbent.
	IncumbentObj float64
}

// Result is the outcome of a MILP solve.
type Result struct {
	Status    Status
	X         []float64
	Objective float64
	// Bound is the best proven lower bound on the optimum (minimization).
	Bound float64
	// Nodes is the number of branch-and-bound nodes explored.
	Nodes int
	// Pivots is the total simplex pivot count across all node relaxations.
	Pivots int
	// WarmSolves counts node relaxations completed by the warm-started dual
	// simplex; ColdSolves counts the rest (the root, warm-start fallbacks,
	// and nodes without a usable parent basis).
	WarmSolves int
	ColdSolves int
	// DeadlineHit reports that the wall-clock Options.TimeLimit stopped the
	// search. Such a result is load-dependent: how many nodes fit inside a
	// wall-clock budget varies with machine speed and load, so the incumbent
	// (Status Feasible) or the absence of one (Status Limit) may differ
	// between runs. A MaxNodes-limited search, by contrast, is deterministic
	// and leaves DeadlineHit false. Callers with a reproducibility contract
	// must treat DeadlineHit results as approximate (see internal/lower's
	// Truncated flag and the solve service's no-cache rule).
	DeadlineHit bool
}

// Gap returns the relative optimality gap |obj-bound|/max(1,|obj|), or 0
// when the result is proven optimal.
func (r *Result) Gap() float64 {
	if r.Status == Optimal {
		return 0
	}
	return math.Abs(r.Objective-r.Bound) / math.Max(1, math.Abs(r.Objective))
}

// ErrNoIntegers reports a Solve call with no integer variables; use the lp
// package directly for pure LPs.
var ErrNoIntegers = errors.New("milp: no integer variables marked")

type node struct {
	lower map[int]float64 // variable -> tightened lower bound
	upper map[int]float64 // variable -> tightened upper bound
	bound float64         // parent LP objective (lower bound for the subtree)
	// basis is the parent relaxation's optimal basis, warm-starting this
	// node's solve via the dual simplex. Memory trade-off: one byte per LP
	// column (variables + constraints), shared by pointer between siblings
	// — a few hundred bytes per open node on per-zone ILPQC instances,
	// dwarfed by the node's own bound maps. nil (root) means a cold solve.
	basis *lp.Basis
}

// Solve minimizes the problem with the variables marked in isInt restricted
// to integer values. The base problem is not modified. Infeasible and
// unbounded models are reported via Result.Status with a nil error.
//
// Cancellation is cooperative: the search checks ctx before expanding each
// node and the node relaxations poll it between simplex pivots, so a
// cancelled context aborts the solve promptly even mid-relaxation.
// Cancellation is reported as an error wrapping ctx.Err() (errors.Is
// against context.Canceled / context.DeadlineExceeded works); it is
// distinct from Options.TimeLimit, which stops the search but still
// returns the incumbent via Result.Status, flagging the load-dependent
// truncation in Result.DeadlineHit.
//
// Each call records a "bnb" span (nodes, pivots, status, gap) when ctx
// carries a trace, and observes the node count on the process-wide
// histogram registry.
func Solve(ctx context.Context, base *lp.Problem, isInt []bool, opts Options) (*Result, error) {
	ctx, span := obs.StartSpan(ctx, "bnb")
	res, err := solve(ctx, base, isInt, opts)
	if err != nil {
		span.SetAttr("error", err.Error())
		span.End()
		return res, err
	}
	span.SetInt("nodes", int64(res.Nodes))
	span.SetInt("pivots", int64(res.Pivots))
	span.SetInt("warm_solves", int64(res.WarmSolves))
	span.SetInt("cold_solves", int64(res.ColdSolves))
	span.SetAttr("status", res.Status.String())
	span.SetFloat("gap", res.Gap())
	if res.DeadlineHit {
		span.SetBool("deadline_hit", true)
	}
	span.End()
	bbNodesPerSolve.Observe(float64(res.Nodes))
	return res, nil
}

func solve(ctx context.Context, base *lp.Problem, isInt []bool, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if base == nil {
		return nil, errors.New("milp: nil problem")
	}
	if len(isInt) != base.NumVariables() {
		return nil, fmt.Errorf("milp: isInt length %d != %d variables", len(isInt), base.NumVariables())
	}
	anyInt := false
	for _, b := range isInt {
		if b {
			anyInt = true
			break
		}
	}
	if !anyInt {
		return nil, ErrNoIntegers
	}
	if opts.MaxNodes <= 0 {
		opts.MaxNodes = 200000
	}

	// Armed at most once per solve; nil when no ProgressFunc is installed,
	// in which case every emit below is a single pointer comparison.
	progress := ProgressFrom(ctx)

	var deadline time.Time
	if opts.TimeLimit > 0 {
		deadline = time.Now().Add(opts.TimeLimit)
	}

	res := &Result{Status: Limit, Objective: math.Inf(1), Bound: math.Inf(-1)}
	if opts.Incumbent != nil {
		res.X = append([]float64(nil), opts.Incumbent...)
		res.Objective = opts.IncumbentObj
		res.Status = Feasible
	}

	front := &dfsStack{}
	front.push(node{bound: math.Inf(-1)})
	rootSolved := false

	// One Solver serves every node: the base problem is never cloned — each
	// node's tightened bounds are passed straight into the solve, and the
	// dense tableau memory is recycled across the whole search tree.
	solver := lp.NewSolver()
	// Rounding-heuristic scratch, likewise reused across nodes.
	numVars := base.NumVariables()
	roundNearest := make([]float64, numVars)
	roundUp := make([]float64, numVars)

	for front.len() > 0 {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("milp: cancelled after %d nodes: %w", res.Nodes, err)
		}
		if err := fault.Check(siteNode); err != nil {
			return nil, fmt.Errorf("milp: after %d nodes: %w", res.Nodes, err)
		}
		if res.Nodes >= opts.MaxNodes {
			break
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			res.DeadlineHit = true
			break
		}
		nd, _ := front.pop()
		if nd.bound >= res.Objective-1e-9 {
			continue // parent bound already dominated
		}
		res.Nodes++
		totalNodes.Add(1)

		sol, err := solver.WarmSolve(ctx, base, nd.lower, nd.upper, nd.basis)
		if sol != nil {
			res.Pivots += sol.Iterations
			if sol.WarmStarted {
				res.WarmSolves++
			} else {
				res.ColdSolves++
			}
		}
		if progress != nil && res.Nodes%progressNodes == 0 {
			emitProgress(progress, KindSample, res, false)
		}
		if err != nil {
			if errors.Is(err, lp.ErrIterationLimit) {
				// Treat a stalled relaxation as unexplorable; skip the node.
				continue
			}
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return nil, fmt.Errorf("milp: cancelled after %d nodes: %w", res.Nodes, err)
			}
			return nil, fmt.Errorf("milp: node relaxation: %w", err)
		}
		if !rootSolved {
			rootSolved = true
			switch sol.Status {
			case lp.Infeasible:
				if res.X == nil {
					res.Status = Infeasible
					if progress != nil {
						emitProgress(progress, KindFinal, res, true)
					}
					return res, nil
				}
			case lp.Unbounded:
				res.Status = Unbounded
				if progress != nil {
					emitProgress(progress, KindFinal, res, true)
				}
				return res, nil
			case lp.Optimal:
				res.Bound = sol.Objective
			}
		}
		if sol.Status != lp.Optimal {
			continue // infeasible subtree
		}
		if math.IsNaN(sol.Objective) {
			// Defensive: a NaN bound would poison every pruning comparison
			// below (NaN comparisons are all false). The relaxation layer
			// reports breakdowns as lp.ErrNumerical, so this should be
			// unreachable — fail loudly rather than search on garbage.
			return nil, fmt.Errorf("milp: node relaxation: %w", lp.ErrNumerical)
		}
		if sol.Objective >= res.Objective-1e-9 {
			continue // bound prune
		}
		branchVar := pickBranch(sol.X, isInt)
		if branchVar < 0 {
			// Integer feasible: new incumbent. sol.X is freshly allocated per
			// solve, so it can be adopted without copying.
			res.X = sol.X
			res.Objective = sol.Objective
			res.Status = Feasible
			if progress != nil {
				emitProgress(progress, KindIncumbent, res, false)
			}
			continue
		}
		if x, obj, ok := tryRounding(base, sol.X, isInt, roundNearest, roundUp); ok && obj < res.Objective-1e-9 {
			res.X = x
			res.Objective = obj
			res.Status = Feasible
			if progress != nil {
				emitProgress(progress, KindIncumbent, res, false)
			}
		}
		v := sol.X[branchVar]
		floorN := nodeWith(nd, branchVar, math.Floor(v), false, sol.Objective)
		ceilN := nodeWith(nd, branchVar, math.Ceil(v), true, sol.Objective)
		// Both children warm-start from this node's optimal basis, which
		// stays dual feasible under the one tightened bound. The Basis is
		// immutable, so sharing the pointer costs nothing extra.
		floorN.basis = sol.Basis
		ceilN.basis = sol.Basis
		// Push the floor branch first so DFS pops the ceil ("place it")
		// branch first — covering models find incumbents faster that way.
		front.push(floorN)
		front.push(ceilN)
	}

	if res.X != nil {
		// The loop only breaks with nodes still queued; an empty frontier
		// means the search space was exhausted and the incumbent is optimal.
		if front.len() == 0 {
			res.Status = Optimal
			res.Bound = res.Objective
		}
		if progress != nil {
			emitProgress(progress, KindFinal, res, true)
		}
		return res, nil
	}
	if front.len() == 0 {
		res.Status = Infeasible
	}
	if progress != nil {
		emitProgress(progress, KindFinal, res, true)
	}
	return res, nil
}

// tryRounding attempts to convert a fractional relaxation point into an
// integer-feasible incumbent: first nearest-integer rounding, then
// rounding every fractional integer variable up (the natural repair for
// covering constraints). Continuous variables are kept as-is. nearest and
// up are caller-owned scratch buffers (len(x)) reused across nodes; on
// success the returned point is a fresh copy the caller may keep.
func tryRounding(base *lp.Problem, x []float64, isInt []bool, nearest, up []float64) ([]float64, float64, bool) {
	copy(nearest, x)
	copy(up, x)
	for i, xi := range x {
		if !isInt[i] {
			continue
		}
		nearest[i] = math.Round(xi)
		up[i] = math.Ceil(xi)
	}
	for _, cand := range [2][]float64{nearest, up} {
		ok, err := base.CheckFeasible(cand, 1e-6)
		if err != nil || !ok {
			continue
		}
		obj, err := base.Objective(cand)
		if err != nil {
			continue
		}
		return append([]float64(nil), cand...), obj, true
	}
	return nil, 0, false
}

// dfsStack is the LIFO stack of open nodes.
type dfsStack struct{ nodes []node }

func (s *dfsStack) push(n node) { s.nodes = append(s.nodes, n) }

func (s *dfsStack) pop() (node, bool) {
	if len(s.nodes) == 0 {
		return node{}, false
	}
	n := s.nodes[len(s.nodes)-1]
	s.nodes = s.nodes[:len(s.nodes)-1]
	return n, true
}

func (s *dfsStack) len() int { return len(s.nodes) }

// pickBranch returns the most fractional integer variable (the one farthest
// from its nearest integer), or -1 when all integer variables are integral
// within intTol.
func pickBranch(x []float64, isInt []bool) int {
	best := -1
	bestFrac := intTol
	for i, xi := range x {
		if !isInt[i] {
			continue
		}
		frac := math.Abs(xi - math.Round(xi))
		if frac > bestFrac {
			best, bestFrac = i, frac
		}
	}
	return best
}

// nodeWith derives a child node from parent with one bound tightened.
func nodeWith(parent node, v int, bound float64, isLower bool, parentObj float64) node {
	child := node{
		lower: copyBounds(parent.lower),
		upper: copyBounds(parent.upper),
		bound: parentObj,
	}
	if isLower {
		if cur, ok := child.lower[v]; !ok || bound > cur {
			child.lower[v] = bound
		}
	} else {
		if cur, ok := child.upper[v]; !ok || bound < cur {
			child.upper[v] = bound
		}
	}
	return child
}

func copyBounds(m map[int]float64) map[int]float64 {
	c := make(map[int]float64, len(m)+1)
	for k, v := range m {
		c[k] = v
	}
	return c
}
