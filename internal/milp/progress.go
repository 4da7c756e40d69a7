package milp

import (
	"context"
	"math"
)

// Progress event kinds. A consumer that only cares about convergence can
// filter on KindIncumbent; KindSample events fire on a fixed node cadence
// so even a solve that never improves its incumbent stays visibly alive.
const (
	// KindSample is the periodic heartbeat, emitted every progressNodes
	// explored nodes.
	KindSample = "sample"
	// KindIncumbent is emitted whenever the search adopts a better
	// integer-feasible point (from a node relaxation or the rounding
	// heuristic).
	KindIncumbent = "incumbent"
	// KindFinal is emitted exactly once per successful solve, after the
	// search has settled Result.Status. Error returns (cancellation, fault
	// injection, numerical breakdown) emit nothing final. internal/lower
	// also emits one, with a zero Status and zero counters, for each zone
	// it solved without a search (SAMC and the hitting-set covers).
	KindFinal = "final"
	// KindZoneReused is emitted by callers that satisfy a whole sub-solve
	// from a cache instead of running the search (see internal/lower's
	// zone-level reuse); Nodes/Pivots are zero and Final is true.
	KindZoneReused = "zone_reused"
)

// progressNodes is the sampling period: one KindSample event per this many
// explored nodes. Incumbent updates are always emitted regardless of the
// cadence.
const progressNodes = 64

// Progress is a point-in-time observation of a branch-and-bound search.
// Values are snapshots passed by value to the ProgressFunc; the callback
// must not retain pointers into the solver (there are none to retain).
//
// Zone and Subscribers are -1/0 at this layer; internal/lower stamps them
// when fanning a solve across zone partitions so per-zone rows can be
// reconstructed downstream.
type Progress struct {
	Kind        string
	Zone        int // zone index stamped by lower; -1 when not zone-scoped
	Subscribers int // zone population stamped by lower; 0 when unknown

	Nodes      int
	Pivots     int
	WarmSolves int
	ColdSolves int

	// HasIncumbent reports whether an integer-feasible point is in hand;
	// Incumbent/Gap are meaningful only when it is set.
	HasIncumbent bool
	Incumbent    float64
	Bound        float64
	Gap          float64

	// Status is set only on Final events, and is zero on the final event of
	// a zone solved without a search.
	Status Status
	Final  bool
}

// ProgressFunc receives progress events. It is called synchronously from
// the solve loop (and, via internal/lower, concurrently from multiple zone
// workers), so it must be fast and safe for concurrent use.
type ProgressFunc func(Progress)

type progressKey struct{}

// WithProgress returns a context that arms branch-and-bound progress
// reporting: every Solve under the returned context calls fn with sampled
// search state. Like obs.StartSpan, the hook is free when disarmed — Solve
// performs a single context lookup and no allocations when no ProgressFunc
// is installed.
func WithProgress(ctx context.Context, fn ProgressFunc) context.Context {
	if fn == nil {
		return ctx
	}
	return context.WithValue(ctx, progressKey{}, fn)
}

// ProgressFrom returns the ProgressFunc armed on ctx, or nil. Exposed so
// intermediate layers (internal/lower) can wrap the installed callback to
// stamp zone identity before re-arming it on the per-zone context.
func ProgressFrom(ctx context.Context) ProgressFunc {
	fn, _ := ctx.Value(progressKey{}).(ProgressFunc)
	return fn
}

// emitProgress snapshots res into a Progress event and delivers it. Free
// function with value arguments so the disarmed path in solve() stays
// allocation-free (no closure is ever formed).
func emitProgress(fn ProgressFunc, kind string, res *Result, final bool) {
	p := Progress{
		Kind:       kind,
		Zone:       -1,
		Nodes:      res.Nodes,
		Pivots:     res.Pivots,
		WarmSolves: res.WarmSolves,
		ColdSolves: res.ColdSolves,
		Bound:      res.Bound,
		Final:      final,
	}
	if res.X != nil && !math.IsInf(res.Objective, 1) {
		p.HasIncumbent = true
		p.Incumbent = res.Objective
		p.Gap = res.Gap()
		// A seed incumbent observed before the root relaxation prices a
		// bound yields an infinite gap; clamp to 100% so consumers (and
		// JSON encoders) never see a non-finite value.
		if math.IsNaN(p.Gap) || math.IsInf(p.Gap, 0) {
			p.Gap = 1
		}
	}
	if math.IsInf(p.Bound, 0) || math.IsNaN(p.Bound) {
		p.Bound = 0
	}
	if final {
		p.Status = res.Status
	}
	fn(p)
}
