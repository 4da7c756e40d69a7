// Package upper implements the Upper-tier Connectivity Relay Allocation
// (UCRA) problem of the paper: place the minimum number of connectivity
// relay stations so every coverage relay has a multi-hop relay path with
// sufficient capacity to a base station, then minimize their power.
//
// It contains:
//   - MBMC, Multiple Base station Minimum Connectivity (Alg. 7): a minimum
//     spanning tree over the coverage relays and their nearest base
//     stations, steinerized with each edge's feasible distance
//   - MUST, the single-base-station baseline of [1] (DARP's upper tier),
//     which MBMC generalizes
//   - UCPO, Upper-tier Connectivity Power Optimization (Alg. 8)
package upper

import (
	"context"
	"fmt"
	"math"
	"time"

	"sagrelay/internal/geom"
	"sagrelay/internal/graph"
	"sagrelay/internal/lower"
	"sagrelay/internal/obs"
	"sagrelay/internal/scenario"
)

// ConnRelay is a placed connectivity relay station.
type ConnRelay struct {
	// Pos is the relay position on its tree edge.
	Pos geom.Point
	// Edge indexes the TreeEdge this relay subdivides.
	Edge int
}

// TreeEdge is one logical edge of the connectivity tree: a coverage relay
// linked to its parent (another coverage relay or a base station), possibly
// subdivided by connectivity relays.
type TreeEdge struct {
	// Child is the coverage relay index (into the lower-tier result) at the
	// child end of the edge.
	Child int
	// ParentCoverage is the parent coverage relay index, or -1 when the
	// parent is a base station.
	ParentCoverage int
	// ParentBS is the parent base station index, or -1 when the parent is a
	// coverage relay.
	ParentBS int
	// From and To are the physical endpoints (child and parent positions).
	From, To geom.Point
	// FeasDist is the feasible distance used to steinerize this edge: the
	// minimum feasible distance over the child's subtree (Section III-B).
	FeasDist float64
	// NumRelays is the number of connectivity relays placed on this edge:
	// ceil(len/FeasDist) - 1 (Alg. 7, Step 7).
	NumRelays int
}

// Length returns the physical edge length.
func (e *TreeEdge) Length() float64 { return e.From.Dist(e.To) }

// HopLength returns the per-hop distance after steinerization.
func (e *TreeEdge) HopLength() float64 {
	return e.Length() / float64(e.NumRelays+1)
}

// Result is a solved upper-tier connectivity plan.
type Result struct {
	// Method names the algorithm ("MBMC" or "MUST").
	Method string
	// Edges is the logical connectivity tree, one entry per coverage relay.
	Edges []TreeEdge
	// Relays are the placed connectivity relay stations.
	Relays []ConnRelay
	// Elapsed is the wall-clock solve time.
	Elapsed time.Duration
}

// NumRelays returns the number of placed connectivity relays.
func (r *Result) NumRelays() int { return len(r.Relays) }

// MBMC implements Algorithm 7, Multiple Base station Minimum Connectivity:
//
//  1. Build the complete graph over the coverage relays with hop-count
//     weights w1 = ceil(len/dmin) - 1, dmin the minimum subscriber feasible
//     distance (Steps 1-2, 4).
//  2. Connect each coverage relay to its nearest base station (Step 3); all
//     base stations act as a single tree root.
//  3. Take a minimum spanning tree rooted at the base stations (Step 5).
//  4. Propagate feasible distances: a relay's edge to its parent must use
//     hops no longer than the minimum feasible distance in its subtree
//     (Step 6; "equals the minimum feasible distance of all its children").
//  5. Steinerize each tree edge with w2 = ceil(len/d) - 1 evenly spaced
//     connectivity relays (Step 7).
//
// Tree construction is fast (an MST over the coverage relays), so a single
// entry check keeps the context chain unbroken through the pipeline without
// per-edge cost.
func MBMC(ctx context.Context, sc *scenario.Scenario, cover *lower.Result) (*Result, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("upper: MBMC: %w", err)
		}
	}
	return buildTree(ctx, sc, cover, -1, "MBMC")
}

// MUST is the single-base-station baseline of [1]: identical tree
// construction, but every coverage relay may only attach to the given base
// station. MBMC reduces to MUST when one base station exists. Cancellation
// behaves as in MBMC.
func MUST(ctx context.Context, sc *scenario.Scenario, cover *lower.Result, bsIndex int) (*Result, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("upper: MUST: %w", err)
		}
	}
	if bsIndex < 0 || bsIndex >= len(sc.BaseStations) {
		return nil, fmt.Errorf("upper: MUST: base station %d out of range [0,%d)", bsIndex, len(sc.BaseStations))
	}
	return buildTree(ctx, sc, cover, bsIndex, "MUST")
}

// buildTree is the shared MBMC/MUST construction; onlyBS restricts base
// station attachment when >= 0.
func buildTree(ctx context.Context, sc *scenario.Scenario, cover *lower.Result, onlyBS int, method string) (*Result, error) {
	start := time.Now()
	var span *obs.Span
	if ctx != nil {
		_, span = obs.StartSpan(ctx, "tree_build")
		defer span.End()
	}
	if err := cover.Verify(sc, false); err != nil {
		return nil, fmt.Errorf("upper: %s needs a feasible coverage result: %w", method, err)
	}
	m := len(cover.Relays)
	if m == 0 {
		return &Result{Method: method, Elapsed: time.Since(start)}, nil
	}
	// dmin: the minimum feasible distance over all subscribers (Step 2).
	dmin := math.Inf(1)
	for _, s := range sc.Subscribers {
		if s.DistReq < dmin {
			dmin = s.DistReq
		}
	}
	if dmin <= 0 || math.IsInf(dmin, 1) {
		return nil, fmt.Errorf("upper: %s: invalid minimum feasible distance %v", method, dmin)
	}
	w1 := func(len float64) float64 {
		w := math.Ceil(len/dmin) - 1
		if w < 0 {
			w = 0
		}
		return w
	}
	// Vertices: coverage relays 0..m-1, virtual root m (all base stations).
	// The graph is complete, so every vertex has degree m.
	g := graph.NewReserved(m+1, m)
	root := m
	nearestBS := make([]int, m)
	for i, relay := range cover.Relays {
		// Step 3: nearest base station (or the fixed one for MUST).
		best, bestD := -1, math.Inf(1)
		for b, bs := range sc.BaseStations {
			if onlyBS >= 0 && b != onlyBS {
				continue
			}
			if d := relay.Pos.Dist(bs.Pos); d < bestD {
				best, bestD = b, d
			}
		}
		nearestBS[i] = best
		if err := g.AddEdge(i, root, w1(bestD)); err != nil {
			return nil, fmt.Errorf("upper: %s: %w", method, err)
		}
		for k := i + 1; k < m; k++ {
			if err := g.AddEdge(i, k, w1(relay.Pos.Dist(cover.Relays[k].Pos))); err != nil {
				return nil, fmt.Errorf("upper: %s: %w", method, err)
			}
		}
	}
	mst, err := g.PrimMST(root)
	if err != nil {
		return nil, fmt.Errorf("upper: %s: %w", method, err)
	}
	// Step 6: feasible distances. Own feasible distance of a coverage relay
	// is the minimum distance requirement among its subscribers; the edge
	// to the parent uses the minimum over the whole subtree.
	ownFeas := make([]float64, m)
	for i, relay := range cover.Relays {
		f := math.Inf(1)
		for _, s := range relay.Covers {
			if d := sc.Subscribers[s].DistReq; d < f {
				f = d
			}
		}
		if math.IsInf(f, 1) {
			f = dmin // a relay with no subscribers falls back to dmin
		}
		ownFeas[i] = f
	}
	subtreeFeas := make([]float64, m)
	children := mst.Children()
	var computeFeas func(v int) float64
	computeFeas = func(v int) float64 {
		f := ownFeas[v]
		for _, c := range children[v] {
			if cf := computeFeas(c); cf < f {
				f = cf
			}
		}
		subtreeFeas[v] = f
		return f
	}
	for _, c := range children[root] {
		computeFeas(c)
	}
	// Step 7: steinerize every tree edge.
	res := &Result{Method: method}
	for i := 0; i < m; i++ {
		if !mst.InTree(i) {
			return nil, fmt.Errorf("upper: %s: coverage relay %d unreachable", method, i)
		}
		parent := mst.Parent[i]
		e := TreeEdge{
			Child:          i,
			ParentCoverage: -1,
			ParentBS:       -1,
			From:           cover.Relays[i].Pos,
			FeasDist:       subtreeFeas[i],
		}
		if parent == root {
			e.ParentBS = nearestBS[i]
			e.To = sc.BaseStations[nearestBS[i]].Pos
		} else {
			e.ParentCoverage = parent
			e.To = cover.Relays[parent].Pos
		}
		n := int(math.Ceil(e.Length()/e.FeasDist)) - 1
		if n < 0 {
			n = 0
		}
		e.NumRelays = n
		edgeIdx := len(res.Edges)
		for _, p := range geom.Seg(e.From, e.To).Subdivide(n) {
			res.Relays = append(res.Relays, ConnRelay{Pos: p, Edge: edgeIdx})
		}
		res.Edges = append(res.Edges, e)
	}
	span.SetInt("edges", int64(len(res.Edges)))
	span.SetInt("relays", int64(len(res.Relays)))
	res.Elapsed = time.Since(start)
	return res, nil
}

// Verify checks structural invariants of a connectivity plan: every
// coverage relay has exactly one edge, every hop is within the edge's
// feasible distance, and relay counts are consistent.
func (r *Result) Verify(sc *scenario.Scenario, cover *lower.Result) error {
	if len(r.Edges) != len(cover.Relays) {
		return fmt.Errorf("upper: %d edges for %d coverage relays", len(r.Edges), len(cover.Relays))
	}
	perEdge := make([]int, len(r.Edges))
	for _, cr := range r.Relays {
		if cr.Edge < 0 || cr.Edge >= len(r.Edges) {
			return fmt.Errorf("upper: relay references unknown edge %d", cr.Edge)
		}
		perEdge[cr.Edge]++
	}
	for i, e := range r.Edges {
		if perEdge[i] != e.NumRelays {
			return fmt.Errorf("upper: edge %d has %d relays, recorded %d", i, perEdge[i], e.NumRelays)
		}
		if e.ParentBS < 0 && e.ParentCoverage < 0 {
			return fmt.Errorf("upper: edge %d has no parent", i)
		}
		if e.ParentBS >= len(sc.BaseStations) || e.ParentCoverage >= len(cover.Relays) {
			return fmt.Errorf("upper: edge %d parent out of range", i)
		}
		if hop := e.HopLength(); hop > e.FeasDist+1e-6 && e.Length() > 1e-9 {
			return fmt.Errorf("upper: edge %d hop length %.3f exceeds feasible distance %.3f", i, hop, e.FeasDist)
		}
	}
	// The logical tree must reach a base station from every coverage relay.
	for i := range r.Edges {
		seen := make(map[int]bool)
		v := i
		for {
			if r.Edges[v].ParentBS >= 0 {
				break
			}
			next := r.Edges[v].ParentCoverage
			if seen[next] {
				return fmt.Errorf("upper: cycle in connectivity tree at relay %d", next)
			}
			seen[next] = true
			v = next
		}
	}
	return nil
}
