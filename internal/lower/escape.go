package lower

import (
	"fmt"

	"sagrelay/internal/geom"
	"sagrelay/internal/graph"
	"sagrelay/internal/hitting"
	"sagrelay/internal/scenario"
)

// hittingEscape places one zone's relays the way SAMC and the hitting-set
// covers share: a minimum hitting set over the zone subscribers' feasible
// circles, with their intersection points and centers as candidates, then
// Coverage Link Escape (Alg. 3) over the chosen points. demand 1 runs the
// PTAS under hopts; a larger demand asks for a demand-fold multi-cover. It
// also returns the chosen points and the hitting-set solution.
func hittingEscape(sc *scenario.Scenario, zone []int, demand int, hopts hitting.Options) ([]Relay, []geom.Point, *hitting.Solution, error) {
	disks := make([]geom.Circle, len(zone))
	for i, s := range zone {
		disks[i] = sc.Subscribers[s].Circle()
	}
	inst := &hitting.Instance{
		Disks:      disks,
		Candidates: geom.IntersectionCandidates(disks),
		Tol:        coverTol,
	}
	var sol *hitting.Solution
	var err error
	if demand > 1 {
		sol, err = inst.SolveMultiCover(demand)
	} else {
		sol, err = inst.Solve(hopts)
	}
	if err != nil {
		return nil, nil, nil, err
	}
	points := make([]geom.Point, len(sol.Chosen))
	for i, c := range sol.Chosen {
		points[i] = inst.Candidates[c]
	}
	relays, err := CoverageLinkEscape(sc, zone, points)
	if err != nil {
		return nil, nil, nil, err
	}
	return relays, points, sol, nil
}

// CoverageLinkEscape implements Algorithm 3: given a zone's subscribers and
// the points of a minimum hitting set, it assigns every subscriber to
// exactly one covering point, concentrating subscribers on the
// highest-degree points first so that the remaining points keep as few
// subscribers as possible — maximizing one-on-one coverage, which gives RS
// Sliding Movement the most freedom (Section III-A.1).
//
// zone lists subscriber indices into sc.Subscribers; points are the chosen
// candidate positions. The returned relays carry their assigned subscriber
// indices; points that end up with no assigned subscriber are dropped
// (their disks are all covered by other chosen points, so removing them
// preserves coverage and strictly reduces interference).
func CoverageLinkEscape(sc *scenario.Scenario, zone []int, points []geom.Point) ([]Relay, error) {
	if len(zone) == 0 {
		return nil, nil
	}
	if len(points) == 0 {
		return nil, fmt.Errorf("lower: link escape: no points for a non-empty zone")
	}
	// Steps 1-2: bipartite graph, side A subscribers, side B points; edge
	// when the point lies in or on the subscriber's feasible circle.
	g := graph.NewBipartite(len(zone), len(points))
	for a, s := range zone {
		c := sc.Subscribers[s].Circle()
		covered := false
		for b, p := range points {
			if c.Contains(p, coverTol) {
				if err := g.AddEdge(a, b); err != nil {
					return nil, fmt.Errorf("lower: link escape: %w", err)
				}
				covered = true
			}
		}
		if !covered {
			return nil, fmt.Errorf("lower: link escape: subscriber %d not covered by any point", s)
		}
	}
	// Steps 3-5: process points from the maximum degree nmax down to 1.
	// Marking a point assigns its currently-unassigned subscribers to it;
	// those subscribers' other edges are deleted.
	nmax := g.MaxDegB()
	assignedTo := make([]int, len(zone)) // a -> b
	for i := range assignedTo {
		assignedTo[i] = -1
	}
	markedB := make([]bool, len(points))
	for n := nmax; n >= 1; n-- {
		for b := 0; b < len(points); b++ {
			if markedB[b] || g.DegB(b) != n {
				continue
			}
			markedB[b] = true
			for _, a := range g.AsOfB(b) {
				assignedTo[a] = b
				// Delete the subscriber's other (unmarked) edges.
				for _, other := range g.BsOfA(a) {
					if other != b {
						g.RemoveEdge(a, other)
					}
				}
			}
		}
	}
	// Collect assignments per point, dropping unused points.
	covers := make(map[int][]int, len(points))
	for a, b := range assignedTo {
		if b == -1 {
			return nil, fmt.Errorf("lower: link escape: subscriber %d left unassigned", zone[a])
		}
		covers[b] = append(covers[b], zone[a])
	}
	relays := make([]Relay, 0, len(covers))
	for b := 0; b < len(points); b++ {
		if ss := covers[b]; len(ss) > 0 {
			relays = append(relays, Relay{Pos: points[b], Covers: ss})
		}
	}
	return relays, nil
}

// coverTol is the boundary tolerance for coverage membership: candidate
// constructions (IAC intersections, one-on-one co-location) place points
// exactly on circle boundaries.
const coverTol = 1e-7
