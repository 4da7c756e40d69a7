package lower

import (
	"cmp"
	"fmt"
	"slices"

	"sagrelay/internal/graph"
	"sagrelay/internal/scenario"
)

// ZonePartition implements Algorithm 2: it partitions the subscribers into
// zones such that stations in different zones are far enough apart that
// their mutual interference is at most NMax and can be ignored.
//
// Two subscribers s_i, s_j are interference-coupled when
//
//	d_eff = min(dist(s_i,s_j) - d_i, dist(s_i,s_j) - d_j) <= dmax,
//
// where dmax satisfies PMax*G*dmax^(-alpha) = NMax (Alg. 2, Step 1): a relay
// serving s_i can sit up to d_i towards s_j, so d_eff bounds the relay-to-
// subscriber gap from below. Zones are the connected components of the
// resulting graph, returned as sorted subscriber-index groups.
func ZonePartition(sc *scenario.Scenario) ([][]int, error) {
	if err := sc.Validate(); err != nil {
		return nil, fmt.Errorf("lower: zone partition: %w", err)
	}
	dmax, err := sc.MaxNoiseDistance()
	if err != nil {
		return nil, fmt.Errorf("lower: zone partition: %w", err)
	}
	n := sc.NumSS()
	g := graph.New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			si, sj := sc.Subscribers[i], sc.Subscribers[j]
			dist := si.Pos.Dist(sj.Pos)
			deff := dist - si.DistReq
			if other := dist - sj.DistReq; other < deff {
				deff = other
			}
			if deff <= dmax {
				if err := g.AddEdge(i, j, dist); err != nil {
					return nil, fmt.Errorf("lower: zone partition: %w", err)
				}
			}
		}
	}
	return g.ConnectedComponents(), nil
}

// SplitLargeZones subdivides zones larger than maxSS by recursive spatial
// bisection (split across the longer bounding-box axis at the median
// subscriber). The ILP formulations use it to keep per-zone models within
// the homegrown branch-and-bound's reach — the same tractability dial the
// paper turns by limiting field sizes and grid resolution for Gurobi
// (Section IV-A). SAMC does not need it. maxSS <= 0 returns zones
// unchanged.
func SplitLargeZones(sc *scenario.Scenario, zones [][]int, maxSS int) [][]int {
	if maxSS <= 0 {
		return zones
	}
	var out [][]int
	var split func(group []int)
	split = func(group []int) {
		if len(group) <= maxSS {
			out = append(out, group)
			return
		}
		// Choose the axis with the larger spread.
		minX, maxX := sc.Subscribers[group[0]].Pos.X, sc.Subscribers[group[0]].Pos.X
		minY, maxY := sc.Subscribers[group[0]].Pos.Y, sc.Subscribers[group[0]].Pos.Y
		for _, s := range group[1:] {
			p := sc.Subscribers[s].Pos
			if p.X < minX {
				minX = p.X
			}
			if p.X > maxX {
				maxX = p.X
			}
			if p.Y < minY {
				minY = p.Y
			}
			if p.Y > maxY {
				maxY = p.Y
			}
		}
		byX := maxX-minX >= maxY-minY
		// Median split: stable-sort group by the chosen coordinate.
		sorted := append([]int(nil), group...)
		slices.SortStableFunc(sorted, func(a, b int) int {
			pa, pb := sc.Subscribers[a].Pos, sc.Subscribers[b].Pos
			if byX {
				return cmp.Compare(pa.X, pb.X)
			}
			return cmp.Compare(pa.Y, pb.Y)
		})
		mid := len(sorted) / 2
		split(sorted[:mid])
		split(sorted[mid:])
	}
	for _, z := range zones {
		split(z)
	}
	return out
}
