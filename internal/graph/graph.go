// Package graph provides the small graph substrate the relay algorithms
// need: weighted undirected graphs, minimum spanning trees (Prim and
// Kruskal), union-find, connected components, and the bipartite coverage
// graph used by the Coverage Link Escape step.
package graph

import (
	"fmt"
	"sort"
)

// Edge is a weighted undirected edge between vertex indices U and V.
type Edge struct {
	U, V int
	W    float64
}

// Graph is a weighted undirected graph over vertices 0..N-1 with an
// adjacency-list representation. The zero value is an empty graph; use New
// to pre-size the vertex set.
type Graph struct {
	n   int
	adj [][]Edge
}

// New returns a graph with n isolated vertices.
func New(n int) *Graph {
	if n < 0 {
		n = 0
	}
	return &Graph{n: n, adj: make([][]Edge, n)}
}

// NewReserved returns a graph with n isolated vertices whose adjacency
// lists each have room for deg edges, all cut from one backing array. A
// caller that knows the degrees in advance (n-1 in a complete graph)
// saves the regrowth of every list; a list that outgrows deg still grows.
func NewReserved(n, deg int) *Graph {
	g := New(n)
	if deg <= 0 {
		return g
	}
	backing := make([]Edge, g.n*deg)
	for u := range g.adj {
		g.adj[u] = backing[u*deg : u*deg : (u+1)*deg]
	}
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// AddVertex appends a new isolated vertex and returns its index.
func (g *Graph) AddVertex() int {
	g.adj = append(g.adj, nil)
	g.n++
	return g.n - 1
}

// AddEdge inserts the undirected edge (u, v) with weight w. It returns an
// error for out-of-range endpoints or self-loops, which the relay
// construction never produces legitimately.
func (g *Graph) AddEdge(u, v int, w float64) error {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, g.n)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop at %d", u)
	}
	g.adj[u] = append(g.adj[u], Edge{U: u, V: v, W: w})
	g.adj[v] = append(g.adj[v], Edge{U: v, V: u, W: w})
	return nil
}

// Neighbors returns the edges incident to u (with Edge.U == u). The returned
// slice is owned by the graph; callers must not modify it.
func (g *Graph) Neighbors(u int) []Edge {
	if u < 0 || u >= g.n {
		return nil
	}
	return g.adj[u]
}

// Edges returns every undirected edge exactly once (U < V), sorted by
// (U, V) for determinism.
func (g *Graph) Edges() []Edge {
	var out []Edge
	for u := 0; u < g.n; u++ {
		for _, e := range g.adj[u] {
			if e.U < e.V {
				out = append(out, e)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

// Degree returns the number of edges incident to u.
func (g *Graph) Degree(u int) int {
	if u < 0 || u >= g.n {
		return 0
	}
	return len(g.adj[u])
}

// ConnectedComponents returns the vertex sets of the connected components,
// each sorted ascending, ordered by their smallest vertex. This implements
// Step 4 of the Zone Partition algorithm (Alg. 2): zones are the connected
// components of the interference graph.
func (g *Graph) ConnectedComponents() [][]int {
	seen := make([]bool, g.n)
	var comps [][]int
	for s := 0; s < g.n; s++ {
		if seen[s] {
			continue
		}
		comp := []int{}
		stack := []int{s}
		seen[s] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, u)
			for _, e := range g.adj[u] {
				if !seen[e.V] {
					seen[e.V] = true
					stack = append(stack, e.V)
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	return comps
}
