package graph

import (
	"fmt"
	"sort"
)

// MSTResult describes a rooted spanning tree: Parent[v] is v's parent vertex
// (-1 for the root and for vertices unreachable from it), ParentEdge[v] the
// weight of the edge to the parent, and Total the summed weight of the tree
// edges.
type MSTResult struct {
	Root       int
	Parent     []int
	ParentEdge []float64
	Total      float64
}

// InTree reports whether v was reached by the spanning tree (the root is in
// the tree by definition).
func (r *MSTResult) InTree(v int) bool {
	if v < 0 || v >= len(r.Parent) {
		return false
	}
	return v == r.Root || r.Parent[v] >= 0
}

// Children returns, for each vertex, the list of its tree children, sorted.
func (r *MSTResult) Children() [][]int {
	ch := make([][]int, len(r.Parent))
	for v, p := range r.Parent {
		if p >= 0 {
			ch[p] = append(ch[p], v)
		}
	}
	for i := range ch {
		sort.Ints(ch[i])
	}
	return ch
}

// PathToRoot returns the vertex sequence from v up to (and including) the
// root, or nil when v is not in the tree.
func (r *MSTResult) PathToRoot(v int) []int {
	if !r.InTree(v) {
		return nil
	}
	var path []int
	for v != -1 {
		path = append(path, v)
		if v == r.Root {
			return path
		}
		v = r.Parent[v]
	}
	return path
}

// pqItem is a Prim frontier entry.
type pqItem struct {
	v    int
	from int
	w    float64
}

// prioQueue is a binary min-heap on w. push and pop repeat
// container/heap's Push and Pop step for step (same comparisons, same
// swaps), so equal weights leave the heap in the same order and PrimMST
// picks the same tree among equal-weight ones.
type prioQueue []pqItem

// push adds it and sifts it up (container/heap's up).
func (q *prioQueue) push(it pqItem) {
	*q = append(*q, it)
	h := *q
	j := len(h) - 1
	for {
		i := (j - 1) / 2 // parent
		if i == j || !(h[j].w < h[i].w) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

// pop swaps the root with the last entry, sifts the new root down over
// the rest (container/heap's down) and removes the last entry.
func (q *prioQueue) pop() pqItem {
	h := *q
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h[j2].w < h[j1].w {
			j = j2 // right child
		}
		if !(h[j].w < h[i].w) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	*q = h[:n]
	return h[n]
}

// PrimMST computes a minimum spanning tree of the component containing root
// using Prim's algorithm. Vertices in other components have Parent -1.
// MBMC (Alg. 7, Step 5) roots the tree at the (virtual) base station.
func (g *Graph) PrimMST(root int) (*MSTResult, error) {
	if root < 0 || root >= g.n {
		return nil, fmt.Errorf("graph: MST root %d out of range [0,%d)", root, g.n)
	}
	res := &MSTResult{
		Root:       root,
		Parent:     make([]int, g.n),
		ParentEdge: make([]float64, g.n),
	}
	for i := range res.Parent {
		res.Parent[i] = -1
	}
	inTree := make([]bool, g.n)
	// Each edge is pushed at most once, from whichever endpoint joins the
	// tree first, so the heap never outgrows edges+1 entries.
	edges := 0
	for _, a := range g.adj {
		edges += len(a)
	}
	pq := make(prioQueue, 1, edges/2+1)
	pq[0] = pqItem{v: root, from: -1, w: 0}
	for len(pq) > 0 {
		it := pq.pop()
		if inTree[it.v] {
			continue
		}
		inTree[it.v] = true
		if it.from >= 0 {
			res.Parent[it.v] = it.from
			res.ParentEdge[it.v] = it.w
			res.Total += it.w
		}
		for _, e := range g.adj[it.v] {
			if !inTree[e.V] {
				pq.push(pqItem{v: e.V, from: it.v, w: e.W})
			}
		}
	}
	return res, nil
}

// KruskalMST returns a minimum spanning forest as a list of edges, plus the
// total weight. Ties are broken by (U, V) for determinism.
func (g *Graph) KruskalMST() ([]Edge, float64) {
	edges := g.Edges()
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].W != edges[j].W {
			return edges[i].W < edges[j].W
		}
		if edges[i].U != edges[j].U {
			return edges[i].U < edges[j].U
		}
		return edges[i].V < edges[j].V
	})
	uf := NewUnionFind(g.n)
	var out []Edge
	total := 0.0
	for _, e := range edges {
		if uf.Union(e.U, e.V) {
			out = append(out, e)
			total += e.W
		}
	}
	return out, total
}
