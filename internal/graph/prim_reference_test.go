package graph

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"
)

// refQueue is the container/heap priority queue PrimMST used before it
// got its own push and pop. It is kept here as the reference for them.
type refQueue []pqItem

func (q refQueue) Len() int            { return len(q) }
func (q refQueue) Less(i, j int) bool  { return q[i].w < q[j].w }
func (q refQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x interface{}) { *q = append(*q, x.(pqItem)) }
func (q *refQueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// refPrimMST is PrimMST as it was on container/heap.
func refPrimMST(g *Graph, root int) *MSTResult {
	res := &MSTResult{
		Root:       root,
		Parent:     make([]int, g.n),
		ParentEdge: make([]float64, g.n),
	}
	for i := range res.Parent {
		res.Parent[i] = -1
	}
	inTree := make([]bool, g.n)
	pq := &refQueue{{v: root, from: -1, w: 0}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(pqItem)
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
				heap.Push(pq, pqItem{v: e.V, from: it.v, w: e.W})
			}
		}
	}
	return res
}

// sameMST requires the two trees to be bit-identical.
func sameMST(t *testing.T, name string, got, want *MSTResult) {
	t.Helper()
	if math.Float64bits(got.Total) != math.Float64bits(want.Total) {
		t.Fatalf("%s: Total %v, reference %v", name, got.Total, want.Total)
	}
	for v := range want.Parent {
		if got.Parent[v] != want.Parent[v] {
			t.Fatalf("%s: Parent[%d] = %d, reference %d", name, v, got.Parent[v], want.Parent[v])
		}
		if math.Float64bits(got.ParentEdge[v]) != math.Float64bits(want.ParentEdge[v]) {
			t.Fatalf("%s: ParentEdge[%d] = %v, reference %v", name, v, got.ParentEdge[v], want.ParentEdge[v])
		}
	}
}

// completeGraph adds the edges of a complete graph on n vertices in the
// order MBMC's buildTree does: vertex i's edge to the last vertex, then
// its edges to every later vertex.
func completeGraph(t *testing.T, n int, weight func() float64) *Graph {
	g := NewReserved(n, n-1)
	root := n - 1
	for i := 0; i < root; i++ {
		mustAdd(t, g, i, root, weight())
		for k := i + 1; k < root; k++ {
			mustAdd(t, g, i, k, weight())
		}
	}
	return g
}

func TestPrimMSTMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(40)
		// MBMC's weights are ceil(len/dmin)-1: a few small integers, so
		// nearly every comparison in the heap is a tie.
		levels := 1 + rng.Intn(4)
		ties := completeGraph(t, n, func() float64 { return float64(rng.Intn(levels)) })
		floats := completeGraph(t, n, func() float64 { return rng.Float64() * 100 })
		for _, g := range []*Graph{ties, floats} {
			root := rng.Intn(n)
			got, err := g.PrimMST(root)
			if err != nil {
				t.Fatal(err)
			}
			sameMST(t, "complete", got, refPrimMST(g, root))
		}
	}
}

func TestPrimMSTMatchesContainerHeapDisconnected(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(50)
		g := New(n)
		// Sparse random edges with tied weights leave several components,
		// isolated vertices and parallel edges.
		for e := rng.Intn(2 * n); e > 0; e-- {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				mustAdd(t, g, u, v, float64(rng.Intn(3)))
			}
		}
		root := rng.Intn(n)
		got, err := g.PrimMST(root)
		if err != nil {
			t.Fatal(err)
		}
		sameMST(t, "sparse", got, refPrimMST(g, root))
	}
}

// TestPrioQueueMatchesContainerHeap drives both queues through the same
// random push/pop sequence and requires the same array after every step,
// not just the same minimum.
func TestPrioQueueMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 200; trial++ {
		var q prioQueue
		ref := &refQueue{}
		for step := 0; step < 300; step++ {
			if len(q) > 0 && rng.Intn(3) == 0 {
				got, want := q.pop(), heap.Pop(ref).(pqItem)
				if got != want {
					t.Fatalf("trial %d step %d: pop %+v, reference %+v", trial, step, got, want)
				}
			} else {
				it := pqItem{v: step, from: trial, w: float64(rng.Intn(5))}
				q.push(it)
				heap.Push(ref, it)
			}
			if len(q) != len(*ref) {
				t.Fatalf("trial %d step %d: %d entries, reference %d", trial, step, len(q), len(*ref))
			}
			for i := range q {
				if q[i] != (*ref)[i] {
					t.Fatalf("trial %d step %d: entry %d is %+v, reference %+v", trial, step, i, q[i], (*ref)[i])
				}
			}
		}
	}
}

func TestNewReservedGrowsPastReservation(t *testing.T) {
	g := NewReserved(4, 1)
	mustAdd(t, g, 0, 1, 1)
	mustAdd(t, g, 0, 2, 2)
	mustAdd(t, g, 0, 3, 3)
	mustAdd(t, g, 1, 2, 4)
	if g.Degree(0) != 3 || g.Degree(1) != 2 || g.Degree(2) != 2 || g.Degree(3) != 1 {
		t.Fatalf("degrees %d %d %d %d", g.Degree(0), g.Degree(1), g.Degree(2), g.Degree(3))
	}
	for u := 0; u < 4; u++ {
		for _, e := range g.Neighbors(u) {
			if e.U != u {
				t.Fatalf("vertex %d lists edge %+v: lists overlap", u, e)
			}
		}
	}
}
