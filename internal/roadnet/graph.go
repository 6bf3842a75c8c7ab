// Package roadnet implements the road-network substrate of PTRider
// (paper §2.1): a weighted graph G = (V, E, W) whose vertices are road
// intersections embedded in the plane and whose edge weights are travel
// costs in metres, together with the shortest-path machinery every other
// module builds on — Dijkstra in several flavours (point-to-point;
// whole-graph fills from one source or from many; a resumable
// target-set search), A* over the planar embedding, path extraction,
// and a Floyd–Warshall oracle used to cross-check the searches in
// tests.
//
// Graphs are immutable once built (construct them with a Builder), which
// makes concurrent reads safe without locking; PTRider answers matching
// queries from many goroutines against one shared Graph.
//
// Distances are exact. Build rounds every edge weight up to a multiple
// of 1/GridSteps m (2⁻¹⁰ m), so every path length below 2⁴³ m is an exact
// float64 sum whatever the order of its terms: Dist(u, v) and
// Dist(v, u), A*, the fills and the resumable search return the same
// bits for the same pair, and callers compare distances with == and >
// without a tolerance. Rounding up keeps every weight at or above the
// caller's, so Euclidean lower bounds and A*'s heuristic stay sound.
package roadnet

import (
	"fmt"
	"math"

	"ptrider/internal/geo"
)

// VertexID identifies a vertex of a Graph. IDs are dense indices in
// [0, NumVertices).
type VertexID = int32

// NoVertex is the sentinel "no vertex" value.
const NoVertex VertexID = -1

// Inf is the distance reported for unreachable vertex pairs.
var Inf = math.Inf(1)

// GridSteps is the number of distance grid steps per metre: every edge
// weight of a built Graph, and so every path length, is a multiple of
// 1/GridSteps m.
const GridSteps = 1 << 10

// maxWeight bounds an edge weight: at 2⁴³ m a weight's grid steps no
// longer fit the 53-bit mantissa exactly.
const maxWeight = 1 << 43

// HalfEdge is one directed adjacency record: the head vertex of the edge
// and its weight.
type HalfEdge struct {
	To     VertexID
	Weight float64
}

// Graph is an immutable weighted directed graph in compressed sparse row
// form. Undirected road segments are represented as two directed edges.
// All read methods are safe for concurrent use.
type Graph struct {
	points  []geo.Point // vertex embedding; empty when not embedded
	offsets []int32     // len NumVertices+1; adjacency of v is edges[offsets[v]:offsets[v+1]]
	edges   []HalfEdge
	metric  bool // true when every weight ≥ Euclidean length of its edge
}

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return len(g.offsets) - 1 }

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Embedded reports whether the graph carries planar coordinates.
func (g *Graph) Embedded() bool { return len(g.points) > 0 }

// Point returns the planar coordinates of v. It must only be called on
// embedded graphs.
func (g *Graph) Point(v VertexID) geo.Point { return g.points[v] }

// Out returns the outgoing adjacency of v. The returned slice aliases
// the graph's internal storage and must not be modified.
func (g *Graph) Out(v VertexID) []HalfEdge {
	return g.edges[g.offsets[v]:g.offsets[v+1]]
}

// EdgeWeight returns the weight of the directed edge (u, v) and whether
// such an edge exists. With parallel edges the minimum weight is
// returned.
func (g *Graph) EdgeWeight(u, v VertexID) (float64, bool) {
	w, ok := Inf, false
	for _, e := range g.Out(u) {
		if e.To == v && e.Weight < w {
			w, ok = e.Weight, true
		}
	}
	return w, ok
}

// EuclidLB returns a lower bound on dist(u, v): the Euclidean distance
// for metric embedded graphs, zero otherwise.
func (g *Graph) EuclidLB(u, v VertexID) float64 {
	if !g.metric {
		return 0
	}
	return g.points[u].Dist(g.points[v])
}

// Bounds returns the bounding rectangle of the embedding. It returns
// the zero Rect for non-embedded graphs.
func (g *Graph) Bounds() geo.Rect { return geo.BoundingRect(g.points) }

// NearestVertex returns the vertex closest (Euclidean) to p by scanning
// every vertex, ties to the lowest id — the index-free snap, and the
// reference gridindex.Grid.NearestVertex is pinned to.
func (g *Graph) NearestVertex(p geo.Point) VertexID {
	best, bestD := VertexID(0), math.Inf(1)
	for v, q := range g.points {
		if d := q.DistSq(p); d < bestD {
			best, bestD = VertexID(v), d
		}
	}
	return best
}

// Builder accumulates vertices and edges and produces an immutable
// Graph. The zero value is ready for use.
type Builder struct {
	points   []geo.Point
	embedded bool
	tails    []VertexID
	heads    []VertexID
	weights  []float64
}

// NewBuilder returns a Builder with storage preallocated for the given
// numbers of vertices and directed edges.
func NewBuilder(vertices, edges int) *Builder {
	return &Builder{
		points:  make([]geo.Point, 0, vertices),
		tails:   make([]VertexID, 0, edges),
		heads:   make([]VertexID, 0, edges),
		weights: make([]float64, 0, edges),
	}
}

// AddVertex adds an embedded vertex and returns its id. Mixing AddVertex
// and AddPlainVertex in one builder is not allowed.
func (b *Builder) AddVertex(p geo.Point) VertexID {
	b.embedded = true
	b.points = append(b.points, p)
	return VertexID(len(b.points) - 1)
}

// AddPlainVertex adds a vertex without coordinates and returns its id.
func (b *Builder) AddPlainVertex() VertexID {
	b.points = append(b.points, geo.Point{})
	return VertexID(len(b.points) - 1)
}

// AddEdge adds the directed edge (u, v) with weight w.
func (b *Builder) AddEdge(u, v VertexID, w float64) {
	b.tails = append(b.tails, u)
	b.heads = append(b.heads, v)
	b.weights = append(b.weights, w)
}

// AddUndirectedEdge adds directed edges (u, v) and (v, u), both with
// weight w.
func (b *Builder) AddUndirectedEdge(u, v VertexID, w float64) {
	b.AddEdge(u, v, w)
	b.AddEdge(v, u, w)
}

// Build validates the accumulated data and returns the immutable Graph.
// It fails when an edge references an unknown vertex, is a self-loop, or
// has a negative or NaN weight or one of 2⁴³ m or more. Each valid
// weight is then rounded up to a multiple of 1/GridSteps m; the check
// comes first because rounding would turn a tiny negative weight into
// −0 and a huge finite one into +Inf.
func (b *Builder) Build() (*Graph, error) {
	n := len(b.points)
	for i := range b.tails {
		u, v, w := b.tails[i], b.heads[i], b.weights[i]
		if u < 0 || int(u) >= n || v < 0 || int(v) >= n {
			return nil, fmt.Errorf("roadnet: edge %d (%d->%d) references vertex outside [0,%d)", i, u, v, n)
		}
		if u == v {
			return nil, fmt.Errorf("roadnet: edge %d is a self-loop at vertex %d", i, u)
		}
		if !(w >= 0 && w < maxWeight) {
			return nil, fmt.Errorf("roadnet: edge %d (%d->%d) has invalid weight %v", i, u, v, w)
		}
	}

	g := &Graph{
		offsets: make([]int32, n+1),
		edges:   make([]HalfEdge, len(b.tails)),
	}
	if b.embedded {
		g.points = append([]geo.Point(nil), b.points...)
	} else {
		g.points = make([]geo.Point, n) // keep len(points)==n for Bounds etc.
	}

	// Counting sort by tail vertex into CSR form.
	for _, u := range b.tails {
		g.offsets[u+1]++
	}
	for v := 0; v < n; v++ {
		g.offsets[v+1] += g.offsets[v]
	}
	next := append([]int32(nil), g.offsets[:n]...)
	for i := range b.tails {
		u := b.tails[i]
		w := math.Ceil(b.weights[i]*GridSteps) / GridSteps // exact: w < 2⁴³
		g.edges[next[u]] = HalfEdge{To: b.heads[i], Weight: w}
		next[u]++
	}

	g.metric = b.embedded
	for u := 0; g.metric && u < n; u++ {
		for _, e := range g.Out(VertexID(u)) {
			if e.Weight < b.points[u].Dist(b.points[e.To])-1e-9 {
				g.metric = false
			}
		}
	}
	if !b.embedded {
		g.points = nil
	}
	return g, nil
}

// MustBuild is Build that panics on error; intended for tests and
// generators whose inputs are known valid.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// IsSymmetric reports whether for every directed edge (u, v, w) the
// graph also contains (v, u, w). The engine's distance memo and batch
// fills treat dist(u, v) and dist(v, u) as one number, so core.NewEngine
// rejects a network that is not.
func (g *Graph) IsSymmetric() bool {
	for u := VertexID(0); int(u) < g.NumVertices(); u++ {
		for _, e := range g.Out(u) {
			if !g.hasEdge(e.To, u, e.Weight) {
				return false
			}
		}
	}
	return true
}

func (g *Graph) hasEdge(u, v VertexID, w float64) bool {
	for _, e := range g.Out(u) {
		if e.To == v && e.Weight == w {
			return true
		}
	}
	return false
}

// Connected reports whether every vertex is reachable from vertex 0 —
// the invariant PTRider's generator maintains so that every trip is
// servable.
func Connected(g *Graph) bool {
	n := g.NumVertices()
	if n == 0 {
		return true
	}
	seen := make([]bool, n)
	stack := []VertexID{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.Out(v) {
			if !seen[e.To] {
				seen[e.To] = true
				count++
				stack = append(stack, e.To)
			}
		}
	}
	return count == n
}
