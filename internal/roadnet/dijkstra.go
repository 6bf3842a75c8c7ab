package roadnet

import (
	"math"

	"ptrider/internal/heapx"
)

// Searcher runs Dijkstra and A* against one Graph: Path, the routes
// vehicles drive, and Dist and FillDists, the references the
// hierarchy's queries are held to (request matching asks a Hierarchy).
// It owns epoch-stamped distance/parent arrays so that repeated queries
// perform no per-query allocation.
//
// A Searcher is not safe for concurrent use; give each goroutine its
// own (they share the immutable Graph).
type Searcher struct {
	g      *Graph
	dist   []float64
	parent []VertexID
	stamp  []uint32
	epoch  uint32
	heap   *heapx.DistHeap
}

// NewSearcher returns a Searcher for g.
func NewSearcher(g *Graph) *Searcher {
	n := g.NumVertices()
	return &Searcher{
		g:      g,
		dist:   make([]float64, n),
		parent: make([]VertexID, n),
		stamp:  make([]uint32, n),
		heap:   heapx.NewDistHeap(256),
	}
}

func (s *Searcher) begin() {
	s.epoch++
	if s.epoch == 0 { // wrapped: clear stamps once per 2^32 queries
		for i := range s.stamp {
			s.stamp[i] = 0
		}
		s.epoch = 1
	}
	s.heap.Reset()
}

func (s *Searcher) seen(v VertexID) bool { return s.stamp[v] == s.epoch }

func (s *Searcher) relax(v VertexID, d float64, parent VertexID) bool {
	if s.seen(v) {
		if d >= s.dist[v] {
			return false
		}
	}
	s.stamp[v] = s.epoch
	s.dist[v] = d
	s.parent[v] = parent
	return true
}

// Dist returns the shortest-path distance from u to v, or Inf when v is
// unreachable. On metric embedded graphs it runs A* with the Euclidean
// heuristic; otherwise plain Dijkstra with early exit at v.
func (s *Searcher) Dist(u, v VertexID) float64 {
	if u == v {
		return 0
	}
	if s.g.metric {
		return s.astar(u, v)
	}
	return s.dijkstraTo(u, v)
}

func (s *Searcher) dijkstraTo(u, v VertexID) float64 {
	s.begin()
	s.relax(u, 0, NoVertex)
	s.heap.Push(u, 0)
	for s.heap.Len() > 0 {
		it := s.heap.Pop()
		if it.Dist > s.dist[it.Node] { // stale entry
			continue
		}
		if it.Node == v {
			return it.Dist
		}
		for _, e := range s.g.Out(it.Node) {
			if nd := it.Dist + e.Weight; s.relax(e.To, nd, it.Node) {
				s.heap.Push(e.To, nd)
			}
		}
	}
	return Inf
}

// astar runs A* from u to v with the Euclidean heuristic. dist[] holds g
// values; heap keys hold f = g + h. Admissible because the graph is
// metric, so results are exact. An entry is current when its key is
// the one its vertex's g value would push again; the sum is the same
// float operation on the same operands, so no tolerance is needed.
func (s *Searcher) astar(u, v VertexID) float64 {
	s.begin()
	goal := s.g.points[v]
	s.relax(u, 0, NoVertex)
	s.heap.Push(u, s.g.points[u].Dist(goal))
	for s.heap.Len() > 0 {
		it := s.heap.Pop()
		g := s.dist[it.Node]
		if it.Dist > g+s.g.points[it.Node].Dist(goal) { // stale
			continue
		}
		if it.Node == v {
			return g
		}
		for _, e := range s.g.Out(it.Node) {
			ng := g + e.Weight
			if s.relax(e.To, ng, it.Node) {
				s.heap.Push(e.To, ng+s.g.points[e.To].Dist(goal))
			}
		}
	}
	return Inf
}

// FillDists runs one Dijkstra from u and writes every vertex's
// shortest-path distance into out (len must equal the vertex count);
// vertices beyond maxDist — or unreachable — get +Inf. No product code
// calls it: it stays because bench/ladder.go times it (roadnet.fill_us,
// the cost of one radius-bounded search) and because it is the
// independent reference the hierarchy's sweeps are held to. Values
// equal a sweep's bit for bit.
func (s *Searcher) FillDists(u VertexID, maxDist float64, out []float64) {
	if len(out) != s.g.NumVertices() {
		panic("roadnet: FillDists out length mismatch")
	}
	s.begin()
	s.relax(u, 0, NoVertex)
	s.heap.Push(u, 0)
	for s.heap.Len() > 0 {
		it := s.heap.Pop()
		if it.Dist > s.dist[it.Node] {
			continue
		}
		if it.Dist > maxDist {
			break
		}
		for _, e := range s.g.Out(it.Node) {
			if nd := it.Dist + e.Weight; nd <= maxDist && s.relax(e.To, nd, it.Node) {
				s.heap.Push(e.To, nd)
			}
		}
	}
	for v := range out {
		if s.stamp[v] == s.epoch {
			out[v] = s.dist[v]
		} else {
			out[v] = Inf
		}
	}
}

// Path returns one shortest path from u to v (u first, v last) and its
// length. It returns (nil, Inf) when v is unreachable. The path is
// reconstructed from the parent pointers of a fresh goal-directed
// search, so calling Path invalidates nothing and allocates only the
// returned slice.
func (s *Searcher) Path(u, v VertexID) ([]VertexID, float64) {
	var d float64
	if s.g.metric {
		d = s.astar(u, v)
	} else {
		d = s.dijkstraTo(u, v)
	}
	if math.IsInf(d, 1) {
		return nil, Inf
	}
	if u == v {
		return []VertexID{u}, 0
	}
	var rev []VertexID
	for x := v; x != NoVertex; x = s.parent[x] {
		rev = append(rev, x)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, d
}
