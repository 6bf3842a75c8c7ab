package roadnet

import "ptrider/internal/heapx"

// ch.go is the contraction hierarchy (Geisberger, Sanders, Schultes and
// Delling, WEA 2008) and its two queries: a bidirectional upward search
// for one pair, and PHAST (Delling, Goldberg, Nowatzyk and Werneck,
// IPDPS 2011) for one source, or the nearest of many, to every vertex.
//
// Contraction removes the vertices one at a time in a fixed order, the
// rank, and adds a shortcut between two of the removed vertex's
// remaining neighbours whenever the path through it may be their only
// shortest one. Every shortest path of the graph then has an equal one
// that climbs in rank and then descends, over edges and shortcuts
// that each join a vertex to a higher-ranked one: the upward arcs. Every
// road is two-way at one weight, so the downward arcs are the upward
// ones reversed, and one upward CSR serves both searches.

// witnessSettleCap bounds a witness search: after this many settled
// vertices Contract adds the shortcut without looking further. An
// unneeded shortcut costs an arc, never a wrong distance.
const witnessSettleCap = 500

// Hierarchy is the contraction hierarchy of a Graph: the rank
// of every vertex and, for each rank, the arcs from that vertex to its
// higher-ranked neighbours in the contracted graph, stored once as a
// CSR in rank order. An arc is its head's rank and its weight, in two
// parallel arrays: 12 bytes, where a HalfEdge's padding makes 16. It is
// immutable and safe for concurrent use; each goroutine queries it
// through its own Query.
type Hierarchy struct {
	g       *Graph
	rank    []int32   // per vertex: its place in the contraction order
	offsets []int32   // len NumVertices+1; the upward arcs of rank r are [offsets[r], offsets[r+1])
	heads   []int32   // per arc: the head's rank, always above the tail's
	weights []float64 // per arc
}

// Graph returns the contracted graph.
func (h *Hierarchy) Graph() *Graph { return h.g }

// NumArcs returns the number of upward arcs, edges and shortcuts.
func (h *Hierarchy) NumArcs() int { return len(h.heads) }

// up returns the heads and weights of rank r's upward arcs.
func (h *Hierarchy) up(r int32) ([]int32, []float64) {
	lo, hi := h.offsets[r], h.offsets[r+1]
	return h.heads[lo:hi], h.weights[lo:hi]
}

// Contract builds the contraction hierarchy of g. The order is
// deterministic: the vertex of least priority goes next, ties to the
// lower id. A vertex's priority is twice its edge difference (the
// shortcuts contracting it would add, less its remaining edges) plus
// its contracted neighbours. It is kept lazily: recomputed when the
// vertex reaches the front of the queue, and queued again if it
// changed.
func Contract(g *Graph) *Hierarchy {
	n := g.NumVertices()
	c := newContractor(g)
	// The queue holds each remaining vertex once. Its key, priority·2³²
	// plus id, orders by priority, then id: exactly while a priority's
	// magnitude stays below 2²¹; past that, rounding blurs only ties, the
	// same way on every run.
	prio := make([]int32, n)
	var queue heapx.DistHeap
	push := func(v VertexID) { queue.Push(v, float64(prio[v])*(1<<32)+float64(v)) }
	for v := VertexID(0); int(v) < n; v++ {
		prio[v] = c.priority(v)
		push(v)
	}
	order := make([]VertexID, 0, n)
	for queue.Len() > 0 {
		v := queue.Pop().Node
		if p := c.priority(v); p != prio[v] {
			prio[v] = p
			push(v)
			continue
		}
		order = append(order, v)
		c.contract(v)
	}

	// A contracted vertex keeps its adjacency as it was then: its arcs
	// to every vertex contracted after it.
	h := &Hierarchy{g: g, rank: make([]int32, n), offsets: make([]int32, n+1)}
	for r, v := range order {
		h.rank[v] = int32(r)
		h.offsets[r+1] = h.offsets[r] + int32(len(c.adj[v]))
	}
	h.heads = make([]int32, 0, h.offsets[n])
	h.weights = make([]float64, 0, h.offsets[n])
	for _, v := range order {
		for _, e := range c.adj[v] {
			h.heads = append(h.heads, h.rank[e.To])
			h.weights = append(h.weights, e.Weight)
		}
	}
	return h
}

// contractor is Contract's working graph: the remaining vertices, each
// with one edge per remaining neighbour at its least weight, and the
// witness search over them.
type contractor struct {
	adj        [][]HalfEdge
	contracted []int32 // contracted neighbours, per vertex
	shortcuts  []shortcut

	dist   []float64
	stamp  []uint32
	target []uint32 // the witness search's targets carry its epoch
	epoch  uint32
	heap   heapx.DistHeap
}

type shortcut struct {
	a, b VertexID
	w    float64
}

func newContractor(g *Graph) *contractor {
	n := g.NumVertices()
	c := &contractor{
		adj:        make([][]HalfEdge, n),
		contracted: make([]int32, n),
		dist:       make([]float64, n),
		stamp:      make([]uint32, n),
		target:     make([]uint32, n),
	}
	// One backing array, each vertex's part capped at its out-degree:
	// parallel edges merge at the least weight, and a shortcut past the
	// cap moves that vertex's list.
	backing := make([]HalfEdge, g.NumEdges())
	for u := VertexID(0); int(u) < n; u++ {
		out := g.Out(u)
		c.adj[u], backing = backing[:0:len(out)], backing[len(out):]
		for _, e := range out {
			c.link(u, e.To, e.Weight)
		}
	}
	return c
}

// witness runs a Dijkstra from s over the remaining graph without skip,
// up to limit, until every target is settled or witnessSettleCap
// vertices are; reached then reads the length of a path it found, or
// Inf.
func (c *contractor) witness(s, skip VertexID, targets []HalfEdge, limit float64) {
	c.epoch++
	if c.epoch == 0 {
		clear(c.stamp)
		clear(c.target)
		c.epoch = 1
	}
	for _, t := range targets {
		c.target[t.To] = c.epoch
	}
	c.heap.Reset()
	c.stamp[s], c.dist[s] = c.epoch, 0
	c.heap.Push(s, 0)
	for settled, left := 0, len(targets); c.heap.Len() > 0 && settled < witnessSettleCap && left > 0; {
		it := c.heap.Pop()
		if it.Dist > c.dist[it.Node] {
			continue
		}
		settled++
		if c.target[it.Node] == c.epoch {
			c.target[it.Node] = 0
			left--
		}
		for _, e := range c.adj[it.Node] {
			nd := it.Dist + e.Weight
			if e.To == skip || nd > limit || (c.stamp[e.To] == c.epoch && nd >= c.dist[e.To]) {
				continue
			}
			c.stamp[e.To], c.dist[e.To] = c.epoch, nd
			c.heap.Push(e.To, nd)
		}
	}
}

func (c *contractor) reached(v VertexID) float64 {
	if c.stamp[v] == c.epoch {
		return c.dist[v]
	}
	return Inf
}

// findShortcuts collects in c.shortcuts the shortcuts contracting v
// needs: one per pair of its remaining neighbours with no witness path,
// avoiding v, as short as the path through it.
func (c *contractor) findShortcuts(v VertexID) {
	c.shortcuts = c.shortcuts[:0]
	nb := c.adj[v]
	for i := 0; i+1 < len(nb); i++ {
		a, limit := nb[i], 0.0
		for _, b := range nb[i+1:] {
			limit = max(limit, a.Weight+b.Weight)
		}
		c.witness(a.To, v, nb[i+1:], limit)
		for _, b := range nb[i+1:] {
			if via := a.Weight + b.Weight; c.reached(b.To) > via {
				c.shortcuts = append(c.shortcuts, shortcut{a.To, b.To, via})
			}
		}
	}
}

func (c *contractor) priority(v VertexID) int32 {
	c.findShortcuts(v)
	return 2*(int32(len(c.shortcuts))-int32(len(c.adj[v]))) + c.contracted[v]
}

// contract removes v from its neighbours' lists and adds its
// shortcuts. Its own list is left as it is.
func (c *contractor) contract(v VertexID) {
	c.findShortcuts(v)
	for _, e := range c.adj[v] {
		c.unlink(e.To, v)
		c.contracted[e.To]++
	}
	for _, s := range c.shortcuts {
		c.link(s.a, s.b, s.w)
		c.link(s.b, s.a, s.w)
	}
}

func (c *contractor) unlink(u, v VertexID) {
	a := c.adj[u]
	for i := range a {
		if a[i].To == v {
			a[i] = a[len(a)-1]
			c.adj[u] = a[:len(a)-1]
			return
		}
	}
}

// link adds the edge u→v at weight w, or lowers the one u has: a
// shortcut is needed only when it is shorter than any edge it parallels.
func (c *contractor) link(u, v VertexID, w float64) {
	for i := range c.adj[u] {
		if a := &c.adj[u][i]; a.To == v {
			a.Weight = min(a.Weight, w)
			return
		}
	}
	c.adj[u] = append(c.adj[u], HalfEdge{To: v, Weight: w})
}

// Query answers distance queries against one Hierarchy. It owns the
// searches' distance arrays, indexed by rank, so queries allocate
// nothing. A Query is not safe for concurrent use; give each goroutine
// its own.
type Query struct {
	h        *Hierarchy
	row, bwd []float64 // row is the last sweep's or the forward search's
	fst, bst []uint32  // Dist's epoch stamps for row and bwd
	epoch    uint32
	fh, bh   heapx.DistHeap
}

// NewQuery returns a Query over h.
func (h *Hierarchy) NewQuery() *Query {
	n := len(h.rank)
	return &Query{
		h:   h,
		row: make([]float64, n),
		bwd: make([]float64, n),
		fst: make([]uint32, n),
		bst: make([]uint32, n),
	}
}

// Dist returns the shortest-path distance between u and v, or Inf when
// they are not connected: the least sum of two upward searches' labels
// over the vertices both reach. The searches run interleaved, each
// stopping once its nearest unsettled label is no shorter than the best
// sum. It ends any sweep the Query held.
func (q *Query) Dist(u, v VertexID) float64 {
	if u == v {
		return 0
	}
	q.epoch++
	if q.epoch == 0 {
		clear(q.fst)
		clear(q.bst)
		q.epoch = 1
	}
	q.fh.Reset()
	q.bh.Reset()
	ru, rv := q.h.rank[u], q.h.rank[v]
	q.row[ru], q.fst[ru] = 0, q.epoch
	q.bwd[rv], q.bst[rv] = 0, q.epoch
	q.fh.Push(ru, 0)
	q.bh.Push(rv, 0)
	best := Inf
	for {
		fwd := q.fh.Len() > 0 && q.fh.Peek().Dist < best
		bwd := q.bh.Len() > 0 && q.bh.Peek().Dist < best
		if !fwd && !bwd {
			return best
		}
		if fwd && (!bwd || q.fh.Peek().Dist <= q.bh.Peek().Dist) {
			best = q.settle(&q.fh, q.row, q.fst, q.bwd, q.bst, best)
		} else {
			best = q.settle(&q.bh, q.bwd, q.bst, q.row, q.fst, best)
		}
	}
}

// settle pops one label of a Dist search, meets the other search's
// label at the same vertex, and relaxes the vertex's upward arcs.
func (q *Query) settle(h *heapx.DistHeap, dist []float64, stamp []uint32, other []float64, ostamp []uint32, best float64) float64 {
	it := h.Pop()
	if it.Dist > dist[it.Node] {
		return best
	}
	if ostamp[it.Node] == q.epoch {
		best = min(best, it.Dist+other[it.Node])
	}
	heads, weights := q.h.up(it.Node)
	for i, t := range heads {
		if nd := it.Dist + weights[i]; stamp[t] != q.epoch || nd < dist[t] {
			stamp[t], dist[t] = q.epoch, nd
			h.Push(t, nd)
		}
	}
	return best
}

// Sweep computes the distance from the nearest of sources to every
// vertex: an upward search from all of them at once, then one pass over
// the vertices in descending rank, each taking the least of its label
// and its higher-ranked neighbours' distances plus the arcs to them.
// DistsTo reads the result until the next Dist or Sweep.
func (q *Query) Sweep(sources ...VertexID) {
	row := q.row
	for i := range row {
		row[i] = Inf
	}
	q.fh.Reset()
	for _, s := range sources {
		if r := q.h.rank[s]; row[r] != 0 {
			row[r] = 0
			q.fh.Push(r, 0)
		}
	}
	for q.fh.Len() > 0 {
		it := q.fh.Pop()
		if it.Dist > row[it.Node] {
			continue
		}
		heads, weights := q.h.up(it.Node)
		for i, t := range heads {
			if nd := it.Dist + weights[i]; nd < row[t] {
				row[t] = nd
				q.fh.Push(t, nd)
			}
		}
	}
	for r := int32(len(row)) - 1; r >= 0; r-- {
		d := row[r]
		heads, weights := q.h.up(r)
		for i, t := range heads {
			d = min(d, row[t]+weights[i])
		}
		row[r] = d
	}
}

// DistsTo fills out (which must have len(targets)) with the last
// sweep's distance to every target, or Inf where it exceeds maxDist.
func (q *Query) DistsTo(targets []VertexID, maxDist float64, out []float64) {
	if len(out) != len(targets) {
		panic("roadnet: DistsTo out length mismatch")
	}
	for i, t := range targets {
		if d := q.row[q.h.rank[t]]; d <= maxDist {
			out[i] = d
		} else {
			out[i] = Inf
		}
	}
}
