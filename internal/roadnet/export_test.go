package roadnet

// Metric reports whether the Euclidean lower bound is in force.
func (g *Graph) Metric() bool { return g.metric }

// Arrays returns the hierarchy's storage: the rank of each vertex, the
// CSR offsets by rank and the upward arcs' heads and weights.
func (h *Hierarchy) Arrays() (rank, offsets, heads []int32, weights []float64) {
	return h.rank, h.offsets, h.heads, h.weights
}
