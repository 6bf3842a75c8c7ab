package roadnet

// Metric reports whether the Euclidean lower bound is in force.
func (g *Graph) Metric() bool { return g.metric }
