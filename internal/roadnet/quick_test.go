package roadnet_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ptrider/internal/roadnet"
	"ptrider/internal/testnet"
)

// TestQuickMetricProperties: on undirected graphs the shortest-path
// distance is a metric — symmetric, zero iff identical (connected
// graph, positive weights), and satisfying the triangle inequality.
func TestQuickMetricProperties(t *testing.T) {
	g := testnet.RandomConnected(rand.New(rand.NewSource(60)), 50, 2)
	oracle := testnet.NewOracle(g)
	n := g.NumVertices()
	f := func(a, b, c uint16) bool {
		u := roadnet.VertexID(int(a) % n)
		v := roadnet.VertexID(int(b) % n)
		w := roadnet.VertexID(int(c) % n)
		duv, dvu := oracle.Dist(u, v), oracle.Dist(v, u)
		if duv != dvu {
			return false
		}
		if (duv == 0) != (u == v) {
			return false
		}
		return oracle.Dist(u, w) <= duv+oracle.Dist(v, w)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

// TestQuickSearchersAgree: Dijkstra/A* (Searcher) agrees with the
// oracle on arbitrary pairs.
func TestQuickSearchersAgree(t *testing.T) {
	g := testnet.Lattice(rand.New(rand.NewSource(61)), 7, 7, 100)
	oracle := testnet.NewOracle(g)
	s := roadnet.NewSearcher(g)
	n := g.NumVertices()
	f := func(a, b uint16) bool {
		u := roadnet.VertexID(int(a) % n)
		v := roadnet.VertexID(int(b) % n)
		want := oracle.Dist(u, v)
		return s.Dist(u, v) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1500}); err != nil {
		t.Error(err)
	}
}
