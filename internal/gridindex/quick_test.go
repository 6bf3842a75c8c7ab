package gridindex_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ptrider/internal/gridindex"
	"ptrider/internal/roadnet"
	"ptrider/internal/testnet"
)

// TestQuickBoundsInvariant drives the LB invariants with testing/quick
// over random vertex pairs and grid resolutions: for all (u, v),
// LB(u,v) ≤ dist(u,v), and the cell-pair bound is symmetric bit for
// bit.
func TestQuickBoundsInvariant(t *testing.T) {
	type world struct {
		g      *roadnet.Graph
		grid   *gridindex.Grid
		oracle *testnet.Oracle
	}
	worlds := make([]world, 0, 3)
	for i, res := range []int{2, 3, 5} {
		g := testnet.Lattice(rand.New(rand.NewSource(int64(i+40))), 7, 7, 100)
		grid, err := gridindex.Build(g, gridindex.Config{Cols: res, Rows: res})
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		worlds = append(worlds, world{g: g, grid: grid, oracle: testnet.NewOracle(g)})
	}

	f := func(wi uint8, a, b uint16) bool {
		w := worlds[int(wi)%len(worlds)]
		n := w.g.NumVertices()
		u := roadnet.VertexID(int(a) % n)
		v := roadnet.VertexID(int(b) % n)
		d := w.oracle.Dist(u, v)
		if w.grid.LB(u, v) > d {
			return false
		}
		// One stored bound per cell pair: exactly symmetric.
		ci, cj := w.grid.CellOf(u), w.grid.CellOf(v)
		return w.grid.CellLB(ci, cj) == w.grid.CellLB(cj, ci)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
