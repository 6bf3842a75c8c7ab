package gridindex_test

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"ptrider/internal/gen"
	"ptrider/internal/gridindex"
	"ptrider/internal/roadnet"
	"ptrider/internal/testnet"
)

func buildLatticeGrid(t *testing.T, seed int64, w, h int, cols, rows int) (*roadnet.Graph, *gridindex.Grid) {
	t.Helper()
	g := testnet.Lattice(rand.New(rand.NewSource(seed)), w, h, 100)
	gr, err := gridindex.Build(g, gridindex.Config{Cols: cols, Rows: rows})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g, gr
}

func TestBuildValidation(t *testing.T) {
	g := testnet.Lattice(rand.New(rand.NewSource(1)), 3, 3, 100)
	if _, err := gridindex.Build(g, gridindex.Config{Cols: 0, Rows: 2}); err == nil {
		t.Error("Build accepted zero columns")
	}
	// More cells than a 16-bit ring entry can name must fail before
	// anything is allocated; 70,000² cells used to exhaust memory.
	city, err := gen.GenerateNetwork(gen.CityConfig{Width: 6, Height: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range [][2]int{
		{70_000, 70_000},
		{gridindex.MaxCells + 1, 1},
		{1, gridindex.MaxCells + 1},
		{257, 256},
		{math.MaxInt, 2}, // the product overflows int
		{1 << 32, 1 << 32},
	} {
		if _, err := gridindex.Build(city, gridindex.Config{Cols: res[0], Rows: res[1]}); err == nil {
			t.Errorf("Build accepted %dx%d cells", res[0], res[1])
		}
	}
}

func TestEveryVertexAssignedToExactlyOneCell(t *testing.T) {
	g, gr := buildLatticeGrid(t, 2, 10, 10, 4, 4)
	counts := make(map[roadnet.VertexID]int)
	for c := 0; c < gr.NumCells(); c++ {
		cell := gr.Cell(gridindex.CellID(c))
		for _, v := range cell.Vertices {
			counts[v]++
			if gr.CellOf(v) != cell.ID {
				t.Fatalf("vertex %d listed in cell %d but CellOf says %d", v, cell.ID, gr.CellOf(v))
			}
			if !cell.Rect.Contains(g.Point(v)) {
				t.Fatalf("vertex %d at %v outside its cell rect %+v", v, g.Point(v), cell.Rect)
			}
		}
	}
	if len(counts) != g.NumVertices() {
		t.Fatalf("assigned %d vertices, want %d", len(counts), g.NumVertices())
	}
	for v, n := range counts {
		if n != 1 {
			t.Fatalf("vertex %d assigned %d times", v, n)
		}
	}
}

func TestBorderVerticesAreExactlyCellSpanningEndpoints(t *testing.T) {
	g, gr := buildLatticeGrid(t, 3, 8, 8, 3, 3)
	want := make(map[roadnet.VertexID]bool)
	for u := 0; u < g.NumVertices(); u++ {
		for _, e := range g.Out(roadnet.VertexID(u)) {
			if gr.CellOf(roadnet.VertexID(u)) != gr.CellOf(e.To) {
				want[roadnet.VertexID(u)] = true
				want[e.To] = true
			}
		}
	}
	got := make(map[roadnet.VertexID]bool)
	for c := 0; c < gr.NumCells(); c++ {
		for _, b := range gr.Cell(gridindex.CellID(c)).Borders {
			if gr.CellOf(b) != gridindex.CellID(c) {
				t.Fatalf("border %d listed in foreign cell %d", b, c)
			}
			got[b] = true
		}
	}
	if len(got) != len(want) {
		t.Fatalf("border count %d, want %d", len(got), len(want))
	}
	for v := range want {
		if !got[v] {
			t.Fatalf("missing border vertex %d", v)
		}
	}
}

func TestLBNeverExceedsTrueDistance(t *testing.T) {
	g, gr := buildLatticeGrid(t, 4, 8, 8, 3, 3)
	s := roadnet.NewSearcher(g)
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 300; trial++ {
		u := roadnet.VertexID(rng.Intn(g.NumVertices()))
		v := roadnet.VertexID(rng.Intn(g.NumVertices()))
		d := s.Dist(u, v)
		if lb := gr.LB(u, v); lb > d {
			t.Fatalf("LB(%d,%d) = %v > dist %v", u, v, lb, d)
		}
	}
}

func TestSelfBoundsAreZero(t *testing.T) {
	_, gr := buildLatticeGrid(t, 7, 6, 6, 3, 3)
	for v := 0; v < gr.Graph().NumVertices(); v++ {
		if lb := gr.LB(roadnet.VertexID(v), roadnet.VertexID(v)); lb != 0 {
			t.Fatalf("LB(v,v) = %v", lb)
		}
	}
}

func TestCellLBSymmetricOnUndirectedGraph(t *testing.T) {
	_, gr := buildLatticeGrid(t, 8, 8, 8, 3, 3)
	for i := 0; i < gr.NumCells(); i++ {
		for j := 0; j < gr.NumCells(); j++ {
			a := gr.CellLB(gridindex.CellID(i), gridindex.CellID(j))
			b := gr.CellLB(gridindex.CellID(j), gridindex.CellID(i))
			if a != b {
				t.Fatalf("CellLB(%d,%d)=%v != CellLB(%d,%d)=%v", i, j, a, j, i, b)
			}
		}
	}
}

func TestRingSortedAndComplete(t *testing.T) {
	_, gr := buildLatticeGrid(t, 11, 8, 8, 4, 4)
	occupied := 0
	for c := 0; c < gr.NumCells(); c++ {
		if len(gr.Cell(gridindex.CellID(c)).Vertices) > 0 {
			occupied++
		}
	}
	for c := 0; c < gr.NumCells(); c++ {
		cell := gr.Cell(gridindex.CellID(c))
		if len(cell.Vertices) == 0 {
			if cell.Ring != nil {
				t.Fatalf("empty cell %d has a ring", c)
			}
			continue
		}
		if len(cell.Ring) != occupied {
			t.Fatalf("cell %d ring has %d entries, want %d", c, len(cell.Ring), occupied)
		}
		if gridindex.CellID(cell.Ring[0]) != cell.ID {
			t.Fatalf("cell %d ring does not start with itself: %v", c, cell.Ring[0])
		}
		seen := map[gridindex.CellID]bool{}
		for i, e := range cell.Ring {
			r := gridindex.CellID(e)
			if len(gr.Cell(r).Vertices) == 0 || seen[r] {
				t.Fatalf("cell %d ring entry %d: cell %d empty or repeated", c, i, r)
			}
			seen[r] = true
			if i == 0 {
				continue
			}
			prevID := gridindex.CellID(cell.Ring[i-1])
			prev, cur := gr.CellLB(cell.ID, prevID), gr.CellLB(cell.ID, r)
			if cur < prev || (cur == prev && r < prevID) {
				t.Fatalf("cell %d ring unsorted at %d", c, i)
			}
		}
	}
}

// TestGridFootprint pins the cost of the static index on the 40×40
// benchmark city at the default 16×16 cells: the heap Build leaves live
// after a GC (8 B per unordered cell pair plus 2 B per ring entry,
// ~0.4 MB; a full directed matrix and 32-bit rings retained 809,472 B)
// and the bytes it allocates on the way (one distance buffer reused by
// every cell's search). Both ceilings hold under -race too.
func TestGridFootprint(t *testing.T) {
	const retainCeiling, allocCeiling = 512 << 10, 1_500_000
	g, err := gen.GenerateNetwork(gen.CityConfig{Width: 40, Height: 40, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	gr, err := gridindex.Build(g, gridindex.Config{Cols: 16, Rows: 16})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(gr)
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	allocated := after.TotalAlloc - before.TotalAlloc
	t.Logf("Build retains %d B, allocates %d B in %d mallocs", retained, allocated, after.Mallocs-before.Mallocs)
	if retained > retainCeiling {
		t.Errorf("Build retains %d B, ceiling %d", retained, retainCeiling)
	}
	if allocated > allocCeiling {
		t.Errorf("Build allocates %d B, ceiling %d", allocated, allocCeiling)
	}
}

// TestRingsAscendInDirectedBound recomputes, per cell, the closest-border
// distance to every other cell by Dijkstra fills directed out of the
// cell's borders, apart from the hierarchy sweeps Build reads, and
// checks that each ring ascends in it on the benchmark cities.
func TestRingsAscendInDirectedBound(t *testing.T) {
	for _, city := range []struct {
		side int
		seed int64
	}{{40, 1}, {40, 7}, {24, 1}, {24, 2}} {
		g, err := gen.GenerateNetwork(gen.CityConfig{Width: city.side, Height: city.side, Seed: city.seed})
		if err != nil {
			t.Fatal(err)
		}
		gr, err := gridindex.Build(g, gridindex.Config{Cols: 16, Rows: 16})
		if err != nil {
			t.Fatal(err)
		}
		s := roadnet.NewSearcher(g)
		dist := make([]float64, g.NumVertices())
		directed := make([]float64, gr.NumCells())
		pairs, unordered := 0, 0
		for ci := 0; ci < gr.NumCells(); ci++ {
			cell := gr.Cell(gridindex.CellID(ci))
			if len(cell.Vertices) == 0 {
				continue
			}
			for cj := range directed {
				directed[cj] = math.Inf(1)
			}
			directed[ci] = 0
			for _, x := range cell.Borders {
				s.FillDists(x, roadnet.Inf, dist)
				for cj := range directed {
					if cj == ci {
						continue
					}
					for _, y := range gr.Cell(gridindex.CellID(cj)).Borders {
						directed[cj] = min(directed[cj], dist[y])
					}
				}
			}
			for k := 1; k < len(cell.Ring); k++ {
				pairs++
				if directed[cell.Ring[k]] < directed[cell.Ring[k-1]] {
					unordered++
				}
			}
		}
		t.Logf("%dx%d city, seed %d: %d of %d adjacent ring entries out of directed order", city.side, city.side, city.seed, unordered, pairs)
		if unordered > 0 {
			t.Errorf("%dx%d city, seed %d: %d of %d adjacent ring entries out of directed order", city.side, city.side, city.seed, unordered, pairs)
		}
	}
}

func TestSingleCellGridHasTrivialBounds(t *testing.T) {
	g := testnet.Lattice(rand.New(rand.NewSource(12)), 4, 4, 100)
	gr, err := gridindex.Build(g, gridindex.Config{Cols: 1, Rows: 1})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	// One cell: no borders, so LB falls back to Euclidean.
	if len(gr.Cell(0).Borders) != 0 {
		t.Error("single-cell grid should have no borders")
	}
	s := roadnet.NewSearcher(g)
	for trial := 0; trial < 50; trial++ {
		u := roadnet.VertexID(trial % g.NumVertices())
		v := roadnet.VertexID((trial * 7) % g.NumVertices())
		if lb := gr.LB(u, v); lb > s.Dist(u, v) {
			t.Fatalf("LB(%d,%d) = %v > dist", u, v, lb)
		}
	}
}
