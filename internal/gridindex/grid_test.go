package gridindex_test

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"ptrider/internal/gen"
	"ptrider/internal/geo"
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
	plain := testnet.RandomConnected(rand.New(rand.NewSource(1)), 10, 1)
	if _, err := gridindex.Build(plain, gridindex.Config{Cols: 2, Rows: 2}); err == nil {
		t.Error("Build accepted non-embedded graph")
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
		if lb := gr.LB(u, v); lb > d+1e-9 {
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
			if math.Abs(a-b) > 1e-9 && !(math.IsInf(a, 1) && math.IsInf(b, 1)) {
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
		if cell.Ring[0] != cell.ID {
			t.Fatalf("cell %d ring does not start with itself: %v", c, cell.Ring[0])
		}
		seen := map[gridindex.CellID]bool{}
		for i, r := range cell.Ring {
			if len(gr.Cell(r).Vertices) == 0 || seen[r] {
				t.Fatalf("cell %d ring entry %d: cell %d empty or repeated", c, i, r)
			}
			seen[r] = true
			if i == 0 {
				continue
			}
			prev, cur := gr.CellLB(cell.ID, cell.Ring[i-1]), gr.CellLB(cell.ID, r)
			if cur < prev || (cur == prev && r < cell.Ring[i-1]) {
				t.Fatalf("cell %d ring unsorted at %d", c, i)
			}
		}
	}
}

// TestGridFootprint pins the cost of the static index on the 40×40
// benchmark city at the default 16×16 cells: the heap Build leaves live
// after a GC (8 B per cell pair plus 4 B per ring entry, ~0.8 MB) and
// the bytes it allocates on the way (one distance buffer reused by
// every cell's search). Both ceilings hold under -race too.
func TestGridFootprint(t *testing.T) {
	const retainCeiling, allocCeiling = 1 << 20, 1_500_000
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
		if lb := gr.LB(u, v); lb > s.Dist(u, v)+1e-9 {
			t.Fatalf("LB(%d,%d) = %v > dist", u, v, lb)
		}
	}
}

func TestCellAtClampsOutOfBoundsPoints(t *testing.T) {
	g, gr := buildLatticeGrid(t, 15, 5, 5, 2, 2)
	b := g.Bounds()
	far := geo.Point{X: b.Max.X + 1e6, Y: b.Max.Y + 1e6}
	if c := gr.CellAt(far); c != gridindex.CellID(gr.NumCells()-1) {
		t.Errorf("CellAt(far NE) = %d, want last cell", c)
	}
	near := geo.Point{X: b.Min.X - 1e6, Y: b.Min.Y - 1e6}
	if c := gr.CellAt(near); c != 0 {
		t.Errorf("CellAt(far SW) = %d, want cell 0", c)
	}
}

func TestVehicleListsPlacement(t *testing.T) {
	vl := gridindex.NewVehicleLists(4)
	vl.PlaceEmpty(1, 0)
	vl.PlaceEmpty(2, 0)
	vl.PlaceNonEmpty(3, []gridindex.CellID{1, 2, 2, 3})
	if got := vl.Empty(0); len(got) != 2 {
		t.Fatalf("Empty(0) = %v", got)
	}
	for _, c := range []gridindex.CellID{1, 2, 3} {
		if got := vl.NonEmpty(c); len(got) != 1 || got[0] != 3 {
			t.Fatalf("NonEmpty(%d) = %v", c, got)
		}
	}
	if cells := vl.Cells(3); len(cells) != 3 {
		t.Fatalf("Cells(3) = %v, want 3 deduped cells", cells)
	}
	if e, reg := vl.IsEmptyVehicle(1); !e || !reg {
		t.Error("vehicle 1 should be registered empty")
	}
	if e, reg := vl.IsEmptyVehicle(3); e || !reg {
		t.Error("vehicle 3 should be registered non-empty")
	}
	if _, reg := vl.IsEmptyVehicle(99); reg {
		t.Error("vehicle 99 should be unregistered")
	}
}

func TestVehicleListsTransitions(t *testing.T) {
	vl := gridindex.NewVehicleLists(4)
	vl.PlaceEmpty(7, 1)
	vl.PlaceNonEmpty(7, []gridindex.CellID{2, 3}) // empty → non-empty
	if got := vl.Empty(1); len(got) != 0 {
		t.Fatalf("vehicle left in empty list: %v", got)
	}
	if got := vl.NonEmpty(2); len(got) != 1 {
		t.Fatalf("NonEmpty(2) = %v", got)
	}
	vl.PlaceEmpty(7, 0) // non-empty → empty
	if len(vl.NonEmpty(2)) != 0 || len(vl.NonEmpty(3)) != 0 {
		t.Fatal("vehicle left in non-empty lists")
	}
	if got := vl.Empty(0); len(got) != 1 || got[0] != 7 {
		t.Fatalf("Empty(0) = %v", got)
	}
	vl.Remove(7)
	if vl.NumRegistered() != 0 {
		t.Fatalf("NumRegistered = %d after Remove", vl.NumRegistered())
	}
	vl.Remove(7) // idempotent
}

func TestVehicleListsManyVehicles(t *testing.T) {
	vl := gridindex.NewVehicleLists(10)
	rng := rand.New(rand.NewSource(16))
	// Mirror of expected state: vehicle → (empty?, cells).
	type reg struct {
		empty bool
		cells []gridindex.CellID
	}
	mirror := make(map[gridindex.VehicleID]reg)
	for op := 0; op < 5000; op++ {
		id := gridindex.VehicleID(rng.Intn(50))
		switch rng.Intn(3) {
		case 0:
			c := gridindex.CellID(rng.Intn(10))
			vl.PlaceEmpty(id, c)
			mirror[id] = reg{empty: true, cells: []gridindex.CellID{c}}
		case 1:
			n := 1 + rng.Intn(4)
			cells := make([]gridindex.CellID, n)
			seen := map[gridindex.CellID]bool{}
			uniq := cells[:0]
			for i := 0; i < n; i++ {
				cells[i] = gridindex.CellID(rng.Intn(10))
				if !seen[cells[i]] {
					seen[cells[i]] = true
					uniq = append(uniq, cells[i])
				}
			}
			vl.PlaceNonEmpty(id, cells)
			mirror[id] = reg{empty: false, cells: append([]gridindex.CellID(nil), uniq...)}
		case 2:
			vl.Remove(id)
			delete(mirror, id)
		}
	}
	if vl.NumRegistered() != len(mirror) {
		t.Fatalf("NumRegistered = %d, want %d", vl.NumRegistered(), len(mirror))
	}
	// Rebuild per-cell sets from the mirror and compare.
	for c := gridindex.CellID(0); c < 10; c++ {
		wantEmpty := map[gridindex.VehicleID]bool{}
		wantNon := map[gridindex.VehicleID]bool{}
		for id, r := range mirror {
			for _, rc := range r.cells {
				if rc == c {
					if r.empty {
						wantEmpty[id] = true
					} else {
						wantNon[id] = true
					}
				}
			}
		}
		gotEmpty := vl.Empty(c)
		if len(gotEmpty) != len(wantEmpty) {
			t.Fatalf("cell %d empty list len %d, want %d", c, len(gotEmpty), len(wantEmpty))
		}
		for _, id := range gotEmpty {
			if !wantEmpty[id] {
				t.Fatalf("cell %d empty list has unexpected %d", c, id)
			}
		}
		gotNon := vl.NonEmpty(c)
		if len(gotNon) != len(wantNon) {
			t.Fatalf("cell %d non-empty list len %d, want %d", c, len(gotNon), len(wantNon))
		}
		for _, id := range gotNon {
			if !wantNon[id] {
				t.Fatalf("cell %d non-empty list has unexpected %d", c, id)
			}
		}
	}
}
