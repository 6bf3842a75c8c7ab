package gridindex

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"ptrider/internal/geo"
	"ptrider/internal/testnet"
)

// TestCellAtClampsOutOfBoundsPoints: a point far outside the graph's
// bounding box maps to the nearest corner cell.
func TestCellAtClampsOutOfBoundsPoints(t *testing.T) {
	g := testnet.Lattice(rand.New(rand.NewSource(15)), 5, 5, 100)
	gr, err := Build(g, Config{Cols: 2, Rows: 2})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	b := g.Bounds()
	far := geo.Point{X: b.Max.X + 1e6, Y: b.Max.Y + 1e6}
	if c := gr.cellAt(far); c != CellID(gr.NumCells()-1) {
		t.Errorf("cellAt(far NE) = %d, want last cell", c)
	}
	near := geo.Point{X: b.Min.X - 1e6, Y: b.Min.Y - 1e6}
	if c := gr.cellAt(near); c != 0 {
		t.Errorf("cellAt(far SW) = %d, want cell 0", c)
	}
}

// TestPlaceNonEmptyEpochWrap drives the duplicate-cell stamp across its
// wrap to zero: a stamp left from an old epoch equal to the restarted
// one must not make a fresh cell look taken, and a repeat must still be
// dropped.
func TestPlaceNonEmptyEpochWrap(t *testing.T) {
	vl := NewVehicleLists(4)
	vl.PlaceNonEmpty(1, []CellID{0}) // epoch 1 stamps cell 0
	vl.epoch = math.MaxUint32 - 1    // as after ~4 billion placements
	vl.PlaceNonEmpty(2, []CellID{2, 2, 3, 2})
	vl.PlaceNonEmpty(3, []CellID{1, 0, 1}) // wraps to 0 and restarts at 1
	if vl.epoch != 1 {
		t.Fatalf("epoch = %d after the wrap, want 1", vl.epoch)
	}
	for id, want := range map[VehicleID][]CellID{1: {0}, 2: {2, 3}, 3: {1, 0}} {
		if got, _, _ := registration(vl, id); !slices.Equal(got, want) {
			t.Errorf("cells of %d = %v, want %v", id, got, want)
		}
	}
	if got := vl.AppendNonEmpty(0, nil); !slices.Equal(got, []VehicleID{1, 3}) {
		t.Errorf("non-empty list of cell 0 = %v, want [1 3]", got)
	}
}
