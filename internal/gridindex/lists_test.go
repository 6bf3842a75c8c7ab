package gridindex_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ptrider/internal/gridindex"
)

// modelSet is the reference list: a slice plus a map from id to index.
// Removal swaps the last element into the freed index.
type modelSet struct {
	items []gridindex.VehicleID
	pos   map[gridindex.VehicleID]int
}

func (s *modelSet) add(id gridindex.VehicleID) bool {
	if s.pos == nil {
		s.pos = make(map[gridindex.VehicleID]int)
	}
	if _, ok := s.pos[id]; ok {
		return false
	}
	s.pos[id] = len(s.items)
	s.items = append(s.items, id)
	return true
}

func (s *modelSet) remove(id gridindex.VehicleID) {
	i, ok := s.pos[id]
	if !ok {
		return
	}
	last := len(s.items) - 1
	moved := s.items[last]
	s.items[i] = moved
	s.pos[moved] = i
	s.items = s.items[:last]
	delete(s.pos, id)
}

// modelLists is the map-backed reference for VehicleLists: the same
// placements, the same per-cell order.
type modelLists struct {
	empty, nonEmpty []modelSet
	cellsOf         map[gridindex.VehicleID][]gridindex.CellID
	isEmpty         map[gridindex.VehicleID]bool
}

func newModelLists(numCells int) *modelLists {
	return &modelLists{
		empty:    make([]modelSet, numCells),
		nonEmpty: make([]modelSet, numCells),
		cellsOf:  make(map[gridindex.VehicleID][]gridindex.CellID),
		isEmpty:  make(map[gridindex.VehicleID]bool),
	}
}

func (m *modelLists) remove(id gridindex.VehicleID) {
	cells, ok := m.cellsOf[id]
	if !ok {
		return
	}
	sets := m.nonEmpty
	if m.isEmpty[id] {
		sets = m.empty
	}
	for _, c := range cells {
		sets[c].remove(id)
	}
	delete(m.cellsOf, id)
	delete(m.isEmpty, id)
}

func (m *modelLists) placeEmpty(id gridindex.VehicleID, c gridindex.CellID) {
	m.remove(id)
	m.empty[c].add(id)
	m.cellsOf[id] = []gridindex.CellID{c}
	m.isEmpty[id] = true
}

func (m *modelLists) placeNonEmpty(id gridindex.VehicleID, cells []gridindex.CellID) {
	m.remove(id)
	var reg []gridindex.CellID
	for _, c := range cells {
		if m.nonEmpty[c].add(id) {
			reg = append(reg, c)
		}
	}
	m.cellsOf[id] = reg
	m.isEmpty[id] = false
}

// TestVehicleListsMatchModel runs seeded scripts of placements and
// removals against the map-backed reference and compares, after every
// call, each cell's lists in order, every vehicle's cells and kind, and
// the registered count. List order feeds the matchers' probe order, so
// it must match the reference exactly, not just as a set.
func TestVehicleListsMatchModel(t *testing.T) {
	const numCells, numIDs, steps = 12, 60, 2500
	for _, seed := range []int64{1, 2, 3, 4} {
		rng := rand.New(rand.NewSource(seed))
		vl := gridindex.NewVehicleLists(numCells)
		m := newModelLists(numCells)
		var cells []gridindex.CellID
		for step := 0; step < steps; step++ {
			id := gridindex.VehicleID(rng.Intn(numIDs))
			var op string
			switch r := rng.Intn(10); {
			case r < 3:
				c := gridindex.CellID(rng.Intn(numCells))
				vl.PlaceEmpty(id, c)
				m.placeEmpty(id, c)
				op = fmt.Sprintf("PlaceEmpty(%d, %d)", id, c)
			case r < 8:
				// Few distinct cells over many draws: repeats are common.
				cells = cells[:0]
				for n := rng.Intn(8); len(cells) < n; {
					cells = append(cells, gridindex.CellID(rng.Intn(numCells)))
				}
				vl.PlaceNonEmpty(id, cells)
				m.placeNonEmpty(id, cells)
				op = fmt.Sprintf("PlaceNonEmpty(%d, %v)", id, cells)
			default:
				vl.Remove(id)
				m.remove(id)
				op = fmt.Sprintf("Remove(%d)", id)
			}
			for c := gridindex.CellID(0); c < numCells; c++ {
				if got, want := vl.Empty(c), m.empty[c].items; !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d %s: Empty(%d) = %v, want %v", seed, step, op, c, got, want)
				}
				if got, want := vl.NonEmpty(c), m.nonEmpty[c].items; !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d %s: NonEmpty(%d) = %v, want %v", seed, step, op, c, got, want)
				}
			}
			// One id past each end of the range stays unregistered.
			for v := gridindex.VehicleID(-1); v <= numIDs; v++ {
				if got, want := vl.Cells(v), m.cellsOf[v]; !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d %s: Cells(%d) = %v, want %v", seed, step, op, v, got, want)
				}
				_, wantReg := m.cellsOf[v]
				if e, reg := vl.IsEmptyVehicle(v); e != m.isEmpty[v] || reg != wantReg {
					t.Fatalf("seed %d step %d %s: IsEmptyVehicle(%d) = %v, %v, want %v, %v", seed, step, op, v, e, reg, m.isEmpty[v], wantReg)
				}
			}
			if got, want := vl.NumRegistered(), len(m.cellsOf); got != want {
				t.Fatalf("seed %d step %d %s: NumRegistered = %d, want %d", seed, step, op, got, want)
			}
		}
	}
}

// BenchmarkPlaceNonEmpty re-registers vehicles of a 2,000-vehicle
// fleet on a 16×16 grid, each with the given number of schedule cells.
func BenchmarkPlaceNonEmpty(b *testing.B) {
	const numCells, numVehicles = 256, 2000
	for _, perVehicle := range []int{2, 20} {
		b.Run(fmt.Sprintf("cells=%d", perVehicle), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			schedules := make([][]gridindex.CellID, 64)
			for i := range schedules {
				for len(schedules[i]) < perVehicle {
					schedules[i] = append(schedules[i], gridindex.CellID(rng.Intn(numCells)))
				}
			}
			vl := gridindex.NewVehicleLists(numCells)
			for id := 0; id < numVehicles; id++ {
				vl.PlaceNonEmpty(gridindex.VehicleID(id), schedules[id%len(schedules)])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				vl.PlaceNonEmpty(gridindex.VehicleID(i%numVehicles), schedules[(i+i/numVehicles)%len(schedules)])
			}
		})
	}
}
