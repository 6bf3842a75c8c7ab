package gridindex

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// modelSet is the reference list: a slice plus a map from id to index.
// Removal swaps the last element into the freed index.
type modelSet struct {
	items []VehicleID
	pos   map[VehicleID]int
}

func (s *modelSet) add(id VehicleID) bool {
	if s.pos == nil {
		s.pos = make(map[VehicleID]int)
	}
	if _, ok := s.pos[id]; ok {
		return false
	}
	s.pos[id] = len(s.items)
	s.items = append(s.items, id)
	return true
}

func (s *modelSet) remove(id VehicleID) {
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
	cellsOf         map[VehicleID][]CellID
	isEmpty         map[VehicleID]bool
}

func newModelLists(numCells int) *modelLists {
	return &modelLists{
		empty:    make([]modelSet, numCells),
		nonEmpty: make([]modelSet, numCells),
		cellsOf:  make(map[VehicleID][]CellID),
		isEmpty:  make(map[VehicleID]bool),
	}
}

func (m *modelLists) remove(id VehicleID) {
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

func (m *modelLists) placeEmpty(id VehicleID, c CellID) {
	m.remove(id)
	m.empty[c].add(id)
	m.cellsOf[id] = []CellID{c}
	m.isEmpty[id] = true
}

func (m *modelLists) placeNonEmpty(id VehicleID, cells []CellID) {
	m.remove(id)
	var reg []CellID
	for _, c := range cells {
		if m.nonEmpty[c].add(id) {
			reg = append(reg, c)
		}
	}
	m.cellsOf[id] = reg
	m.isEmpty[id] = false
}

// registration reads vehicle id's entry back from the lists: its cells
// in placement order, whether it is registered as empty, and whether it
// is registered at all.
func registration(vl *VehicleLists, id VehicleID) (cells []CellID, empty, registered bool) {
	k, ok := vl.kindLocked(id)
	if !ok {
		return nil, false, false
	}
	for _, s := range vl.slots[id] {
		cells = append(cells, s.cell)
	}
	return cells, k == registeredEmpty, true
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
		vl := NewVehicleLists(numCells)
		m := newModelLists(numCells)
		var cells []CellID
		for step := 0; step < steps; step++ {
			id := VehicleID(rng.Intn(numIDs))
			var op string
			switch r := rng.Intn(10); {
			case r < 3:
				c := CellID(rng.Intn(numCells))
				vl.PlaceEmpty(id, c)
				m.placeEmpty(id, c)
				op = fmt.Sprintf("PlaceEmpty(%d, %d)", id, c)
			case r < 8:
				// Few distinct cells over many draws: repeats are common.
				cells = cells[:0]
				for n := rng.Intn(8); len(cells) < n; {
					cells = append(cells, CellID(rng.Intn(numCells)))
				}
				vl.PlaceNonEmpty(id, cells)
				m.placeNonEmpty(id, cells)
				op = fmt.Sprintf("PlaceNonEmpty(%d, %v)", id, cells)
			default:
				vl.Remove(id)
				m.remove(id)
				op = fmt.Sprintf("Remove(%d)", id)
			}
			for c := CellID(0); c < numCells; c++ {
				if got, want := vl.AppendEmpty(c, nil), m.empty[c].items; !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d %s: Empty(%d) = %v, want %v", seed, step, op, c, got, want)
				}
				if got, want := vl.AppendNonEmpty(c, nil), m.nonEmpty[c].items; !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d %s: NonEmpty(%d) = %v, want %v", seed, step, op, c, got, want)
				}
			}
			// One id past each end of the range stays unregistered.
			registered := 0
			for v := VehicleID(-1); v <= numIDs; v++ {
				got, e, reg := registration(vl, v)
				if want := m.cellsOf[v]; !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d %s: cells of %d = %v, want %v", seed, step, op, v, got, want)
				}
				_, wantReg := m.cellsOf[v]
				if e != m.isEmpty[v] || reg != wantReg {
					t.Fatalf("seed %d step %d %s: vehicle %d empty, registered = %v, %v, want %v, %v", seed, step, op, v, e, reg, m.isEmpty[v], wantReg)
				}
				if reg {
					registered++
				}
			}
			if want := len(m.cellsOf); registered != want {
				t.Fatalf("seed %d step %d %s: %d registered, want %d", seed, step, op, registered, want)
			}
		}
	}
}

func TestVehicleListsPlacement(t *testing.T) {
	vl := NewVehicleLists(4)
	vl.PlaceEmpty(1, 0)
	vl.PlaceEmpty(2, 0)
	vl.PlaceNonEmpty(3, []CellID{1, 2, 2, 3})
	if got := vl.AppendEmpty(0, nil); len(got) != 2 {
		t.Fatalf("Empty(0) = %v", got)
	}
	for _, c := range []CellID{1, 2, 3} {
		if got := vl.AppendNonEmpty(c, nil); len(got) != 1 || got[0] != 3 {
			t.Fatalf("NonEmpty(%d) = %v", c, got)
		}
	}
	if cells, _, _ := registration(vl, 3); len(cells) != 3 {
		t.Fatalf("cells of 3 = %v, want 3 deduped cells", cells)
	}
	if _, e, reg := registration(vl, 1); !e || !reg {
		t.Error("vehicle 1 should be registered empty")
	}
	if _, e, reg := registration(vl, 3); e || !reg {
		t.Error("vehicle 3 should be registered non-empty")
	}
	if _, _, reg := registration(vl, 99); reg {
		t.Error("vehicle 99 should be unregistered")
	}
}

func TestVehicleListsTransitions(t *testing.T) {
	vl := NewVehicleLists(4)
	vl.PlaceEmpty(7, 1)
	vl.PlaceNonEmpty(7, []CellID{2, 3}) // empty → non-empty
	if got := vl.AppendEmpty(1, nil); len(got) != 0 {
		t.Fatalf("vehicle left in empty list: %v", got)
	}
	if got := vl.AppendNonEmpty(2, nil); len(got) != 1 {
		t.Fatalf("NonEmpty(2) = %v", got)
	}
	vl.PlaceEmpty(7, 0) // non-empty → empty
	if len(vl.AppendNonEmpty(2, nil)) != 0 || len(vl.AppendNonEmpty(3, nil)) != 0 {
		t.Fatal("vehicle left in non-empty lists")
	}
	if got := vl.AppendEmpty(0, nil); len(got) != 1 || got[0] != 7 {
		t.Fatalf("Empty(0) = %v", got)
	}
	vl.Remove(7)
	if _, _, reg := registration(vl, 7); reg {
		t.Fatal("vehicle 7 still registered after Remove")
	}
	vl.Remove(7) // idempotent
}

func TestVehicleListsManyVehicles(t *testing.T) {
	vl := NewVehicleLists(10)
	rng := rand.New(rand.NewSource(16))
	// Mirror of expected state: vehicle → (empty?, cells).
	type reg struct {
		empty bool
		cells []CellID
	}
	mirror := make(map[VehicleID]reg)
	for op := 0; op < 5000; op++ {
		id := VehicleID(rng.Intn(50))
		switch rng.Intn(3) {
		case 0:
			c := CellID(rng.Intn(10))
			vl.PlaceEmpty(id, c)
			mirror[id] = reg{empty: true, cells: []CellID{c}}
		case 1:
			n := 1 + rng.Intn(4)
			cells := make([]CellID, n)
			seen := map[CellID]bool{}
			uniq := cells[:0]
			for i := 0; i < n; i++ {
				cells[i] = CellID(rng.Intn(10))
				if !seen[cells[i]] {
					seen[cells[i]] = true
					uniq = append(uniq, cells[i])
				}
			}
			vl.PlaceNonEmpty(id, cells)
			mirror[id] = reg{empty: false, cells: append([]CellID(nil), uniq...)}
		case 2:
			vl.Remove(id)
			delete(mirror, id)
		}
	}
	for id := VehicleID(0); id < 50; id++ {
		_, _, reg := registration(vl, id)
		if _, want := mirror[id]; reg != want {
			t.Fatalf("vehicle %d registered = %v, want %v", id, reg, want)
		}
	}
	// Rebuild per-cell sets from the mirror and compare.
	for c := CellID(0); c < 10; c++ {
		wantEmpty := map[VehicleID]bool{}
		wantNon := map[VehicleID]bool{}
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
		gotEmpty := vl.AppendEmpty(c, nil)
		if len(gotEmpty) != len(wantEmpty) {
			t.Fatalf("cell %d empty list len %d, want %d", c, len(gotEmpty), len(wantEmpty))
		}
		for _, id := range gotEmpty {
			if !wantEmpty[id] {
				t.Fatalf("cell %d empty list has unexpected %d", c, id)
			}
		}
		gotNon := vl.AppendNonEmpty(c, nil)
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

// BenchmarkPlaceNonEmpty re-registers vehicles of a 2,000-vehicle
// fleet on a 16×16 grid, each with the given number of schedule cells.
func BenchmarkPlaceNonEmpty(b *testing.B) {
	const numCells, numVehicles = 256, 2000
	for _, perVehicle := range []int{2, 20} {
		b.Run(fmt.Sprintf("cells=%d", perVehicle), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			schedules := make([][]CellID, 64)
			for i := range schedules {
				for len(schedules[i]) < perVehicle {
					schedules[i] = append(schedules[i], CellID(rng.Intn(numCells)))
				}
			}
			vl := NewVehicleLists(numCells)
			for id := 0; id < numVehicles; id++ {
				vl.PlaceNonEmpty(VehicleID(id), schedules[id%len(schedules)])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				vl.PlaceNonEmpty(VehicleID(i%numVehicles), schedules[(i+i/numVehicles)%len(schedules)])
			}
		})
	}
}
