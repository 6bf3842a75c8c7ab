package gridindex

import "sync"

// VehicleID identifies a vehicle in the vehicle lists. It matches the
// fleet's vehicle identifiers.
type VehicleID = int32

// idSet is a compact set of vehicle ids supporting O(1) add/remove and
// allocation-free iteration over a slice. Removal swaps with the last
// element, so iteration order is unspecified.
type idSet struct {
	items []VehicleID
	pos   map[VehicleID]int
}

func (s *idSet) add(id VehicleID) bool {
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

func (s *idSet) remove(id VehicleID) bool {
	i, ok := s.pos[id]
	if !ok {
		return false
	}
	last := len(s.items) - 1
	moved := s.items[last]
	s.items[i] = moved
	s.pos[moved] = i
	s.items = s.items[:last]
	delete(s.pos, id)
	return true
}

// VehicleLists is the dynamic layer of the grid index: per cell, the
// empty-vehicle list (vehicles with no assigned requests, listed in the
// cell of their current location) and the non-empty-vehicle list
// (vehicles whose planned trip schedules pass through the cell), as in
// paper §3.2.1 items (iv)–(v).
//
// VehicleLists is safe for concurrent use: registrations are serialised
// by an internal read-write lock, and the read methods return snapshot
// copies so callers never observe a list mid-mutation. Matchers on the
// hot path use AppendEmpty/AppendNonEmpty with a reused buffer to keep
// cell scans allocation-free.
type VehicleLists struct {
	mu       sync.RWMutex
	empty    []idSet
	nonEmpty []idSet
	// cellsOf tracks, per vehicle, the cells the vehicle is currently
	// registered in (one cell when empty, the schedule's cells when
	// non-empty), so that re-registration does not scan the whole grid.
	cellsOf map[VehicleID][]CellID
	isEmpty map[VehicleID]bool
}

// NewVehicleLists returns empty lists for a grid with numCells cells.
func NewVehicleLists(numCells int) *VehicleLists {
	return &VehicleLists{
		empty:    make([]idSet, numCells),
		nonEmpty: make([]idSet, numCells),
		cellsOf:  make(map[VehicleID][]CellID),
		isEmpty:  make(map[VehicleID]bool),
	}
}

// PlaceEmpty registers vehicle id as an empty vehicle located in cell c,
// replacing any previous registration.
func (vl *VehicleLists) PlaceEmpty(id VehicleID, c CellID) {
	vl.mu.Lock()
	defer vl.mu.Unlock()
	vl.removeLocked(id)
	vl.empty[c].add(id)
	vl.cellsOf[id] = append(vl.cellsOf[id][:0], c)
	vl.isEmpty[id] = true
}

// PlaceNonEmpty registers vehicle id as a non-empty vehicle whose
// schedule passes through cells, replacing any previous registration.
// Duplicate cells are tolerated.
func (vl *VehicleLists) PlaceNonEmpty(id VehicleID, cells []CellID) {
	vl.mu.Lock()
	defer vl.mu.Unlock()
	vl.removeLocked(id)
	reg := vl.cellsOf[id][:0]
	for _, c := range cells {
		if vl.nonEmpty[c].add(id) {
			reg = append(reg, c)
		}
	}
	vl.cellsOf[id] = reg
	vl.isEmpty[id] = false
}

// Remove deregisters vehicle id from every list. Removing an unknown
// vehicle is a no-op.
func (vl *VehicleLists) Remove(id VehicleID) {
	vl.mu.Lock()
	defer vl.mu.Unlock()
	vl.removeLocked(id)
}

func (vl *VehicleLists) removeLocked(id VehicleID) {
	cells, ok := vl.cellsOf[id]
	if !ok {
		return
	}
	if vl.isEmpty[id] {
		for _, c := range cells {
			vl.empty[c].remove(id)
		}
	} else {
		for _, c := range cells {
			vl.nonEmpty[c].remove(id)
		}
	}
	delete(vl.cellsOf, id)
	delete(vl.isEmpty, id)
}

// Empty returns a snapshot copy of the empty-vehicle list of cell c.
func (vl *VehicleLists) Empty(c CellID) []VehicleID {
	return vl.AppendEmpty(c, nil)
}

// NonEmpty returns a snapshot copy of the non-empty-vehicle list of
// cell c.
func (vl *VehicleLists) NonEmpty(c CellID) []VehicleID {
	return vl.AppendNonEmpty(c, nil)
}

// AppendEmpty appends the empty-vehicle list of cell c to buf and
// returns it — the allocation-free read for hot ring scans.
func (vl *VehicleLists) AppendEmpty(c CellID, buf []VehicleID) []VehicleID {
	vl.mu.RLock()
	defer vl.mu.RUnlock()
	return append(buf, vl.empty[c].items...)
}

// AppendNonEmpty appends the non-empty-vehicle list of cell c to buf
// and returns it, with the same contract as AppendEmpty.
func (vl *VehicleLists) AppendNonEmpty(c CellID, buf []VehicleID) []VehicleID {
	vl.mu.RLock()
	defer vl.mu.RUnlock()
	return append(buf, vl.nonEmpty[c].items...)
}

// FillSupply writes each cell's vehicle supply into counts under one
// read lock: the empty vehicles located in the cell plus the non-empty
// vehicles whose schedules pass through it (a busy vehicle therefore
// counts in every cell it serves — it is genuinely available for
// pooling in each of them). len(counts) must be the grid's cell count;
// extra entries are zeroed. This is the surge tracker's supply feed.
func (vl *VehicleLists) FillSupply(counts []int) {
	vl.mu.RLock()
	defer vl.mu.RUnlock()
	for c := range counts {
		if c < len(vl.empty) {
			counts[c] = len(vl.empty[c].items) + len(vl.nonEmpty[c].items)
		} else {
			counts[c] = 0
		}
	}
}

// Cells returns a snapshot copy of the cells vehicle id is currently
// registered in. It returns nil for unknown ids.
func (vl *VehicleLists) Cells(id VehicleID) []CellID {
	vl.mu.RLock()
	defer vl.mu.RUnlock()
	cells, ok := vl.cellsOf[id]
	if !ok {
		return nil
	}
	return append([]CellID(nil), cells...)
}

// IsEmptyVehicle reports whether id is registered as an empty vehicle.
// The second result reports whether the vehicle is registered at all.
func (vl *VehicleLists) IsEmptyVehicle(id VehicleID) (empty, registered bool) {
	vl.mu.RLock()
	defer vl.mu.RUnlock()
	e, ok := vl.isEmpty[id]
	return e, ok
}

// NumRegistered returns the number of registered vehicles.
func (vl *VehicleLists) NumRegistered() int {
	vl.mu.RLock()
	defer vl.mu.RUnlock()
	return len(vl.cellsOf)
}
