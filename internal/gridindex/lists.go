package gridindex

import "sync"

// VehicleID identifies a vehicle in the vehicle lists. It matches the
// fleet's vehicle identifiers: dense and non-negative.
type VehicleID = int32

// Registration kinds of a vehicle.
const (
	unregistered uint8 = iota
	registeredEmpty
	registeredNonEmpty
)

// listSlot is one registration of a vehicle: the cell whose list holds
// it and its index in that list.
type listSlot struct {
	cell CellID
	idx  int32
}

// VehicleLists is the dynamic layer of the grid index: per cell, the
// empty-vehicle list (vehicles with no assigned requests, listed in the
// cell of their current location) and the non-empty-vehicle list
// (vehicles with requests, listed in the cells of their location and
// of their pending stops), as in paper §3.2.1 items (iv)–(v).
//
// Each list is a plain slice: a registration appends, and a removal
// moves the list's last vehicle into the freed index. Per-vehicle state
// lives in slices indexed by the vehicle id: the registration kind and,
// per registration, the cell and the vehicle's index in that cell's
// list, so no operation scans a list.
//
// VehicleLists is safe for concurrent use: registrations are serialised
// by an internal read-write lock, and the read methods copy out under
// it so callers never observe a list mid-mutation. Matchers pass
// AppendEmpty/AppendNonEmpty a reused buffer to keep cell scans
// allocation-free.
type VehicleLists struct {
	mu       sync.RWMutex
	empty    [][]VehicleID
	nonEmpty [][]VehicleID

	// kind and slots are indexed by vehicle id: the registration kind
	// and the registrations (one when empty, one per distinct schedule
	// cell when non-empty, in placement order). A vehicle's slots
	// buffer is reused across its placements.
	kind  []uint8
	slots [][]listSlot

	// stamp[c] == epoch marks cell c as already taken by the running
	// PlaceNonEmpty, which drops a repeated cell that way.
	stamp []uint32
	epoch uint32
}

// NewVehicleLists returns empty lists for a grid with numCells cells.
func NewVehicleLists(numCells int) *VehicleLists {
	return &VehicleLists{
		empty:    make([][]VehicleID, numCells),
		nonEmpty: make([][]VehicleID, numCells),
		stamp:    make([]uint32, numCells),
	}
}

// PlaceEmpty registers vehicle id as an empty vehicle located in cell c,
// replacing any previous registration.
func (vl *VehicleLists) PlaceEmpty(id VehicleID, c CellID) {
	vl.mu.Lock()
	defer vl.mu.Unlock()
	vl.removeLocked(id)
	vl.grow(id)
	vl.slots[id] = append(vl.slots[id][:0], push(vl.empty, c, id))
	vl.kind[id] = registeredEmpty
}

// PlaceNonEmpty registers vehicle id as a non-empty vehicle in cells —
// the fleet passes the cells of its location and its pending stops —
// replacing any previous registration. Duplicate cells are tolerated.
func (vl *VehicleLists) PlaceNonEmpty(id VehicleID, cells []CellID) {
	vl.mu.Lock()
	defer vl.mu.Unlock()
	vl.removeLocked(id)
	vl.grow(id)
	vl.epoch++
	if vl.epoch == 0 { // wrapped: no stamp may alias the new epoch
		clear(vl.stamp)
		vl.epoch = 1
	}
	slots := vl.slots[id][:0]
	for _, c := range cells {
		if vl.stamp[c] == vl.epoch {
			continue
		}
		vl.stamp[c] = vl.epoch
		slots = append(slots, push(vl.nonEmpty, c, id))
	}
	vl.slots[id] = slots
	vl.kind[id] = registeredNonEmpty
}

// Remove deregisters vehicle id from every list. Removing an unknown
// vehicle is a no-op.
func (vl *VehicleLists) Remove(id VehicleID) {
	vl.mu.Lock()
	defer vl.mu.Unlock()
	vl.removeLocked(id)
}

// grow extends the per-vehicle slices to cover id.
func (vl *VehicleLists) grow(id VehicleID) {
	for int(id) >= len(vl.kind) {
		vl.kind = append(vl.kind, unregistered)
		vl.slots = append(vl.slots, nil)
	}
}

// push appends id to cell c's list in lists and returns the
// registration.
func push(lists [][]VehicleID, c CellID, id VehicleID) listSlot {
	lists[c] = append(lists[c], id)
	return listSlot{cell: c, idx: int32(len(lists[c]) - 1)}
}

func (vl *VehicleLists) removeLocked(id VehicleID) {
	k, ok := vl.kindLocked(id)
	if !ok {
		return
	}
	lists := vl.nonEmpty
	if k == registeredEmpty {
		lists = vl.empty
	}
	for _, s := range vl.slots[id] {
		list := lists[s.cell]
		last := len(list) - 1
		if moved := list[last]; int(s.idx) != last {
			list[s.idx] = moved
			vl.reindex(moved, s.cell, s.idx)
		}
		lists[s.cell] = list[:last]
	}
	vl.slots[id] = vl.slots[id][:0]
	vl.kind[id] = unregistered
}

// reindex records that vehicle id now sits at index idx of cell c's
// list, scanning the vehicle's own registrations for the cell's.
func (vl *VehicleLists) reindex(id VehicleID, c CellID, idx int32) {
	slots := vl.slots[id]
	for i := range slots {
		if slots[i].cell == c {
			slots[i].idx = idx
			return
		}
	}
}

// AppendEmpty appends the empty-vehicle list of cell c to buf and
// returns it — the allocation-free read for hot ring scans.
func (vl *VehicleLists) AppendEmpty(c CellID, buf []VehicleID) []VehicleID {
	vl.mu.RLock()
	defer vl.mu.RUnlock()
	return append(buf, vl.empty[c]...)
}

// AppendNonEmpty appends the non-empty-vehicle list of cell c to buf
// and returns it, with the same contract as AppendEmpty.
func (vl *VehicleLists) AppendNonEmpty(c CellID, buf []VehicleID) []VehicleID {
	vl.mu.RLock()
	defer vl.mu.RUnlock()
	return append(buf, vl.nonEmpty[c]...)
}

// FillSupply writes each cell's vehicle supply into counts under one
// read lock: the empty vehicles located in the cell plus the non-empty
// vehicles registered there — a busy vehicle counts in its own cell
// and in each of its pending stops' cells (it is available for pooling
// in each of them), not along its route. len(counts) must be the
// grid's cell count; extra entries are zeroed. This is the surge
// tracker's supply feed.
func (vl *VehicleLists) FillSupply(counts []int) {
	vl.mu.RLock()
	defer vl.mu.RUnlock()
	for c := range counts {
		if c < len(vl.empty) {
			counts[c] = len(vl.empty[c]) + len(vl.nonEmpty[c])
		} else {
			counts[c] = 0
		}
	}
}

// kindLocked returns the registration kind of id and whether it is
// registered.
func (vl *VehicleLists) kindLocked(id VehicleID) (uint8, bool) {
	if id < 0 || int(id) >= len(vl.kind) || vl.kind[id] == unregistered {
		return unregistered, false
	}
	return vl.kind[id], true
}
