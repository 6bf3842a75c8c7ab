package fleet

import (
	"fmt"
	"math/bits"

	"ptrider/internal/kinetic"
	"ptrider/internal/roadnet"
)

// This file is the durability surface of the fleet: exporting vehicle
// state for snapshots and rebuilding an identical fleet on recovery.
//
// The subtle part is the roaming stream. A vehicle's draws come from a
// counter-based generator whose whole state is (seed, n): draw n is a
// pure function of the seed and n, so a snapshot records n (RandDraws,
// the number of raw draws taken — rejected ones included) and restore
// sets it back in O(1). Counting raw draws rather than intn calls
// matters because intn rejects some draws, so call counts are not
// stream positions.

// roamStream is a vehicle's roaming generator: draw n is the SplitMix64
// finaliser of seed + n·γ. It is sixteen bytes because every taxi
// carries one; a math/rand source is a ~5 KB table.
type roamStream struct {
	seed, n uint64
}

const golden = 0x9E3779B97F4A7C15 // γ, the 64-bit golden-ratio increment

// next returns the stream's next raw draw and advances it.
func (s *roamStream) next() uint64 {
	z := s.seed + s.n*golden
	s.n++
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// intn returns a uniform draw in [0, k), k > 0, by Lemire's
// multiply-shift with rejection; every raw draw advances n.
func (s *roamStream) intn(k int) int {
	hi, lo := bits.Mul64(s.next(), uint64(k))
	if lo < uint64(k) {
		for t := -uint64(k) % uint64(k); lo < t; {
			hi, lo = bits.Mul64(s.next(), uint64(k))
		}
	}
	return int(hi)
}

// vehicleSeed derives vehicle id's roaming seed from the fleet seed.
// Golden-ratio mixing keeps neighbouring ids' streams apart; the
// derivation is a pure function of (fleet seed, id) so a rebuilt fleet
// roams identically.
func vehicleSeed(fleetSeed int64, id VehicleID) uint64 {
	return uint64(fleetSeed) ^ (uint64(id)+1)*golden
}

// VehicleState is the serialisable state of one vehicle: movement,
// roaming-stream position, and the kinetic tree's commitments.
type VehicleState struct {
	ID           VehicleID             `json:"id"`
	Loc          roadnet.VertexID      `json:"loc"`
	Odo          float64               `json:"odo"`
	RemainToRoot float64               `json:"remain_to_root"`
	Removed      bool                  `json:"removed,omitempty"`
	RandDraws    uint64                `json:"rand_draws"`
	Reqs         []kinetic.ReqSnapshot `json:"reqs,omitempty"`
}

// SnapshotState exports every vehicle's state in id order, each read
// under its own lock. Vehicles keep moving between two vehicles'
// reads; the engine serialises snapshots against ticks, which is the
// consistency the WAL contract needs.
func (f *Fleet) SnapshotState() []VehicleState {
	snap := f.Snapshot()
	out := make([]VehicleState, len(snap))
	for i, v := range snap {
		v.mu.Lock()
		out[i] = VehicleState{
			ID:           v.ID,
			Loc:          v.Tree.Root(),
			Odo:          v.Tree.Odometer(),
			RemainToRoot: v.remainToRoot,
			Removed:      v.removed,
			RandDraws:    v.roam.n,
			Reqs:         v.Tree.SnapshotReqs(),
		}
		v.mu.Unlock()
	}
	return out
}

// RestoreState rebuilds the vehicle population from a snapshot. The
// fleet must be freshly constructed (no vehicles). States must be in
// dense id order — the order SnapshotState produces — because vehicle
// ids are slice indices. Roaming streams are re-seeded from the fleet
// seed and set to their snapshot positions, so the restored walk
// continues exactly where the crashed one left off.
func (f *Fleet) RestoreState(states []VehicleState) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.vehicles) != 0 {
		return fmt.Errorf("fleet: restore into non-empty fleet (%d vehicles)", len(f.vehicles))
	}
	for i, st := range states {
		if st.ID != VehicleID(i) {
			return fmt.Errorf("fleet: restore state %d has id %d (states must be dense and ordered)", i, st.ID)
		}
		v := &Vehicle{
			ID:           st.ID,
			Tree:         kinetic.Restore(f.metric, f.capacity, f.maxPoints, st.Loc, st.Odo, st.Reqs),
			remainToRoot: st.RemainToRoot,
			removed:      st.Removed,
			roam:         roamStream{seed: vehicleSeed(f.seed, st.ID), n: st.RandDraws},
		}
		if !st.Removed {
			f.active++
			f.registerLocked(v)
		}
		f.vehicles = append(f.vehicles, v)
	}
	return nil
}

// RestoreCommit re-applies a journaled commit during replay: the
// candidate and waiting-time anchor come from the journal, bypassing
// the stale-candidate validation (the journal only holds commits that
// succeeded live). The grid registration is refreshed like Commit's.
func (f *Fleet) RestoreCommit(id VehicleID, req kinetic.Request, plannedPickupOdo float64) error {
	v, err := f.Vehicle(id)
	if err != nil {
		return err
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.removed {
		return fmt.Errorf("fleet: vehicle %d is out of service", id)
	}
	if err := v.Tree.RestoreCommit(req, plannedPickupOdo); err != nil {
		return err
	}
	f.registerLocked(v)
	return nil
}
