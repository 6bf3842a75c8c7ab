package kinetic

import "ptrider/internal/roadnet"

// This file is the durability surface of the kinetic tree: exporting a
// tree's commitment state for snapshots and rebuilding an identical
// tree on recovery. The schedules are never serialised — they are a
// pure function of (root, odometer, pending requests) and are
// re-enumerated lazily after restore.

// ReqSnapshot is the serialisable state of one pending request inside a
// tree: the public Request plus the commitment fields that Commit and
// Pickup anchor to the odometer.
type ReqSnapshot struct {
	Req              Request `json:"req"`
	PickupDeadline   float64 `json:"pickup_deadline"`
	DropoffDeadline  float64 `json:"dropoff_deadline"`
	PlannedPickupOdo float64 `json:"planned_pickup_odo"`
	Onboard          bool    `json:"onboard"`
}

// SnapshotReqs exports the pending requests in commit order — the
// order Restore needs to rebuild the identical point sequence.
func (t *Tree) SnapshotReqs() []ReqSnapshot {
	out := make([]ReqSnapshot, len(t.reqs))
	for i, r := range t.reqs {
		out[i] = ReqSnapshot{
			Req:              r.Request,
			PickupDeadline:   r.pickupDeadline,
			DropoffDeadline:  r.dropoffDeadline,
			PlannedPickupOdo: r.plannedPickupOdo,
			Onboard:          r.onboard,
		}
	}
	return out
}

// Restore rebuilds a tree from a snapshot. The pending-point sequence
// is reconstructed exactly as the live tree held it: Commit appends
// [pickup, dropoff] per request in commit order and Pickup removes only
// the pickup point, so per request (in snapshot order) the points are
// the pickup (unless onboard) followed by the dropoff. Restoring in
// that order preserves enumeration order, which keeps recovered trees
// golden-equivalent to uncrashed ones.
func Restore(m Metric, capacity, maxPoints int, loc roadnet.VertexID, odo float64, reqs []ReqSnapshot) *Tree {
	t := New(m, capacity, maxPoints, loc, odo)
	for _, s := range reqs {
		st := &reqState{
			Request:          s.Req,
			pickupDeadline:   s.PickupDeadline,
			dropoffDeadline:  s.DropoffDeadline,
			plannedPickupOdo: s.PlannedPickupOdo,
			onboard:          s.Onboard,
		}
		t.reqs = append(t.reqs, st)
		ri := len(t.reqs) - 1
		if !s.Onboard {
			t.pts = append(t.pts, Point{Loc: s.Req.S, Kind: Pickup, Req: s.Req.ID})
			t.reqIdx = append(t.reqIdx, ri)
		}
		t.pts = append(t.pts, Point{Loc: s.Req.D, Kind: Dropoff, Req: s.Req.ID})
		t.reqIdx = append(t.reqIdx, ri)
	}
	t.dirty = len(t.pts) > 0
	return t
}

// RestoreCommit re-applies a journaled commit during replay: like
// Commit, but the waiting-time anchor comes from the journal (the
// planned pickup odometer recorded when the commit really happened)
// instead of being re-derived from a candidate, so replayed deadlines
// are bit-identical to the originals regardless of quote determinism.
// No stale-candidate rollback: the journal only holds commits that
// succeeded.
func (t *Tree) RestoreCommit(req Request, plannedPickupOdo float64) error {
	return t.add(&reqState{
		Request:          req,
		pickupDeadline:   plannedPickupOdo + req.WaitBudget,
		plannedPickupOdo: plannedPickupOdo,
	})
}
