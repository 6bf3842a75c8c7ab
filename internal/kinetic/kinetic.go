// Package kinetic implements the kinetic tree of valid vehicle trip
// schedules (paper §3.2.2, after Huang et al.'s Noah [7]): for one
// vehicle, the set c.Str of all trip schedules that satisfy the four
// validity conditions of Definition 2 — capacity, point order, waiting
// time, and service constraint. The tree stores the committed points
// and requests, not the schedules: the valid schedules are enumerated
// on demand by one pruned depth-first walk (enumerate.go), which keeps
// what product code reads — the shortest schedule as a permutation word
// over the points, its distance, the schedule count and the longest
// leg. The paper's trie, whose branches share common prefixes and whose
// nodes carry the occupancy after serving them and dist_tr, the travel
// distance from the vehicle's current location, is that walk's
// recursion; it is never built, and Branches lists its schedules.
//
// Distances are metres; time is distance via the system's constant
// speed, so waiting-time budgets arrive here already converted to
// distance. Budgets are stored as absolute odometer deadlines: the
// waiting-time constraint "actual pickup at most w after planned
// pickup" becomes "odometer at pickup ≤ odometer at assignment +
// planned pickup distance + w·speed", which stays meaningful as the
// vehicle moves and re-plans.
//
// The stored results are refreshed lazily by enumerating, with budget-
// and bound-based pruning, every valid ordering of the pending points;
// a quote is the same walk over the pending points plus the quoted
// pair. The enumeration consults the exact distance only after a cheap
// lower bound fails to prune the extension — the paper's improvement
// (ii) over Noah, which computes all distances up front. A quote may
// also carry the caller's Bound (a matcher's running skyline): a
// partial schedule is cut once lower bounds on the pick-up distance and
// detour delta of every schedule completing it are ones the caller
// would reject, so a vehicle's candidates that the match would discard
// are mostly never enumerated.
//
// A tree keeps its schedule, not the walk's workspace (point copies,
// the lazy distance matrix, the quote skyline): each walk takes one
// from a package-level bounded free list and returns it when done, so a
// fleet of trees shares as many workspaces as it runs walks at once.
package kinetic

import (
	"fmt"
	"slices"

	"ptrider/internal/roadnet"
)

// RequestID identifies a ridesharing request across the system.
type RequestID int64

// Metric supplies network distances to the tree: Dist is the exact
// shortest-path distance and LB a cheap lower bound of it (from the
// grid index; zero is always sound). Implementations should memoise
// Dist — the tree calls it repeatedly with the same arguments during
// enumeration.
type Metric interface {
	Dist(u, v roadnet.VertexID) float64
	LB(u, v roadnet.VertexID) float64
}

// PointKind distinguishes pickup from dropoff points.
type PointKind uint8

// Point kinds.
const (
	Pickup PointKind = iota
	Dropoff
)

func (k PointKind) String() string {
	if k == Pickup {
		return "pickup"
	}
	return "dropoff"
}

// Point is one stop of a trip schedule.
type Point struct {
	Loc  roadnet.VertexID
	Kind PointKind
	Req  RequestID
}

// Request is the kinetic-level view of a ridesharing request
// R = ⟨s, d, n, w, σ⟩, with the time-dependent fields pre-converted to
// distances by the caller.
type Request struct {
	ID     RequestID
	S, D   roadnet.VertexID
	Riders int
	// SD is dist(S, D), computed once by the caller.
	SD float64
	// ServiceLimit is (1+σ)·dist(S,D): the maximal in-vehicle distance
	// from pickup to dropoff.
	ServiceLimit float64
	// WaitBudget is w·speed: the maximal extra distance the vehicle may
	// drive before the pickup compared with the plan quoted at
	// assignment time.
	WaitBudget float64
}

// reqState is a Request plus its commitment state inside one tree.
type reqState struct {
	Request
	pickupDeadline   float64 // odometer bound for the pickup; +Inf before commit finalises it
	dropoffDeadline  float64 // odometer bound for the dropoff; set at pickup
	plannedPickupOdo float64
	onboard          bool
}

// Candidate is one feasible way to serve a quoted request, as the
// numbers a quote offers: the planned pick-up distance and the detour.
// It carries no schedule — Commit anchors the pick-up deadline from
// PickupDist, and the tree then keeps its own shortest schedule.
type Candidate struct {
	// PickupDist is dist_tr of the quoted request's pickup: the planned
	// pick-up distance (time × speed) offered to the rider.
	PickupDist float64
	// Delta is the schedule's total dist_tr less the best current
	// schedule's, the detour delta priced by the model.
	Delta float64
}

// Tree is the kinetic tree of one vehicle: its root, its committed
// requests and points, and what the last rebuild found over them. It
// holds no enumeration workspace — each walk borrows a pooled one for
// its duration — so trees may be walked from different goroutines at
// once, but one tree is not safe for concurrent use.
type Tree struct {
	metric    Metric
	capacity  int
	maxPoints int

	rootLoc roadnet.VertexID
	odo     float64

	reqs   []*reqState
	pts    []Point // pending points; index into reqs via reqIdx
	reqIdx []int   // parallel to pts

	// What the last rebuild found over pts: the shortest valid schedule
	// (its distance, and its order as 4-bit indices into pts packed
	// little-endian by schedule position), how many there are and their
	// longest leg.
	bestDist   float64
	bestPerm   uint64
	branches   int
	maxLeg     float64
	odoAtBuild float64
	dirty      bool
}

// New returns an empty kinetic tree for a vehicle with the given
// capacity, a cap on pending points (pickups+dropoffs; ≤ 2·requests),
// current location and odometer reading.
func New(m Metric, capacity, maxPoints int, loc roadnet.VertexID, odo float64) *Tree {
	if maxPoints <= 0 {
		maxPoints = 8
	}
	if maxPoints > maxEnumPoints {
		// Far beyond what factorial enumeration can visit anyway (16! ≈
		// 2·10¹³ orderings), so the clamp costs nothing real.
		maxPoints = maxEnumPoints
	}
	return &Tree{
		metric:    m,
		capacity:  capacity,
		maxPoints: maxPoints,
		rootLoc:   loc,
		odo:       odo,
		bestDist:  0,
		branches:  1,
	}
}

// Root returns the vehicle location the tree is rooted at.
func (t *Tree) Root() roadnet.VertexID { return t.rootLoc }

// Odometer returns the odometer reading of the last SetRoot.
func (t *Tree) Odometer() float64 { return t.odo }

// Empty reports whether the tree has no pending requests.
func (t *Tree) Empty() bool { return len(t.reqs) == 0 }

// NumRequests returns the number of pending (unfinished) requests.
func (t *Tree) NumRequests() int { return len(t.reqs) }

// Onboard returns the total riders currently in the vehicle.
func (t *Tree) Onboard() int {
	n := 0
	for _, r := range t.reqs {
		if r.onboard {
			n += r.Riders
		}
	}
	return n
}

// Requests returns the pending requests' public views.
func (t *Tree) Requests() []Request {
	out := make([]Request, len(t.reqs))
	for i, r := range t.reqs {
		out[i] = r.Request
	}
	return out
}

// IsOnboard reports whether request id has been picked up (and whether
// it is pending at all).
func (t *Tree) IsOnboard(id RequestID) (onboard, pending bool) {
	for _, r := range t.reqs {
		if r.ID == id {
			return r.onboard, true
		}
	}
	return false, false
}

// SetRoot advances the vehicle to a new location and odometer reading.
// The odometer must be non-decreasing. The schedules are re-enumerated
// lazily on the next read.
func (t *Tree) SetRoot(loc roadnet.VertexID, odo float64) {
	if odo < t.odo {
		panic(fmt.Sprintf("kinetic: odometer moved backwards (%v < %v)", odo, t.odo))
	}
	if loc == t.rootLoc && odo == t.odo {
		return
	}
	t.rootLoc = loc
	t.odo = odo
	t.dirty = true
}

// ensureFresh re-enumerates if the root moved since the last build.
func (t *Tree) ensureFresh() {
	if t.dirty {
		ws := acquireWorkspace()
		t.rebuild(ws, nil)
		ws.release()
	}
}

// NumBranches returns the number of valid schedules.
func (t *Tree) NumBranches() int {
	t.ensureFresh()
	return t.branches
}

// MaxLegUpper returns an upper bound on the longest single leg
// (consecutive-stop distance, including root legs) across all valid
// schedules, zero for an empty tree, without rebuilding a stale tree.
// Dual-side search uses it to lower-bound the detour of inserting a
// destination: any insertion gap spans at most that leg. Structural
// changes (commit, pickup, dropoff, cancel) rebuild eagerly, so the
// only staleness is root movement, and any root leg can have grown by
// at most the distance driven since the last build:
// dist(newRoot, p) ≤ dist(oldRoot, p) + driven.
func (t *Tree) MaxLegUpper() float64 {
	if len(t.pts) == 0 {
		return 0
	}
	if !t.dirty {
		return t.maxLeg
	}
	return t.maxLeg + (t.odo - t.odoAtBuild)
}

// BestStop returns stop j (from 0) of the shortest valid schedule — the
// branch the vehicle drives — and false past its end, for an empty tree
// and when no valid schedule exists.
func (t *Tree) BestStop(j int) (Point, bool) {
	t.ensureFresh()
	if j >= len(t.pts) || t.branches == 0 {
		return Point{}, false
	}
	return t.pts[(t.bestPerm>>(4*uint(j)))&0xF], true
}

// Branches returns every valid schedule as a stop sequence, in
// enumeration order. Intended for the demo's website view and for
// tests; matching never materialises this.
func (t *Tree) Branches() [][]Point {
	ws := acquireWorkspace()
	defer ws.release()
	var out [][]Point
	t.rebuild(ws, func(perm uint64) {
		out = append(out, unpackSeq(perm, ws.pts))
	})
	return out
}

// AppendLocations appends the root location plus every pending point
// location, deduplicated — the locations whose grid cells a non-empty
// vehicle is registered in, and in no other.
func (t *Tree) AppendLocations(dst []roadnet.VertexID) []roadnet.VertexID {
	start := len(dst)
	dst = append(dst, t.rootLoc)
	for _, p := range t.pts {
		if !slices.Contains(dst[start:], p.Loc) {
			dst = append(dst, p.Loc)
		}
	}
	return dst
}
