// Package fleet manages PTRider's vehicles (paper §3.2.2 and §4): per
// vehicle the identifier, current location, the set of unfinished
// requests and the kinetic tree of valid trip schedules, plus the two
// behaviours the demo describes — vehicles follow their planned
// schedule while serving riders and roam the road network randomly
// (choosing a random segment at every intersection) when empty.
//
// The fleet also keeps the grid index's dynamic vehicle lists current:
// empty vehicles are listed in the cell of their current location;
// non-empty vehicles are listed in every cell their planned schedule
// touches (their stop locations plus the driven branch's path cells).
// Registering stop cells is what single-/dual-side search correctness
// relies on — a vehicle undiscovered at ring radius L is guaranteed to
// have every schedule point at distance ≥ L (see DESIGN.md §3.3); the
// driven path's cells are registered additionally so vehicles are
// discovered earlier. (The paper registers every kinetic-tree edge; the
// stop-set registration is the subset that carries the correctness
// argument.)
//
// Movement model: a vehicle is always driving toward (or standing at)
// its tree root vertex, with RemainToRoot metres left on the current
// edge, along the route it planned to its next stop with one search per
// leg. Once an edge is entered it is always completed; plans change
// only at vertices. The odometer stored in the kinetic tree is the
// reading at arrival at the root vertex, so every budget the tree
// checks is consistent with the distance actually driven.
//
// # Locking discipline
//
// The fleet is safe for concurrent use. Mutable state is split into
// fine-grained locks so candidate evaluation parallelises:
//
//   - Each Vehicle owns a mutex guarding its kinetic tree and movement
//     state. Quote (the side-effect-free matching probe), Commit (the
//     validate-then-commit of a rider choice) and stepping all run
//     under the vehicle's own lock, so distinct vehicles are probed
//     and mutated fully in parallel.
//   - The vehicles slice and the active count sit behind a fleet-level
//     RWMutex taken only on AddVehicle/RemoveVehicle and snapshots.
//   - Shortest-path searchers for route and leg planning come from a
//     pool (one per concurrent caller); the planned route and leg cells
//     are the vehicle's own state under its mutex, so concurrent commits
//     on distinct vehicles share no path lock or cache.
//   - Each vehicle owns its roaming RNG (guarded by the vehicle's own
//     mutex), deterministically seeded from the fleet seed and the
//     vehicle id — so a vehicle's roaming draws depend only on its own
//     step history, never on the order vehicles are stepped in. That
//     independence is what makes the sharded Step (see below)
//     bit-identical to the serial one at every shard width.
//   - The grid vehicle lists are internally synchronised.
//
// Lock order: Vehicle.mu → lists. Fleet-level and vehicle-level locks
// are never held together except the read lock during snapshots.
// Exported Vehicle accessors acquire the vehicle lock; fleet internals
// that already hold it use the unexported *Locked variants.
//
// # Sharded time advancement
//
// Step partitions the vehicle population into per-worker shards with a
// stable assignment (vehicle id modulo the width, GOMAXPROCS at New)
// and steps the shards concurrently; per-vehicle event slices are then
// merged into the canonical deterministic order — vehicle id
// ascending, odometer ascending within a vehicle — and per-vehicle
// errors are aggregated with errors.Join instead of aborting the
// remaining fleet. Moved vehicles enter the grid's vehicle lists after
// the shards finish, in id order, so list order is deterministic too.
// At widths above one the metric must be safe for concurrent use
// (serving a stop re-enumerates the kinetic tree, which reads distances).
package fleet

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ptrider/internal/gridindex"
	"ptrider/internal/kinetic"
	"ptrider/internal/roadnet"
	"ptrider/internal/telemetry"
)

// VehicleID identifies a vehicle. IDs are dense indices assigned by
// AddVehicle.
type VehicleID = gridindex.VehicleID

// EventKind classifies fleet events.
type EventKind uint8

// Event kinds.
const (
	EventPickup EventKind = iota
	EventDropoff
)

func (k EventKind) String() string {
	if k == EventPickup {
		return "pickup"
	}
	return "dropoff"
}

// Event records a pickup or dropoff that happened during Step.
type Event struct {
	Kind    EventKind
	Vehicle VehicleID
	Request kinetic.RequestID
	// Odo is the vehicle's odometer at the event.
	Odo float64
}

// Vehicle is one taxi: its schedule tree plus movement state.
type Vehicle struct {
	ID VehicleID

	// mu guards Tree and every field below. Exported methods acquire
	// it; code that already holds it uses the tree directly.
	mu   sync.Mutex
	Tree *kinetic.Tree

	// remainToRoot is the distance left on the current edge before the
	// vehicle reaches its tree root vertex; zero when standing there.
	remainToRoot float64
	// removed marks vehicles taken out of service; staged, that pending
	// holds a registration to place.
	removed, staged bool

	// roam drives this vehicle's empty roaming. It is seeded
	// deterministically from the fleet seed and the vehicle id, so the
	// walk is a function of the vehicle's own step history alone —
	// independent of the order (or shard) other vehicles step in.
	// Guarded by mu like the rest of the movement state; snapshots
	// record its position so a restored vehicle resumes the identical
	// walk (see restore.go).
	roam roamStream

	// pending is the registration the vehicle's last step computed,
	// which Step places once every shard has finished unless one made in
	// between (a commit) superseded it.
	pending registration

	// route is the path to the next stop, from the tree root to
	// BestStop(0).Loc, and legs the cells of the later legs keyed by
	// their stops: one search per leg, derived from the tree and never
	// journaled, so a restored vehicle plans on first use. locs and
	// cells are registrationLocked's buffers; cells holds a non-empty
	// vehicle's registration.
	route []roadnet.VertexID
	legs  []leg
	locs  []roadnet.VertexID
	cells []gridindex.CellID
}

// leg holds the cells along the shortest path between two consecutive
// stops of the driven branch.
type leg struct {
	from, to roadnet.VertexID
	cells    []gridindex.CellID
}

// registration is a vehicle's entry in the grid's vehicle lists: the
// cell an empty vehicle stands in, or, for a non-empty one, the cells
// its schedules touch, which are in Vehicle.cells.
type registration struct {
	empty bool
	cell  gridindex.CellID
}

// Removed reports whether the vehicle has been taken out of service.
func (v *Vehicle) Removed() bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.removed
}

// ActiveLoc returns the vehicle's location and whether it is still in
// service, in one consistent read.
func (v *Vehicle) ActiveLoc() (roadnet.VertexID, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.Tree.Root(), !v.removed
}

// ProbeState returns the pruning inputs of the ring scan — location,
// max-leg upper bound and service status — in one critical section,
// so a match's bound checks see a mutually consistent view and each
// candidate vehicle costs one lock acquisition instead of three.
func (v *Vehicle) ProbeState() (loc roadnet.VertexID, maxLegUpper float64, active bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.Tree.Root(), v.Tree.MaxLegUpper(), !v.removed
}

// AppendProbeLocs appends the vehicle's root location followed by its
// pending points' locations, in order, under the vehicle's lock —
// the snapshot a matcher's probe flush feeds to its multi-target
// distance passes (see kinetic.QuoteSeed). Removed vehicles append
// nothing.
func (v *Vehicle) AppendProbeLocs(dst []roadnet.VertexID) []roadnet.VertexID {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.removed {
		return dst
	}
	return v.Tree.AppendPointLocs(dst)
}

// QuotePacked is the allocation-free seeded probe: candidates come back
// permutation-encoded with the quoted point set, both appended to
// caller-owned buffers (see kinetic.Tree.QuotePacked). The matchers
// materialise schedules only for candidates their skylines accept.
func (v *Vehicle) QuotePacked(req kinetic.Request, dst []kinetic.PackedCandidate, ptsBuf []kinetic.Point, seed *kinetic.QuoteSeed) ([]kinetic.PackedCandidate, []kinetic.Point) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.removed {
		return dst, ptsBuf
	}
	return v.Tree.QuotePacked(req, dst, ptsBuf, seed)
}

// View reports the vehicle's location and load in one consistent read
// (the website's map row).
func (v *Vehicle) View() (loc roadnet.VertexID, onboard, pending int, removed bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.Tree.Root(), v.Tree.Onboard(), v.Tree.NumRequests(), v.removed
}

// Schedules returns the vehicle's location and every valid trip
// schedule (the website's red lines) in one consistent read.
func (v *Vehicle) Schedules() (roadnet.VertexID, [][]kinetic.Point) {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.Tree.Root(), v.Tree.Branches()
}

// Fleet owns all vehicles and their grid registration.
type Fleet struct {
	g      *roadnet.Graph
	grid   *gridindex.Grid
	lists  *gridindex.VehicleLists
	metric kinetic.Metric

	capacity  int
	maxPoints int
	workers   int                    // Step's shard width (GOMAXPROCS at New)
	shardHist *telemetry.LatencyHist // per-shard Step wall times (nil = off)
	seed      int64                  // base seed the per-vehicle roaming streams derive from

	mu       sync.RWMutex // guards vehicles, active and stepFault
	vehicles []*Vehicle
	active   int

	// stepFault, when non-nil, is consulted at the start of every
	// vehicle's step (test seam; see SetStepFault).
	stepFault func(VehicleID) error

	// stepStatsMu guards lastStep, the most recent Step's execution
	// profile (see StepStats).
	stepStatsMu sync.Mutex
	lastStep    StepStats

	// searchers pools private shortest-path searchers for route and leg
	// planning, so commits on distinct vehicles plan in parallel.
	searchers   sync.Pool // *roadnet.Searcher
	stepScratch sync.Pool // *stepScratch

	// Commit-protocol effectiveness counters (see CommitStats): how
	// often the validate-then-commit found the quoted candidate stale,
	// how often CommitSlack triggered a re-probe, and how many commits
	// the re-probe salvaged.
	commitStale    atomic.Int64
	reprobes       atomic.Int64
	reprobeCommits atomic.Int64
}

// Config parameterises a Fleet.
type Config struct {
	// Capacity is the per-vehicle rider capacity (the demo's global
	// "taxi capacity" setting). Must be ≥ 1.
	Capacity int
	// MaxSchedulePoints caps pending stops per vehicle (≤ 2 requests per
	// point pair). Zero means 8.
	MaxSchedulePoints int
	// Seed drives the empty-vehicle random walk (each vehicle's roaming
	// stream is derived from Seed and the vehicle id).
	Seed int64
	// ShardHist, when non-nil, observes each shard's per-Step wall time
	// in seconds (nil = telemetry off, no cost).
	ShardHist *telemetry.LatencyHist
}

// New returns an empty fleet over the given grid index. The metric is
// shared with the matching engine so kinetic trees and matchers see
// identical distances; it must be safe for concurrent use. Step's shard
// width is GOMAXPROCS as read here (see Workers).
func New(grid *gridindex.Grid, lists *gridindex.VehicleLists, metric kinetic.Metric, cfg Config) (*Fleet, error) {
	if cfg.Capacity < 1 {
		return nil, fmt.Errorf("fleet: capacity %d < 1", cfg.Capacity)
	}
	mp := cfg.MaxSchedulePoints
	if mp == 0 {
		mp = 8
	}
	if mp < 2 {
		return nil, fmt.Errorf("fleet: MaxSchedulePoints %d < 2", mp)
	}
	if mp > 16 {
		// The kinetic quote encodes schedules as permutation words of
		// 4-bit point indices, and enumerating more than 16 points is
		// factorially infeasible anyway; reject rather than silently
		// narrow the configured capacity (kinetic.New would clamp).
		return nil, fmt.Errorf("fleet: MaxSchedulePoints %d > 16 (kinetic enumeration limit)", mp)
	}
	f := &Fleet{
		g:         grid.Graph(),
		grid:      grid,
		lists:     lists,
		metric:    metric,
		capacity:  cfg.Capacity,
		maxPoints: mp,
		workers:   runtime.GOMAXPROCS(0),
		shardHist: cfg.ShardHist,
		seed:      cfg.Seed,
	}
	f.searchers.New = func() any { return roadnet.NewSearcher(grid.Graph()) }
	f.stepScratch.New = func() any { return new(stepScratch) }
	return f, nil
}

// AddVehicle places a new empty vehicle at loc and returns it. The
// grid registration happens before the vehicle becomes visible to
// snapshots, so a racing commit cannot have its PlaceNonEmpty
// registration overwritten by this initial PlaceEmpty.
func (f *Fleet) AddVehicle(loc roadnet.VertexID) *Vehicle {
	f.mu.Lock()
	defer f.mu.Unlock()
	id := VehicleID(len(f.vehicles))
	v := &Vehicle{
		ID:   id,
		Tree: kinetic.New(f.metric, f.capacity, f.maxPoints, loc, 0),
		roam: roamStream{seed: vehicleSeed(f.seed, id)},
	}
	f.lists.PlaceEmpty(v.ID, f.grid.CellOf(loc))
	f.vehicles = append(f.vehicles, v)
	f.active++
	return v
}

// RemoveVehicle takes a vehicle out of service (failure injection). Its
// pending requests are cancelled and reported so the caller can re-issue
// them. Removing twice is an error.
func (f *Fleet) RemoveVehicle(id VehicleID) ([]kinetic.Request, error) {
	v, err := f.Vehicle(id)
	if err != nil {
		return nil, err
	}
	v.mu.Lock()
	if v.removed {
		v.mu.Unlock()
		return nil, fmt.Errorf("fleet: vehicle %d already removed", id)
	}
	orphans := v.Tree.Requests()
	for _, r := range orphans {
		if err := v.Tree.Cancel(r.ID); err != nil {
			v.mu.Unlock()
			return nil, err
		}
	}
	v.removed = true
	v.mu.Unlock()
	f.mu.Lock()
	f.active--
	f.mu.Unlock()
	f.lists.Remove(id)
	return orphans, nil
}

// Vehicle returns vehicle id.
func (f *Fleet) Vehicle(id VehicleID) (*Vehicle, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if id < 0 || int(id) >= len(f.vehicles) {
		return nil, fmt.Errorf("fleet: unknown vehicle %d", id)
	}
	return f.vehicles[id], nil
}

// NumVehicles returns the number of vehicles ever added.
func (f *Fleet) NumVehicles() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.vehicles)
}

// Capacity returns the per-vehicle rider capacity.
func (f *Fleet) Capacity() int { return f.capacity }

// NumActive returns the number of in-service vehicles.
func (f *Fleet) NumActive() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.active
}

// Snapshot returns a copy of the vehicle slice in id order. Vehicles
// themselves are shared; read them through View, ActiveLoc, ProbeState
// or Schedules, which take the vehicle's lock.
func (f *Fleet) Snapshot() []*Vehicle {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return append([]*Vehicle(nil), f.vehicles...)
}

// CheckInvariants verifies, under each vehicle's lock, that every
// in-service vehicle's schedule state is valid: onboard riders within
// capacity and at least one valid schedule whenever requests are
// pending (the kinetic tree counts only schedules meeting the
// capacity, order, waiting-time and service constraints, so a
// non-empty branch set certifies them all). Intended for tests after
// concurrent commit storms.
func (f *Fleet) CheckInvariants() error {
	for _, v := range f.Snapshot() {
		v.mu.Lock()
		removed := v.removed
		onboard := v.Tree.Onboard()
		pending := v.Tree.NumRequests()
		branches := v.Tree.NumBranches()
		v.mu.Unlock()
		if removed {
			continue
		}
		if onboard > f.capacity {
			return fmt.Errorf("fleet: vehicle %d carries %d riders, capacity %d", v.ID, onboard, f.capacity)
		}
		if pending > 0 && branches == 0 {
			return fmt.Errorf("fleet: vehicle %d has %d pending requests but no valid schedule", v.ID, pending)
		}
	}
	return nil
}

// CommitResult reports how a rider choice was committed.
type CommitResult struct {
	// Candidate is the schedule actually committed. It equals the
	// quoted candidate unless a re-probe replaced it.
	Candidate kinetic.Candidate
	// PlannedPickupOdo is the odometer reading promised for the pickup.
	PlannedPickupOdo float64
	// Reprobed reports that the quoted candidate had gone stale and an
	// equivalent fresh candidate within the slack was committed instead.
	Reprobed bool
}

// Commit assigns req to vehicle id with the planned schedule cand (from
// a quote against the same tree state) and refreshes the vehicle's grid
// registration. It is the commit half of the probe/commit protocol:
// under the vehicle's lock the candidate is validated against the
// current tree state; if it has gone stale (the vehicle moved or
// accepted other riders since the quote) and slack > 0, the request is
// re-probed and a fresh candidate within slack·SD metres of the quoted
// pick-up distance and detour is committed instead. slack ≤ 0 is
// strict: a stale candidate fails.
func (f *Fleet) Commit(id VehicleID, req kinetic.Request, cand kinetic.Candidate, slack float64) (CommitResult, error) {
	v, err := f.Vehicle(id)
	if err != nil {
		return CommitResult{}, err
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.removed {
		return CommitResult{}, fmt.Errorf("fleet: vehicle %d is out of service", id)
	}
	res := CommitResult{Candidate: cand}
	err = v.Tree.Commit(req, cand)
	if err != nil {
		f.commitStale.Add(1)
		if slack > 0 {
			f.reprobes.Add(1)
			if fresh, ok := f.reprobe(v, req, cand, slack); ok {
				if err2 := v.Tree.Commit(req, fresh); err2 == nil {
					res.Candidate = fresh
					res.Reprobed = true
					f.reprobeCommits.Add(1)
					err = nil
				}
			}
		}
	}
	if err != nil {
		return CommitResult{}, err
	}
	if odo, ok := v.Tree.PlannedPickupOdo(req.ID); ok {
		res.PlannedPickupOdo = odo
	}
	f.registerLocked(v)
	return res, nil
}

// reprobe re-quotes req against the vehicle's current tree state (lock
// held) and returns the fresh candidate of least detour, then least
// pick-up distance, among those within the allowed slack of the stale
// quote on both terms — the quoted terms must not silently degrade. ok
// is false when none is. The candidates stay packed in stack buffers;
// only the winner's schedule is materialised.
func (f *Fleet) reprobe(v *Vehicle, req kinetic.Request, cand kinetic.Candidate, slack float64) (fresh kinetic.Candidate, ok bool) {
	allow := slack * req.SD
	// 16 is the kinetic tree's cap on a quote's points; a skyline of
	// more candidates than that spills to the heap.
	var candBuf [16]kinetic.PackedCandidate
	var ptsBuf [16]kinetic.Point
	cands, pts := v.Tree.QuotePacked(req, candBuf[:0], ptsBuf[:0], nil)
	best := -1
	for i, c := range cands {
		if c.PickupDist > cand.PickupDist+allow || c.Delta > cand.Delta+allow {
			continue
		}
		if best < 0 || c.Delta < cands[best].Delta ||
			(c.Delta == cands[best].Delta && c.PickupDist < cands[best].PickupDist) {
			best = i
		}
	}
	if best < 0 {
		return kinetic.Candidate{}, false
	}
	return cands[best].Unpack(pts), true
}

// CommitStats reports the commit protocol's effectiveness counters:
// stale counts first commit attempts that found the quoted candidate
// invalidated (the probe-decline rate the ROADMAP's CommitSlack study
// needs), reprobes counts the re-probe attempts CommitSlack allowed,
// and salvaged counts the commits a re-probed candidate rescued. With
// slack 0, every stale commit is a decline; salvaged/stale is the
// fraction the slack converts into assignments.
func (f *Fleet) CommitStats() (stale, reprobes, salvaged int64) {
	return f.commitStale.Load(), f.reprobes.Load(), f.reprobeCommits.Load()
}

// Cancel releases a committed-but-not-yet-picked-up request from its
// vehicle and refreshes the grid registration — the compensation half
// of a two-phase relay commit (and the rider-cancellation primitive).
// A rider already onboard cannot be cancelled: the vehicle is
// physically carrying them, so the caller must let the trip complete.
func (f *Fleet) Cancel(id VehicleID, req kinetic.RequestID) error {
	v, err := f.Vehicle(id)
	if err != nil {
		return err
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.removed {
		// RemoveVehicle already cancelled every pending request.
		return fmt.Errorf("fleet: vehicle %d is out of service", id)
	}
	onboard, pending := v.Tree.IsOnboard(req)
	if !pending {
		return fmt.Errorf("fleet: vehicle %d has no pending request %d", id, req)
	}
	if onboard {
		return fmt.Errorf("fleet: request %d is onboard vehicle %d, cannot cancel", req, id)
	}
	if err := v.Tree.Cancel(req); err != nil {
		return err
	}
	f.registerLocked(v)
	return nil
}

// registerLocked refreshes the vehicle's entry in the grid's vehicle
// lists. The caller holds v.mu.
func (f *Fleet) registerLocked(v *Vehicle) {
	if v.removed {
		return
	}
	v.staged = false
	f.place(v, f.registrationLocked(v))
}

// registrationLocked computes the vehicle's list entry from its tree.
// The caller holds v.mu.
func (f *Fleet) registrationLocked(v *Vehicle) registration {
	if v.Tree.Empty() {
		v.route = nil
		return registration{empty: true, cell: f.grid.CellOf(v.Tree.Root())}
	}
	cells := v.cells[:0]
	v.locs = v.Tree.AppendLocations(v.locs[:0])
	for _, loc := range v.locs {
		cells = append(cells, f.grid.CellOf(loc))
	}
	// Cells along the driven branch's legs, so ring search discovers the
	// vehicle as early as the paper's all-edge registration would: leg 0
	// is the rest of the route, the later legs come from v.legs.
	prev := v.Tree.Root()
	for j := 0; ; j++ {
		p, ok := v.Tree.BestStop(j)
		if !ok {
			v.legs = v.legs[:max(j-1, 0)]
			break
		}
		if j == 0 {
			cells = f.appendPathCells(cells, f.routeLocked(v, p.Loc))
		} else {
			cells = append(cells, f.legCellsLocked(v, j-1, prev, p.Loc)...)
		}
		prev = p.Loc
	}
	v.cells = cells
	return registration{}
}

// routeLocked returns the vehicle's route to target, nil if target is
// unreachable, searching only when the kept one does not run from the
// tree root to target: the rest of a shortest path is the shortest path
// from where it has reached. The caller holds v.mu.
func (f *Fleet) routeLocked(v *Vehicle, target roadnet.VertexID) []roadnet.VertexID {
	if r := v.route; len(r) == 0 || r[0] != v.Tree.Root() || r[len(r)-1] != target {
		v.route = f.path(v.Tree.Root(), target)
	}
	return v.route
}

// legCellsLocked returns the cells of later leg i, from → to, leaving
// them in v.legs[i]. Slots from i on hold the legs this registration has
// not claimed yet: the one keyed (from, to) is swapped into slot i, and
// only a leg none holds is searched, into a spare slot's buffer. The
// caller holds v.mu.
func (f *Fleet) legCellsLocked(v *Vehicle, i int, from, to roadnet.VertexID) []gridindex.CellID {
	k := i
	for k < len(v.legs) && (v.legs[k].from != from || v.legs[k].to != to) {
		k++
	}
	if k == len(v.legs) {
		v.legs = slices.Grow(v.legs, 1)[:k+1] // a spare slot keeps its buffer
		l := &v.legs[k]
		l.from, l.to = from, to
		l.cells = f.appendPathCells(l.cells[:0], f.path(from, to))
	}
	v.legs[i], v.legs[k] = v.legs[k], v.legs[i]
	return v.legs[i].cells
}

// path returns the shortest path from u to v on a pooled searcher, nil
// when v is unreachable.
func (f *Fleet) path(u, v roadnet.VertexID) []roadnet.VertexID {
	s := f.searchers.Get().(*roadnet.Searcher)
	p, _ := s.Path(u, v)
	f.searchers.Put(s)
	return p
}

// appendPathCells appends the grid cells path passes through, one per
// run of consecutive vertices in the same cell.
func (f *Fleet) appendPathCells(dst []gridindex.CellID, path []roadnet.VertexID) []gridindex.CellID {
	last := gridindex.NoCell
	for _, x := range path {
		if c := f.grid.CellOf(x); c != last {
			dst = append(dst, c)
			last = c
		}
	}
	return dst
}

func (f *Fleet) place(v *Vehicle, r registration) {
	if r.empty {
		f.lists.PlaceEmpty(v.ID, r.cell)
		return
	}
	f.lists.PlaceNonEmpty(v.ID, v.cells)
}

// stageLocked computes the vehicle's registration for its step's
// caller to place. The caller holds v.mu.
func (f *Fleet) stageLocked(v *Vehicle) {
	v.pending, v.staged = f.registrationLocked(v), true
}

// placePending enters the registration v's last step left behind.
func (f *Fleet) placePending(v *Vehicle) {
	v.mu.Lock()
	if v.staged && !v.removed {
		f.place(v, v.pending)
	}
	v.staged = false
	v.mu.Unlock()
}

// StepStats describes the most recent Step's sharded execution — the
// raw inputs of the engine's TickStats panel.
type StepStats struct {
	// Workers is the shard width the step actually ran with (Workers(),
	// clamped to the vehicle count).
	Workers int
	// Vehicles is the snapshot size stepped (removed vehicles cost one
	// lock acquisition and nothing else).
	Vehicles int
	// Events counts the pickups and dropoffs the step produced.
	Events int
	// WallNanos is the whole step's wall time; MaxShardNanos and
	// MinShardNanos bound the per-shard wall times, so their gap is the
	// step's shard skew (load imbalance across shards).
	WallNanos     int64
	MaxShardNanos int64
	MinShardNanos int64
}

// Step advances every in-service vehicle by the given distance budget
// (metres = speed × Δt), serving pickups and dropoffs en route. The
// vehicle population is partitioned into per-worker shards with a
// stable assignment — vehicle id modulo Workers() — and the shards
// step concurrently; each vehicle is mutated under its own lock, so the
// probe/commit protocol is unchanged. The per-vehicle
// event slices are merged into the canonical deterministic order,
// vehicle id ascending then odometer ascending, which makes the serial
// (width 1) and parallel steps return identical events: roaming
// draws come from per-vehicle RNG streams, so no vehicle's trajectory
// depends on stepping order.
//
// A vehicle whose cells changed has its registration computed in its
// shard and placed after the shards finish, in vehicle id order: a
// cell's list order decides exact ties between co-located vehicles in
// the matchers, so it must not depend on goroutine scheduling. Until
// then a racing matcher finds the vehicle under its previous cells and
// still reads its live position from the vehicle itself.
//
// A failing vehicle no longer aborts the remaining fleet mid-step:
// every other vehicle still moves, and the per-vehicle errors are
// aggregated with errors.Join in id order (deterministic message,
// errors.Is still reaches each cause). Concurrent Step calls are not
// serialised here; the engine's tick loop owns that.
func (f *Fleet) Step(budget float64) ([]Event, error) {
	// vehicles only ever grows by append and its elements are never
	// overwritten, so the slice header is a snapshot; no copy needed.
	f.mu.RLock()
	snap := f.vehicles
	fault := f.stepFault
	f.mu.RUnlock()

	workers := max(min(f.workers, len(snap)), 1)

	start := time.Now()
	sc := f.stepScratch.Get().(*stepScratch)
	defer f.stepScratch.Put(sc)
	perVehicle, perErr, moved := sc.size(len(snap))
	shardNs := make([]int64, workers)
	stepOne := func(i int) {
		v := snap[i]
		if fault != nil {
			if err := fault(v.ID); err != nil {
				perErr[i] = fmt.Errorf("fleet: vehicle %d: %w", v.ID, err)
				return
			}
		}
		perVehicle[i], moved[i], perErr[i] = f.stepVehicle(v, budget)
	}
	if workers == 1 {
		for i := range snap {
			stepOne(i)
		}
		shardNs[0] = time.Since(start).Nanoseconds()
	} else {
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func(w int) {
				defer wg.Done()
				t0 := time.Now()
				for i := range snap {
					if int(snap[i].ID)%workers == w {
						stepOne(i)
					}
				}
				shardNs[w] = time.Since(t0).Nanoseconds()
			}(w)
		}
		wg.Wait()
	}
	for i, v := range snap {
		if moved[i] {
			f.placePending(v)
		}
	}

	// Canonical merge: the snapshot is id-ordered and each vehicle's
	// slice is odometer-ordered by construction, so concatenation in
	// snapshot order is the (vehicle id, odometer) order — the same
	// bytes the serial loop produces.
	total := 0
	for _, evs := range perVehicle {
		total += len(evs)
	}
	var events []Event
	if total > 0 {
		events = make([]Event, 0, total)
		for _, evs := range perVehicle {
			events = append(events, evs...)
		}
	}

	if f.shardHist != nil {
		for _, ns := range shardNs {
			f.shardHist.Observe(float64(ns) / 1e9)
		}
	}
	minNs, maxNs := shardNs[0], shardNs[0]
	for _, ns := range shardNs[1:] {
		if ns < minNs {
			minNs = ns
		}
		if ns > maxNs {
			maxNs = ns
		}
	}
	f.stepStatsMu.Lock()
	f.lastStep = StepStats{
		Workers:       workers,
		Vehicles:      len(snap),
		Events:        total,
		WallNanos:     time.Since(start).Nanoseconds(),
		MaxShardNanos: maxNs,
		MinShardNanos: minNs,
	}
	f.stepStatsMu.Unlock()
	return events, errors.Join(perErr...)
}

// stepScratch holds one Step call's per-vehicle result slots. Pooled,
// so a tick allocates none of them and concurrent Step calls still each
// get their own.
type stepScratch struct {
	perVehicle [][]Event
	perErr     []error
	moved      []bool
}

// size returns the three slot slices at length n, zeroed.
func (sc *stepScratch) size(n int) ([][]Event, []error, []bool) {
	if cap(sc.moved) < n {
		sc.perVehicle = make([][]Event, n)
		sc.perErr = make([]error, n)
		sc.moved = make([]bool, n)
	}
	sc.perVehicle, sc.perErr, sc.moved = sc.perVehicle[:n], sc.perErr[:n], sc.moved[:n]
	clear(sc.perVehicle)
	clear(sc.perErr)
	clear(sc.moved)
	return sc.perVehicle, sc.perErr, sc.moved
}

// StepStats returns the most recent Step's execution profile. A fleet
// that never stepped returns the zero value.
func (f *Fleet) StepStats() StepStats {
	f.stepStatsMu.Lock()
	defer f.stepStatsMu.Unlock()
	return f.lastStep
}

// Workers returns the fleet's parallel width: GOMAXPROCS when New ran.
// Step shards vehicles over it, and the engine quotes a SubmitBatch wave
// on as many goroutines. Every width gives the same results.
func (f *Fleet) Workers() int { return f.workers }

// SetStepFault installs a per-vehicle fault injector consulted at the
// start of every vehicle's step: a non-nil return is recorded as that
// vehicle's step error and the vehicle does not move that step. A step
// failure is not reachable through the public API on a consistent
// fleet, so tests pinning Step's error-aggregation semantics inject
// one here. Passing nil restores normal stepping. Not part of the
// supported surface.
func (f *Fleet) SetStepFault(fn func(VehicleID) error) {
	f.mu.Lock()
	f.stepFault = fn
	f.mu.Unlock()
}

// stepVehicle holds the vehicle's lock for the whole step so the
// serve/drive loop sees a consistent tree; commits on this vehicle wait
// until the step completes. A step that changed the vehicle's cells
// leaves its new registration in v.pending and reports moved, for the
// caller to place.
func (f *Fleet) stepVehicle(v *Vehicle, budget float64) (events []Event, moved bool, err error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	events, err = f.driveLocked(v, budget)
	return events, v.staged, err
}

// driveLocked is stepVehicle's serve/drive loop. The caller holds v.mu.
func (f *Fleet) driveLocked(v *Vehicle, budget float64) ([]Event, error) {
	if v.removed {
		return nil, nil
	}
	var events []Event
	for budget > 0 {
		if v.remainToRoot > 0 {
			if budget < v.remainToRoot {
				v.remainToRoot -= budget
				return events, nil
			}
			budget -= v.remainToRoot
			v.remainToRoot = 0
		}

		// Standing at the root vertex: serve every due stop here.
		served, evs, err := f.serveHereLocked(v)
		if err != nil {
			return events, err
		}
		events = append(events, evs...)
		if served {
			continue // tree changed; re-evaluate from the same vertex
		}

		// Choose the next edge.
		if v.Tree.Empty() {
			if !f.randomWalkStepLocked(v) {
				return events, nil // dead-end vertex; stay put
			}
			continue
		}
		next, ok := v.Tree.BestStop(0)
		if !ok {
			return events, fmt.Errorf("fleet: vehicle %d has pending requests but no valid schedule", v.ID)
		}
		if err := f.driveTowardLocked(v, next.Loc); err != nil {
			return events, err
		}
	}
	return events, nil
}

// serveHereLocked performs every pickup/dropoff whose turn has come at
// the vehicle's current vertex. It reports whether anything was served.
// The caller holds v.mu.
func (f *Fleet) serveHereLocked(v *Vehicle) (bool, []Event, error) {
	var events []Event
	served := false
	for !v.Tree.Empty() {
		next, ok := v.Tree.BestStop(0)
		if !ok {
			return served, events, fmt.Errorf("fleet: vehicle %d has pending requests but no valid schedule", v.ID)
		}
		if next.Loc != v.Tree.Root() {
			break
		}
		var err error
		var kind EventKind
		if next.Kind == kinetic.Pickup {
			err = v.Tree.Pickup(next.Req)
			kind = EventPickup
		} else {
			err = v.Tree.Dropoff(next.Req)
			kind = EventDropoff
		}
		if err != nil {
			return served, events, err
		}
		events = append(events, Event{Kind: kind, Vehicle: v.ID, Request: next.Req, Odo: v.Tree.Odometer()})
		served = true
	}
	if served {
		f.stageLocked(v)
	}
	return served, events, nil
}

// driveTowardLocked enters the first edge of the vehicle's route to
// target and drops it from the route. The caller holds v.mu.
func (f *Fleet) driveTowardLocked(v *Vehicle, target roadnet.VertexID) error {
	if target == v.Tree.Root() {
		return fmt.Errorf("fleet: vehicle %d asked to drive to its own location", v.ID)
	}
	route := f.routeLocked(v, target)
	if route == nil {
		return fmt.Errorf("fleet: no path from %d to %d", v.Tree.Root(), target)
	}
	w, ok := f.g.EdgeWeight(route[0], route[1])
	if !ok {
		return fmt.Errorf("fleet: path step %d→%d is not an edge", route[0], route[1])
	}
	v.route = route[1:]
	f.enterEdgeLocked(v, route[1], w)
	return nil
}

// randomWalkStepLocked makes an empty vehicle enter a uniformly random
// outgoing edge (the demo's roaming behaviour). It returns false at
// dead-end vertices. The draw comes from the vehicle's own stream,
// so the walk is identical whatever order (or shard) the fleet steps
// vehicles in. The caller holds v.mu.
func (f *Fleet) randomWalkStepLocked(v *Vehicle) bool {
	out := f.g.Out(v.Tree.Root())
	if len(out) == 0 {
		return false
	}
	e := out[v.roam.intn(len(out))]
	f.enterEdgeLocked(v, e.To, e.Weight)
	return true
}

// enterEdgeLocked commits the vehicle to traversing one edge: the tree
// root moves to the edge head (odometer pre-advanced by the edge
// weight) and the physical remainder is tracked in remainToRoot. The
// caller holds v.mu.
func (f *Fleet) enterEdgeLocked(v *Vehicle, head roadnet.VertexID, weight float64) {
	fromCell := f.grid.CellOf(v.Tree.Root())
	v.Tree.SetRoot(head, v.Tree.Odometer()+weight)
	// Zero-weight edges are legal in the graph model; give them a tiny
	// physical length so movement always consumes budget and cannot
	// spin on a zero-weight cycle.
	if weight <= 0 {
		weight = 1e-9
	}
	v.remainToRoot = weight
	if f.grid.CellOf(head) != fromCell {
		f.stageLocked(v) // crossed a cell boundary: refresh lists
	}
}
