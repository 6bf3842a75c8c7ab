package kinetic

import (
	"fmt"
	"math"
	"runtime"

	"ptrider/internal/roadnet"
	"ptrider/internal/skyline"
)

// maxEnumPoints is the most points one enumeration can order: schedules
// are carried as permutation words of 4-bit point indices.
const maxEnumPoints = 16

// workspace holds everything one walk writes: the point and request
// sets being ordered, their lazy distance matrix, the partial schedule
// and, during a quote, the uncommitted request and the candidate
// skyline. A tree owns none. Each walk — rebuild, quotePacked and the
// Branches view — takes one with acquireWorkspace on
// entry and hands it back with release on exit, so a fleet holds as
// many workspaces as it has walks in progress, not one per vehicle.
type workspace struct {
	// What load copies from the tree: the walk reads nothing else of it.
	metric   Metric
	capacity int
	odo      float64

	// The point and request sets being ordered: the committed ones,
	// plus the quoted request's pair during a quote.
	pts    []Point
	reqIdx []int // parallel to pts: index into reqs
	reqs   []*reqState

	locs  []roadnet.VertexID // 0 is the root location, then one per point
	exact []float64          // (k+1)×(k+1) lazy distance matrix; NaN = unknown
	n     int                // k+1

	// State of the current partial schedule.
	pickDist []float64                  // per request: dist_tr at its in-sequence pickup
	picked   []bool                     // per request: pickup placed in current prefix
	distTr   [maxEnumPoints + 1]float64 // dist_tr after each placed stop; [0] is the root's 0

	// Quote state. The skyline holds candidate schedules as permutation
	// words, so inserting (and evicting) one never allocates; callers
	// materialise []Point sequences for survivors only.
	quoted reqState
	sky    skyline.Skyline[uint64]
}

// freeWorkspaces is the bounded free list of idle workspaces. A walk is
// CPU work that holds its workspace from start to end without waiting
// on I/O, so about GOMAXPROCS walks are in progress at once. The list
// holds twice that, leaving room for walks descheduled midway or held
// up on a distance-memo lock, so a steady load allocates none; a
// release that finds the list full drops its workspace. A channel, not
// a sync.Pool: under the race detector a pool drops puts at random,
// which breaks the zero-allocation contracts there.
var freeWorkspaces = make(chan *workspace, 2*runtime.GOMAXPROCS(0))

// acquireWorkspace returns an idle workspace, or a fresh one when none
// is parked.
func acquireWorkspace() *workspace {
	select {
	case ws := <-freeWorkspaces:
		return ws
	default:
		return new(workspace)
	}
}

// release parks ws for the next walk, or drops it when the list is
// full. It first clears every pointer the walk left behind — the metric
// and the request pointers, past the current length too — so a parked
// workspace keeps no vehicle's requests alive.
func (ws *workspace) release() {
	ws.metric = nil
	clear(ws.reqs[:cap(ws.reqs)])
	ws.reqs = ws.reqs[:0]
	select {
	case freeWorkspaces <- ws:
	default:
	}
}

// load fills the workspace with the tree's committed points and
// requests — followed by quoted and its pickup/dropoff pair when
// non-nil — and clears the distance matrix.
func (ws *workspace) load(t *Tree, quoted *reqState) {
	ws.metric, ws.capacity, ws.odo = t.metric, t.capacity, t.odo
	ws.pts = append(ws.pts[:0], t.pts...)
	ws.reqIdx = append(ws.reqIdx[:0], t.reqIdx...)
	ws.reqs = append(ws.reqs[:0], t.reqs...)
	if quoted != nil {
		ri := len(ws.reqs)
		ws.reqs = append(ws.reqs, quoted)
		ws.pts = append(ws.pts,
			Point{Loc: quoted.S, Kind: Pickup, Req: quoted.ID},
			Point{Loc: quoted.D, Kind: Dropoff, Req: quoted.ID},
		)
		ws.reqIdx = append(ws.reqIdx, ri, ri)
	}

	ws.n = len(ws.pts) + 1
	ws.locs = append(ws.locs[:0], t.rootLoc)
	for _, p := range ws.pts {
		ws.locs = append(ws.locs, p.Loc)
	}
	need := ws.n * ws.n
	if cap(ws.exact) < need {
		ws.exact = make([]float64, need)
	}
	ws.exact = ws.exact[:need]
	for i := range ws.exact {
		ws.exact[i] = math.NaN()
	}
	nReqs := len(ws.reqs)
	if cap(ws.pickDist) < nReqs {
		ws.pickDist = make([]float64, nReqs)
		ws.picked = make([]bool, nReqs)
	}
	ws.pickDist = ws.pickDist[:nReqs]
	ws.picked = ws.picked[:nReqs]
	for i := range ws.picked {
		ws.picked[i] = false
	}
}

func (ws *workspace) exactDist(i, j int) float64 {
	d := ws.exact[i*ws.n+j]
	if !math.IsNaN(d) {
		return d
	}
	d = ws.metric.Dist(ws.locs[i], ws.locs[j])
	ws.exact[i*ws.n+j] = d
	return d
}

func (ws *workspace) lbDist(i, j int) float64 {
	// A previously computed exact value is its own best lower bound.
	if d := ws.exact[i*ws.n+j]; !math.IsNaN(d) {
		return d
	}
	return ws.metric.LB(ws.locs[i], ws.locs[j])
}

// stepBudget returns the odometer-relative distance budget for placing
// point pi of the workspace next in the current partial schedule, or
// ok=false when it cannot be placed at all.
func (ws *workspace) stepBudget(pi int) (budget float64, ok bool) {
	ri := ws.reqIdx[pi]
	r := ws.reqs[ri]
	if ws.pts[pi].Kind == Pickup {
		return r.pickupDeadline - ws.odo, true
	}
	if r.onboard {
		return r.dropoffDeadline - ws.odo, true
	}
	if !ws.picked[ri] {
		return 0, false // dropoff cannot precede its pickup
	}
	return ws.pickDist[ri] + r.ServiceLimit, true
}

// walk is the enumeration: it extends the current partial schedule —
// depth points placed, the used set, the last one at location index cur
// (0 = root), occ riders aboard, carried as the permutation word perm
// and the dist_tr stack — with every feasible unused point, in point
// order, and hands each complete valid schedule to leaf with its total
// distance. It allocates nothing. While leaf runs, the workspace's
// distTr[1..] and pickDist describe the completed schedule.
func (ws *workspace) walk(used, cur, occ int, perm uint64, depth uint, leaf func(perm uint64, total float64)) {
	curDist := ws.distTr[depth]
	full := 1<<len(ws.pts) - 1
	for pi, p := range ws.pts {
		bit := 1 << pi
		if used&bit != 0 {
			continue
		}
		ri := ws.reqIdx[pi]
		r := ws.reqs[ri]
		budget, ok := ws.stepBudget(pi)
		if !ok {
			continue
		}
		if p.Kind == Pickup && occ+r.Riders > ws.capacity {
			continue
		}
		// Lower-bound prune before the exact distance (paper §3.3).
		if curDist+ws.lbDist(cur, pi+1) > budget {
			continue
		}
		nd := curDist + ws.exactDist(cur, pi+1)
		if nd > budget {
			continue
		}

		nocc := occ
		if p.Kind == Pickup {
			nocc += r.Riders
			ws.picked[ri] = true
			ws.pickDist[ri] = nd
		} else {
			nocc -= r.Riders
		}
		ws.distTr[depth+1] = nd
		nperm := perm | uint64(pi)<<(4*depth)
		if used|bit == full {
			leaf(nperm, nd)
		} else {
			ws.walk(used|bit, pi+1, nocc, nperm, depth+1, leaf)
		}
		if p.Kind == Pickup {
			ws.picked[ri] = false
		}
	}
}

// rebuild re-enumerates every valid ordering of the pending points from
// the current root in ws, refreshing bestDist, the best schedule, the
// branch count and maxLeg. The best schedule is the first strictly
// shortest one in enumeration order. Each schedule is also handed to
// visit when non-nil (the Branches view).
func (t *Tree) rebuild(ws *workspace, visit func(perm uint64)) {
	t.dirty = false
	t.odoAtBuild = t.odo
	t.maxLeg = 0
	if len(t.pts) == 0 {
		t.bestDist = 0
		t.branches = 1
		return
	}
	ws.load(t, nil)
	t.bestDist = math.Inf(1)
	t.branches = 0
	ws.walk(0, 0, t.Onboard(), 0, 0, func(perm uint64, total float64) {
		if t.branches == 0 || total < t.bestDist {
			t.bestDist, t.bestPerm = total, perm
		}
		t.branches++
		// Only legs of schedules that complete count toward maxLeg.
		for j := range t.pts {
			if leg := ws.distTr[j+1] - ws.distTr[j]; leg > t.maxLeg {
				t.maxLeg = leg
			}
		}
		if visit != nil {
			visit(perm)
		}
	})
}

// QuoteSeed carries exact distances precomputed by a caller's
// multi-target pass, fanned directly into the enumeration's distance
// matrix: Locs must be exactly the sequence AppendPointLocs returned
// for the tree state being quoted (the root location followed by the
// pending points' locations, in order), SDist[i] = dist(Locs[i],
// req.S) and DDist[i] = dist(Locs[i], req.D). A seed whose Locs no
// longer match the tree (the vehicle moved or committed between the
// snapshot and the quote) is ignored and the quote falls back to lazy
// computation, so a stale seed can never misattribute a distance.
type QuoteSeed struct {
	Locs         []roadnet.VertexID
	SDist, DDist []float64
}

// matches reports whether the seed still describes the tree's point
// set.
func (s *QuoteSeed) matches(t *Tree) bool {
	if len(s.Locs) != len(t.pts)+1 || len(s.SDist) != len(s.Locs) || len(s.DDist) != len(s.Locs) {
		return false
	}
	if s.Locs[0] != t.rootLoc {
		return false
	}
	for i, p := range t.pts {
		if s.Locs[i+1] != p.Loc {
			return false
		}
	}
	return true
}

// AppendPointLocs appends the tree's root location followed by each
// pending point's location, in point order — the alignment contract of
// QuoteSeed.
func (t *Tree) AppendPointLocs(dst []roadnet.VertexID) []roadnet.VertexID {
	dst = append(dst, t.rootLoc)
	for _, p := range t.pts {
		dst = append(dst, p.Loc)
	}
	return dst
}

// Quote enumerates every valid schedule that additionally serves req and
// returns the vehicle's non-dominated candidates over (pick-up distance,
// detour delta). It returns nil when the vehicle cannot serve the
// request at all (capacity, budgets, or the pending-point cap). The
// tree itself is not modified, and the returned candidates' schedules
// are freshly allocated (they outlive the call by design — skylines and
// request records retain them).
func (t *Tree) Quote(req Request) []Candidate {
	packed, pts := t.QuotePacked(req, nil, nil, nil)
	var out []Candidate
	for _, c := range packed {
		out = append(out, c.Unpack(pts))
	}
	return out
}

// PackedCandidate is a feasible schedule whose stop sequence is still
// permutation-encoded (4-bit point indices over the quoted point set):
// the allocation-free probe result. Callers that filter candidates —
// the matchers' skylines reject most — materialise the survivors only,
// with Unpack.
type PackedCandidate struct {
	Perm       uint64
	PickupDist float64
	TotalDist  float64
	Delta      float64
}

// Unpack materialises c over the point set QuotePacked returned with
// it. The schedule is freshly allocated and safe to retain.
func (c PackedCandidate) Unpack(pts []Point) Candidate {
	return Candidate{
		Seq:        UnpackSeq(c.Perm, pts),
		PickupDist: c.PickupDist,
		TotalDist:  c.TotalDist,
		Delta:      c.Delta,
	}
}

// UnpackSeq materialises the stop sequence of a packed candidate over
// the point set returned by QuotePacked. The result is freshly
// allocated and safe to retain.
func UnpackSeq(perm uint64, pts []Point) []Point {
	seq := make([]Point, len(pts))
	for j := range seq {
		seq[j] = pts[(perm>>(4*uint(j)))&0xF]
	}
	return seq
}

// QuotePacked is the allocation-free probe: candidates come back
// permutation-encoded (appended to dst) together with the quoted point
// set (appended to ptsBuf, which the permutations index). Both buffers
// are caller-owned, and both are filled by copying out of the walk's
// pooled workspace before it is released, so nothing returned aliases
// memory another tree's walk will reuse. The point set describes this
// quote only — materialise surviving candidates with Unpack before
// reusing the buffers for the next probe. A seed that still matches
// the tree state pre-fills the request-specific rows of the
// enumeration's distance matrix: every dist(x, s) and dist(x, d) the
// enumeration would compute lazily — one point search each through the
// metric — is answered from the caller's multi-target pass instead.
func (t *Tree) QuotePacked(req Request, dst []PackedCandidate, ptsBuf []Point, seed *QuoteSeed) ([]PackedCandidate, []Point) {
	ws := acquireWorkspace()
	defer ws.release()
	entries := t.quotePacked(ws, req, seed)
	if len(entries) == 0 {
		return dst, ptsBuf
	}
	for _, e := range entries {
		dst = append(dst, PackedCandidate{
			Perm:       e.Payload,
			PickupDist: e.Time,
			TotalDist:  e.Price + t.bestDist,
			Delta:      e.Price,
		})
	}
	return dst, append(ptsBuf, ws.pts...)
}

// quotePacked runs the seeded enumeration in ws and returns the
// non-dominated candidates as sorted skyline entries over (pick-up
// distance, detour delta), permutation-encoded over ws.pts. A stale
// tree is rebuilt in ws first. The entries alias ws.sky: they are
// valid until ws is released.
func (t *Tree) quotePacked(ws *workspace, req Request, seed *QuoteSeed) []skyline.Entry[uint64] {
	if req.Riders > t.capacity || len(t.pts)+2 > t.maxPoints {
		return nil
	}
	if t.dirty {
		t.rebuild(ws, nil)
	}
	if len(t.pts) > 0 && t.branches == 0 {
		// No valid schedule even without the new request; the vehicle
		// is in violation (should not happen) — refuse new work.
		return nil
	}
	baseline := t.bestDist
	if math.IsInf(baseline, 1) {
		return nil
	}

	// The quoted request rides along uncommitted: its pickup deadline is
	// anchored only by Commit.
	ws.quoted = reqState{Request: req, pickupDeadline: math.Inf(1)}
	ws.load(t, &ws.quoted)
	if seed != nil && seed.matches(t) {
		m := len(t.pts)
		n := ws.n
		sIdx, dIdx := m+1, m+2
		for i := 0; i <= m; i++ {
			ws.exact[i*n+sIdx] = seed.SDist[i]
			ws.exact[sIdx*n+i] = seed.SDist[i]
			ws.exact[i*n+dIdx] = seed.DDist[i]
			ws.exact[dIdx*n+i] = seed.DDist[i]
		}
		ws.exact[sIdx*n+dIdx] = req.SD
		ws.exact[dIdx*n+sIdx] = req.SD
	}
	quotedIdx := len(ws.reqs) - 1
	ws.sky.Reset()
	ws.walk(0, 0, t.Onboard(), 0, 0, func(perm uint64, total float64) {
		pickup, delta := ws.pickDist[quotedIdx], total-baseline
		if !ws.sky.IsDominated(pickup, delta) && !ws.sky.ContainsPoint(pickup, delta) {
			ws.sky.Add(pickup, delta, perm)
		}
	})
	return ws.sky.Sorted()
}

// Commit adds req to the vehicle with the planned schedule of cand (a
// candidate previously returned by Quote with no intervening root
// movement). The waiting-time constraint is anchored here: the pickup's
// odometer deadline becomes odo + cand.PickupDist + req.WaitBudget.
func (t *Tree) Commit(req Request, cand Candidate) error {
	if err := t.add(&reqState{
		Request:          req,
		pickupDeadline:   t.odo + cand.PickupDist + req.WaitBudget,
		plannedPickupOdo: t.odo + cand.PickupDist,
	}); err != nil {
		return err
	}
	t.ensureFresh()
	if t.branches == 0 {
		// Roll back: the candidate was stale (root moved since Quote).
		t.removeRequestAt(len(t.reqs) - 1)
		t.dirty = true
		return fmt.Errorf("kinetic: committing request %d leaves no valid schedule (stale candidate)", req.ID)
	}
	return nil
}

// add appends a not yet picked-up request and its two points, leaving
// the tree dirty.
func (t *Tree) add(st *reqState) error {
	if t.findReq(st.ID) >= 0 {
		return fmt.Errorf("kinetic: request %d already assigned", st.ID)
	}
	if len(t.pts)+2 > t.maxPoints {
		return fmt.Errorf("kinetic: vehicle is at its pending-point cap")
	}
	ri := len(t.reqs)
	t.reqs = append(t.reqs, st)
	t.pts = append(t.pts,
		Point{Loc: st.S, Kind: Pickup, Req: st.ID},
		Point{Loc: st.D, Kind: Dropoff, Req: st.ID},
	)
	t.reqIdx = append(t.reqIdx, ri, ri)
	t.dirty = true
	return nil
}

// Pickup marks request id as picked up. The vehicle must be located at
// the request's start vertex. The in-vehicle service budget is anchored
// to the current odometer.
func (t *Tree) Pickup(id RequestID) error {
	ri := t.findReq(id)
	if ri < 0 {
		return fmt.Errorf("kinetic: pickup of unknown request %d", id)
	}
	r := t.reqs[ri]
	if r.onboard {
		return fmt.Errorf("kinetic: request %d already onboard", id)
	}
	if t.rootLoc != r.S {
		return fmt.Errorf("kinetic: pickup of request %d at vertex %d, vehicle is at %d", id, r.S, t.rootLoc)
	}
	if t.odo > r.pickupDeadline {
		return fmt.Errorf("kinetic: request %d picked up past its waiting deadline (odo %v > %v)", id, t.odo, r.pickupDeadline)
	}
	r.onboard = true
	r.dropoffDeadline = t.odo + r.ServiceLimit
	t.removePoint(func(p Point) bool { return p.Req == id && p.Kind == Pickup })
	t.dirty = true
	t.ensureFresh() // keep MaxLegUpper sound: rebuild on structural change
	return nil
}

// Dropoff completes request id. The vehicle must be located at the
// request's destination vertex.
func (t *Tree) Dropoff(id RequestID) error {
	ri := t.findReq(id)
	if ri < 0 {
		return fmt.Errorf("kinetic: dropoff of unknown request %d", id)
	}
	r := t.reqs[ri]
	if !r.onboard {
		return fmt.Errorf("kinetic: dropoff of request %d before pickup", id)
	}
	if t.rootLoc != r.D {
		return fmt.Errorf("kinetic: dropoff of request %d at vertex %d, vehicle is at %d", id, r.D, t.rootLoc)
	}
	if t.odo > r.dropoffDeadline {
		return fmt.Errorf("kinetic: request %d dropped off past its service deadline (odo %v > %v)", id, t.odo, r.dropoffDeadline)
	}
	t.removeRequestAt(ri)
	t.dirty = true
	t.ensureFresh()
	return nil
}

// Cancel removes request id from the vehicle regardless of state (rider
// cancellation / failure injection). Riders onboard are treated as
// dropped at the current location.
func (t *Tree) Cancel(id RequestID) error {
	ri := t.findReq(id)
	if ri < 0 {
		return fmt.Errorf("kinetic: cancel of unknown request %d", id)
	}
	t.removeRequestAt(ri)
	t.dirty = true
	t.ensureFresh()
	return nil
}

// PlannedPickupOdo returns the odometer reading at which request id was
// promised to be picked up, for waiting-time statistics.
func (t *Tree) PlannedPickupOdo(id RequestID) (float64, bool) {
	ri := t.findReq(id)
	if ri < 0 {
		return 0, false
	}
	return t.reqs[ri].plannedPickupOdo, true
}

func (t *Tree) findReq(id RequestID) int {
	for i, r := range t.reqs {
		if r.ID == id {
			return i
		}
	}
	return -1
}

func (t *Tree) removePoint(match func(Point) bool) {
	for i := 0; i < len(t.pts); i++ {
		if match(t.pts[i]) {
			t.pts = append(t.pts[:i], t.pts[i+1:]...)
			t.reqIdx = append(t.reqIdx[:i], t.reqIdx[i+1:]...)
			i--
		}
	}
}

// removeRequestAt removes request index ri, its points, and re-indexes
// reqIdx.
func (t *Tree) removeRequestAt(ri int) {
	id := t.reqs[ri].ID
	t.removePoint(func(p Point) bool { return p.Req == id })
	t.reqs = append(t.reqs[:ri], t.reqs[ri+1:]...)
	for i := range t.reqIdx {
		if t.reqIdx[i] > ri {
			t.reqIdx[i]--
		}
	}
}
