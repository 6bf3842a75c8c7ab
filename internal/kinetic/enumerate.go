package kinetic

import (
	"fmt"
	"math"

	"ptrider/internal/roadnet"
	"ptrider/internal/skyline"
)

// budgetEps absorbs floating-point drift when comparing travelled
// distances against budgets; distances are metres, so 1e-6 is far below
// any physical significance.
const budgetEps = 1e-6

// maxEnumPoints is the most points one enumeration can order: schedules
// are carried as permutation words of 4-bit point indices.
const maxEnumPoints = 16

// dfsScratch is the tree-owned workspace of the enumeration, reused by
// every rebuild and quote (both run under the vehicle's lock, and a
// quote refreshes the tree before it loads its own point set, so one
// workspace per tree suffices).
type dfsScratch struct {
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
}

// load fills the workspace with the tree's committed points and
// requests — followed by quoted and its pickup/dropoff pair when
// non-nil — and clears the distance matrix.
func (sc *dfsScratch) load(t *Tree, quoted *reqState) {
	sc.pts = append(sc.pts[:0], t.pts...)
	sc.reqIdx = append(sc.reqIdx[:0], t.reqIdx...)
	sc.reqs = append(sc.reqs[:0], t.reqs...)
	if quoted != nil {
		ri := len(sc.reqs)
		sc.reqs = append(sc.reqs, quoted)
		sc.pts = append(sc.pts,
			Point{Loc: quoted.S, Kind: Pickup, Req: quoted.ID},
			Point{Loc: quoted.D, Kind: Dropoff, Req: quoted.ID},
		)
		sc.reqIdx = append(sc.reqIdx, ri, ri)
	}

	sc.n = len(sc.pts) + 1
	sc.locs = append(sc.locs[:0], t.rootLoc)
	for _, p := range sc.pts {
		sc.locs = append(sc.locs, p.Loc)
	}
	need := sc.n * sc.n
	if cap(sc.exact) < need {
		sc.exact = make([]float64, need)
	}
	sc.exact = sc.exact[:need]
	for i := range sc.exact {
		sc.exact[i] = math.NaN()
	}
	nReqs := len(sc.reqs)
	if cap(sc.pickDist) < nReqs {
		sc.pickDist = make([]float64, nReqs)
		sc.picked = make([]bool, nReqs)
	}
	sc.pickDist = sc.pickDist[:nReqs]
	sc.picked = sc.picked[:nReqs]
	for i := range sc.picked {
		sc.picked[i] = false
	}
}

func (t *Tree) exactDist(i, j int) float64 {
	sc := &t.sc
	d := sc.exact[i*sc.n+j]
	if !math.IsNaN(d) {
		return d
	}
	d = t.metric.Dist(sc.locs[i], sc.locs[j])
	sc.exact[i*sc.n+j] = d
	return d
}

func (t *Tree) lbDist(i, j int) float64 {
	sc := &t.sc
	// A previously computed exact value is its own best lower bound.
	if d := sc.exact[i*sc.n+j]; !math.IsNaN(d) {
		return d
	}
	return t.metric.LB(sc.locs[i], sc.locs[j])
}

// stepBudget returns the odometer-relative distance budget for placing
// point pi of the workspace next in the current partial schedule, or
// ok=false when it cannot be placed at all.
func (t *Tree) stepBudget(pi int) (budget float64, ok bool) {
	sc := &t.sc
	ri := sc.reqIdx[pi]
	r := sc.reqs[ri]
	if sc.pts[pi].Kind == Pickup {
		return r.pickupDeadline - t.odo, true
	}
	if r.onboard {
		return r.dropoffDeadline - t.odo, true
	}
	if !sc.picked[ri] {
		return 0, false // dropoff cannot precede its pickup
	}
	return sc.pickDist[ri] + r.ServiceLimit, true
}

// walk is the enumeration: it extends the current partial schedule —
// depth points placed, the used set, the last one at location index cur
// (0 = root), occ riders aboard, carried as the permutation word perm
// and the dist_tr stack — with every feasible unused point, in point
// order, and hands each complete valid schedule to leaf with its total
// distance. It allocates nothing. While leaf runs, the workspace's
// distTr[1..] and pickDist describe the completed schedule.
func (t *Tree) walk(used, cur, occ int, perm uint64, depth uint, leaf func(perm uint64, total float64)) {
	sc := &t.sc
	curDist := sc.distTr[depth]
	full := 1<<len(sc.pts) - 1
	for pi, p := range sc.pts {
		bit := 1 << pi
		if used&bit != 0 {
			continue
		}
		ri := sc.reqIdx[pi]
		r := sc.reqs[ri]
		budget, ok := t.stepBudget(pi)
		if !ok {
			continue
		}
		if p.Kind == Pickup && occ+r.Riders > t.capacity {
			continue
		}
		// Lower-bound prune before the exact distance (paper §3.3).
		if curDist+t.lbDist(cur, pi+1) > budget+budgetEps {
			continue
		}
		nd := curDist + t.exactDist(cur, pi+1)
		if nd > budget+budgetEps {
			continue
		}

		nocc := occ
		if p.Kind == Pickup {
			nocc += r.Riders
			sc.picked[ri] = true
			sc.pickDist[ri] = nd
		} else {
			nocc -= r.Riders
		}
		sc.distTr[depth+1] = nd
		nperm := perm | uint64(pi)<<(4*depth)
		if used|bit == full {
			leaf(nperm, nd)
		} else {
			t.walk(used|bit, pi+1, nocc, nperm, depth+1, leaf)
		}
		if p.Kind == Pickup {
			sc.picked[ri] = false
		}
	}
}

// rebuild re-enumerates every valid ordering of the pending points from
// the current root, refreshing bestDist, the best schedule, the branch
// count and maxLeg. The best schedule is the first strictly shortest
// one in enumeration order. Each schedule is also handed to visit when
// non-nil (the Branches and TrieRoot views); the workspace's distTr
// then holds its dist_tr per stop.
func (t *Tree) rebuild(visit func(perm uint64)) {
	t.dirty = false
	t.odoAtBuild = t.odo
	t.maxLeg = 0
	if len(t.pts) == 0 {
		t.bestDist = 0
		t.branches = 1
		return
	}
	t.sc.load(t, nil)
	t.bestDist = math.Inf(1)
	t.branches = 0
	t.walk(0, 0, t.Onboard(), 0, 0, func(perm uint64, total float64) {
		if t.branches == 0 || total < t.bestDist {
			t.bestDist, t.bestPerm = total, perm
		}
		t.branches++
		// Only legs of schedules that complete count toward maxLeg.
		for j := range t.pts {
			if leg := t.sc.distTr[j+1] - t.sc.distTr[j]; leg > t.maxLeg {
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
// tree itself is not modified: the enumeration runs in the tree's
// reused workspace, and only the returned candidates' schedules are
// freshly allocated (they outlive the call by design — skylines and
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
// are caller-owned; nothing else escapes. The point set is only valid
// for this quote — materialise surviving candidates with Unpack before
// the next probe reuses the buffers. A seed that still matches
// the tree state pre-fills the request-specific rows of the
// enumeration's distance matrix: every dist(x, s) and dist(x, d) the
// enumeration would compute lazily — one point search each through the
// metric — is answered from the caller's multi-target pass instead.
func (t *Tree) QuotePacked(req Request, dst []PackedCandidate, ptsBuf []Point, seed *QuoteSeed) ([]PackedCandidate, []Point) {
	entries := t.quotePacked(req, seed)
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
	return dst, append(ptsBuf, t.sc.pts...)
}

// quotePacked runs the seeded enumeration and returns the non-dominated
// candidates as sorted skyline entries over (pick-up distance, detour
// delta), permutation-encoded over the workspace's point set. The
// entries alias the tree's skyline and are valid until the next quote
// on this tree (callers hold the vehicle lock for the duration).
func (t *Tree) quotePacked(req Request, seed *QuoteSeed) []skyline.Entry[uint64] {
	if req.Riders > t.capacity || len(t.pts)+2 > t.maxPoints {
		return nil
	}
	t.ensureFresh()
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
	sc := &t.sc
	t.quoted = reqState{Request: req, pickupDeadline: math.Inf(1)}
	sc.load(t, &t.quoted)
	if seed != nil && seed.matches(t) {
		m := len(t.pts)
		n := sc.n
		sIdx, dIdx := m+1, m+2
		for i := 0; i <= m; i++ {
			sc.exact[i*n+sIdx] = seed.SDist[i]
			sc.exact[sIdx*n+i] = seed.SDist[i]
			sc.exact[i*n+dIdx] = seed.DDist[i]
			sc.exact[dIdx*n+i] = seed.DDist[i]
		}
		sc.exact[sIdx*n+dIdx] = req.SD
		sc.exact[dIdx*n+sIdx] = req.SD
	}
	quotedIdx := len(sc.reqs) - 1
	t.sky.Reset()
	t.walk(0, 0, t.Onboard(), 0, 0, func(perm uint64, total float64) {
		pickup, delta := sc.pickDist[quotedIdx], total-baseline
		if !t.sky.IsDominated(pickup, delta) && !t.sky.ContainsPoint(pickup, delta) {
			t.sky.Add(pickup, delta, perm)
		}
	})
	return t.sky.Sorted()
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
	if t.odo > r.pickupDeadline+budgetEps {
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
	if t.odo > r.dropoffDeadline+budgetEps {
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
