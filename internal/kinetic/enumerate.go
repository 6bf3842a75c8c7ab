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

// dfsScratch holds the per-enumeration workspace, reused across
// rebuilds to keep the hot path allocation-light.
type dfsScratch struct {
	locs     []roadnet.VertexID // 0 is the root location, then one per point
	exact    []float64          // (k+1)×(k+1) lazy distance matrix; NaN = unknown
	n        int                // k+1
	pickDist []float64          // per request: dist_tr at its in-sequence pickup
	picked   []bool             // per request: pickup placed in current prefix
}

func (sc *dfsScratch) init(root roadnet.VertexID, pts []Point, nReqs int) {
	k := len(pts)
	sc.n = k + 1
	sc.locs = append(sc.locs[:0], root)
	for _, p := range pts {
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

func (t *Tree) exactDist(sc *dfsScratch, i, j int) float64 {
	d := sc.exact[i*sc.n+j]
	if !math.IsNaN(d) {
		return d
	}
	d = t.metric.Dist(sc.locs[i], sc.locs[j])
	sc.exact[i*sc.n+j] = d
	return d
}

func (t *Tree) lbDist(sc *dfsScratch, i, j int) float64 {
	// A previously computed exact value is its own best lower bound.
	if d := sc.exact[i*sc.n+j]; !math.IsNaN(d) {
		return d
	}
	return t.metric.LB(sc.locs[i], sc.locs[j])
}

// stepBudget returns the remaining distance budget for placing point pi
// (index into pts) when the vehicle has already driven curDist along the
// candidate schedule. +Inf means unconstrained. reqs and picked/pickDist
// come from the enumeration state.
func (t *Tree) stepBudget(sc *dfsScratch, pts []Point, reqIdx []int, reqs []*reqState, pi int) (budget float64, ok bool) {
	p := pts[pi]
	r := reqs[reqIdx[pi]]
	if p.Kind == Pickup {
		return r.pickupDeadline - t.odo, true
	}
	if r.onboard {
		return r.dropoffDeadline - t.odo, true
	}
	if !sc.picked[reqIdx[pi]] {
		return 0, false // dropoff cannot precede its pickup
	}
	return sc.pickDist[reqIdx[pi]] + r.ServiceLimit, true
}

// rebuild re-enumerates every valid ordering of the pending points from
// the current root, materialising the trie and refreshing bestDist and
// the branch count.
func (t *Tree) rebuild() {
	t.dirty = false
	t.odoAtBuild = t.odo
	sc := &t.scratch
	sc.init(t.rootLoc, t.pts, len(t.reqs))

	t.root = &Node{
		Point:     Point{Loc: t.rootLoc},
		Occupancy: t.startOccupancy(),
	}
	t.maxLeg = 0
	if len(t.pts) == 0 {
		t.bestDist = 0
		t.branches = 1
		return
	}
	full := (1 << len(t.pts)) - 1
	best, count := t.buildChildren(sc, t.root, 0, 0, 0.0, t.root.Occupancy, full)
	t.root.subtreeBest = best
	if count == 0 {
		t.bestDist = math.Inf(1)
		t.branches = 0
		t.root.Children = nil
		return
	}
	t.bestDist = best
	t.branches = count
}

func (t *Tree) startOccupancy() int {
	occ := 0
	for _, r := range t.reqs {
		if r.onboard {
			occ += r.Riders
		}
	}
	return occ
}

// buildChildren extends the trie node at location index cur (0 = root)
// with every feasible next point from the unused set, recursing until
// complete schedules are formed. It returns the best total distance in
// the subtree and the number of complete branches. Subtrees with no
// completion are discarded.
func (t *Tree) buildChildren(sc *dfsScratch, parent *Node, used int, cur int, curDist float64, occ int, full int) (best float64, count int) {
	best = math.Inf(1)
	for pi := range t.pts {
		bit := 1 << pi
		if used&bit != 0 {
			continue
		}
		p := t.pts[pi]
		ri := t.reqIdx[pi]
		r := t.reqs[ri]
		budget, ok := t.stepBudget(sc, t.pts, t.reqIdx, t.reqs, pi)
		if !ok {
			continue
		}
		if p.Kind == Pickup && occ+r.Riders > t.capacity {
			continue
		}
		// Lower-bound prune before the exact distance (paper §3.3).
		if curDist+t.lbDist(sc, cur, pi+1) > budget+budgetEps {
			continue
		}
		nd := curDist + t.exactDist(sc, cur, pi+1)
		if nd > budget+budgetEps {
			continue
		}

		child := &Node{Point: p, DistTr: nd, Occupancy: occ}
		var undoPick bool
		if p.Kind == Pickup {
			child.Occupancy += r.Riders
			sc.picked[ri] = true
			sc.pickDist[ri] = nd
			undoPick = true
		} else {
			child.Occupancy -= r.Riders
		}

		nused := used | bit
		if nused == full {
			parent.Children = append(parent.Children, child)
			child.subtreeBest = nd
			if nd < best {
				best = nd
			}
			if leg := nd - curDist; leg > t.maxLeg {
				t.maxLeg = leg
			}
			count++
		} else {
			subBest, subCount := t.buildChildren(sc, child, nused, pi+1, nd, child.Occupancy, full)
			if subCount > 0 {
				child.subtreeBest = subBest
				parent.Children = append(parent.Children, child)
				count += subCount
				if subBest < best {
					best = subBest
				}
				if leg := nd - curDist; leg > t.maxLeg {
					t.maxLeg = leg
				}
			}
		}
		if undoPick {
			sc.picked[ri] = false
		}
	}
	return best, count
}

// quoteScratch is the tree-owned workspace of quotePacked, reused
// across quotes. Quotes run under the vehicle's lock, so one workspace
// per tree suffices; only the candidate schedules that survive the
// per-vehicle skyline escape to the heap.
type quoteScratch struct {
	sc     dfsScratch
	reqs   []*reqState
	pts    []Point
	reqIdx []int
	newReq reqState

	// sky holds candidate schedules as permutation words — 4-bit point
	// indices packed little-endian by schedule position — so inserting
	// (and evicting) a candidate never allocates; the []Point sequences
	// are materialised only for the survivors.
	sky skyline.Skyline[uint64]

	// Per-walk constants, hoisted into the scratch so the recursive
	// enumeration is a method rather than an allocating closure.
	pickupPos int
	full      int
	baseline  float64
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
	var out []Candidate
	for _, e := range t.quotePacked(req, nil) {
		out = append(out, Candidate{
			Seq:        UnpackSeq(e.Payload, t.quote.pts),
			PickupDist: e.Time,
			TotalDist:  e.Price + t.quote.baseline,
			Delta:      e.Price,
		})
	}
	return out
}

// PackedCandidate is a feasible schedule whose stop sequence is still
// permutation-encoded (4-bit point indices over the quoted point set):
// the allocation-free probe result. Callers that filter candidates —
// the matchers' skylines reject most — materialise []Point schedules
// only for the survivors via UnpackSeq.
type PackedCandidate struct {
	Perm       uint64
	PickupDist float64
	TotalDist  float64
	Delta      float64
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
// for this quote — materialise surviving schedules with UnpackSeq
// before the next probe reuses the buffers. A seed that still matches
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
			TotalDist:  e.Price + t.quote.baseline,
			Delta:      e.Price,
		})
	}
	return dst, append(ptsBuf, t.quote.pts...)
}

// quotePacked runs the seeded enumeration and returns the non-dominated
// candidates as sorted skyline entries over (pick-up distance, detour
// delta), permutation-encoded. The entries alias the tree's quote
// workspace and are valid until the next quote on this tree (callers
// hold the vehicle lock for the duration).
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

	// Temporary point and request sets including the quoted request.
	qs := &t.quote
	qs.newReq = reqState{Request: req, pickupDeadline: math.Inf(1)}
	qs.reqs = append(qs.reqs[:0], t.reqs...)
	qs.reqs = append(qs.reqs, &qs.newReq)
	newReqIdx := len(qs.reqs) - 1
	qs.pts = append(qs.pts[:0], t.pts...)
	qs.pts = append(qs.pts,
		Point{Loc: req.S, Kind: Pickup, Req: req.ID},
		Point{Loc: req.D, Kind: Dropoff, Req: req.ID},
	)
	qs.reqIdx = append(qs.reqIdx[:0], t.reqIdx...)
	qs.reqIdx = append(qs.reqIdx, newReqIdx, newReqIdx)
	qs.pickupPos = len(qs.pts) - 2
	qs.full = (1 << len(qs.pts)) - 1
	qs.baseline = baseline

	qs.sc.init(t.rootLoc, qs.pts, len(qs.reqs))
	if seed != nil && seed.matches(t) {
		m := len(t.pts)
		n := qs.sc.n
		sIdx, dIdx := m+1, m+2
		for i := 0; i <= m; i++ {
			qs.sc.exact[i*n+sIdx] = seed.SDist[i]
			qs.sc.exact[sIdx*n+i] = seed.SDist[i]
			qs.sc.exact[i*n+dIdx] = seed.DDist[i]
			qs.sc.exact[dIdx*n+i] = seed.DDist[i]
		}
		qs.sc.exact[sIdx*n+dIdx] = req.SD
		qs.sc.exact[dIdx*n+sIdx] = req.SD
	}
	qs.sky.Reset()
	t.quoteWalk(qs, 0, 0, 0, t.startOccupancy(), math.NaN(), 0, 0)
	return qs.sky.Sorted()
}

// quoteWalk extends the current partial schedule with every feasible
// unused point, recursing to complete schedules and folding them into
// the per-vehicle skyline. The partial schedule is carried as a
// permutation word (perm, with depth points placed), so the recursion
// allocates nothing.
func (t *Tree) quoteWalk(qs *quoteScratch, used, cur int, curDist float64, occ int, newPickDist float64, perm uint64, depth uint) {
	for pi := range qs.pts {
		bit := 1 << pi
		if used&bit != 0 {
			continue
		}
		p := qs.pts[pi]
		ri := qs.reqIdx[pi]
		r := qs.reqs[ri]
		budget, ok := t.stepBudgetFor(&qs.sc, qs.pts, qs.reqIdx, qs.reqs, pi)
		if !ok {
			continue
		}
		if p.Kind == Pickup && occ+r.Riders > t.capacity {
			continue
		}
		if curDist+t.lbDist(&qs.sc, cur, pi+1) > budget+budgetEps {
			continue
		}
		nd := curDist + t.exactDist(&qs.sc, cur, pi+1)
		if nd > budget+budgetEps {
			continue
		}

		nocc := occ
		npd := newPickDist
		var undoPick bool
		if p.Kind == Pickup {
			nocc += r.Riders
			qs.sc.picked[ri] = true
			qs.sc.pickDist[ri] = nd
			undoPick = true
			if pi == qs.pickupPos {
				npd = nd
			}
		} else {
			nocc -= r.Riders
		}

		nperm := perm | uint64(pi)<<(4*depth)
		if used|bit == qs.full {
			if !qs.sky.IsDominated(npd, nd-qs.baseline) && !qs.sky.ContainsPoint(npd, nd-qs.baseline) {
				qs.sky.Add(npd, nd-qs.baseline, nperm)
			}
		} else {
			t.quoteWalk(qs, used|bit, pi+1, nd, nocc, npd, nperm, depth+1)
		}
		if undoPick {
			qs.sc.picked[ri] = false
		}
	}
}

// stepBudgetFor is stepBudget over caller-supplied point/request sets
// (used by Quote, whose sets include the uncommitted request).
func (t *Tree) stepBudgetFor(sc *dfsScratch, pts []Point, reqIdx []int, reqs []*reqState, pi int) (float64, bool) {
	p := pts[pi]
	r := reqs[reqIdx[pi]]
	if p.Kind == Pickup {
		return r.pickupDeadline - t.odo, true
	}
	if r.onboard {
		return r.dropoffDeadline - t.odo, true
	}
	if !sc.picked[reqIdx[pi]] {
		return 0, false
	}
	return sc.pickDist[reqIdx[pi]] + r.ServiceLimit, true
}

// Commit adds req to the vehicle with the planned schedule of cand (a
// candidate previously returned by Quote with no intervening root
// movement). The waiting-time constraint is anchored here: the pickup's
// odometer deadline becomes odo + cand.PickupDist + req.WaitBudget.
func (t *Tree) Commit(req Request, cand Candidate) error {
	for _, r := range t.reqs {
		if r.ID == req.ID {
			return fmt.Errorf("kinetic: request %d already assigned", req.ID)
		}
	}
	if len(t.pts)+2 > t.maxPoints {
		return fmt.Errorf("kinetic: vehicle is at its pending-point cap")
	}
	st := &reqState{
		Request:          req,
		pickupDeadline:   t.odo + cand.PickupDist + req.WaitBudget,
		plannedPickupOdo: t.odo + cand.PickupDist,
	}
	t.reqs = append(t.reqs, st)
	ri := len(t.reqs) - 1
	t.pts = append(t.pts,
		Point{Loc: req.S, Kind: Pickup, Req: req.ID},
		Point{Loc: req.D, Kind: Dropoff, Req: req.ID},
	)
	t.reqIdx = append(t.reqIdx, ri, ri)
	t.dirty = true
	t.ensureFresh()
	if t.branches == 0 {
		// Roll back: the candidate was stale (root moved since Quote).
		t.removeRequestAt(ri)
		t.dirty = true
		return fmt.Errorf("kinetic: committing request %d leaves no valid schedule (stale candidate)", req.ID)
	}
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
