package core

import (
	"context"
	"math"

	"ptrider/internal/fleet"
	"ptrider/internal/gridindex"
	"ptrider/internal/skyline"
)

// RingMatcher implements the paper's two index-based search algorithms
// (§3.3) as one ring walk; it is registered twice, once per Algorithm.
//
// Single-side search: starting from the grid cell of the request's
// start location s, cells are visited in ascending order of their
// lower-bound distance to s (each cell's precomputed sorted cell list).
// Empty and non-empty vehicles are processed separately:
//
//   - Empty vehicles: both coordinates of an empty vehicle's option grow
//     with dist(l, s), so only the nearest empty vehicle can contribute
//     (the empty-vehicle dominance lemma); the ring scan finds it
//     without quoting the rest.
//   - Non-empty vehicles: a vehicle is verified (kinetic-tree insertion
//     probe) only if its optimistic option (LB(l, s), f_n·dist(s,d)) is
//     not already dominated by the running skyline. The survivors of
//     a cell are probed as one seeded batch and folded in discovery
//     order (see flushBatch).
//
// Ring expansion terminates when a hypothetical vehicle at the current
// ring radius could no longer contribute a non-dominated option, or
// when the radius exceeds the engine's pick-up cutoff.
//
// Dual-side search adds three things to that walk. A second ring
// expands from the destination d in lockstep with the first. A
// non-empty vehicle discovered near s whose schedule has not yet been
// discovered from the d side at radius L_d is certifiably far from d:
// every schedule location x has dist(x, d) ≥ L_d, so inserting d into
// any gap (x, y) costs at least 2·L_d − dist(x, y) extra distance, and
// appending it costs at least L_d. That detour lower bound
//
//	ΔLB = max(0, min(L_d, 2·L_d − maxLeg))
//
// often dominates such vehicles out of consideration without a
// kinetic-tree insertion probe — exactly the paper's scenario of a
// schedule "near the start location but far from the destination".
// Vehicles that survive the bound are deferred; when the s-side
// expansion finishes, survivors are re-tested against the final skyline
// and verified only if still potentially non-dominated.
//
// The matcher is stateless; per-match workspace comes from the shared
// scratch pool, so concurrent Match calls are safe.
type RingMatcher struct {
	ctx  *matchContext
	dual bool
}

func newRingMatcher(ctx *matchContext, dual bool) *RingMatcher {
	return &RingMatcher{ctx: ctx, dual: dual}
}

// pendingVehicle is a vehicle deferred by the d-side bound, with the
// probe state captured at deferral time.
type pendingVehicle struct {
	v        *fleet.Vehicle
	pickupLB float64
	maxLeg   float64
}

// detourLB returns the d-side detour lower bound for a vehicle none of
// whose registered cells has been reached by the d-ring at radius ld.
func detourLB(ld, maxLeg float64) float64 {
	lb := math.Min(ld, 2*ld-maxLeg)
	if lb < 0 {
		return 0
	}
	return lb
}

// emptyScan tracks the ring walk's nearest-empty-vehicle search. Every
// improvement is folded into the skyline eagerly: the improving option
// is achievable, so inserting it immediately is sound, and it is what
// arms the detour-based pruning of non-empty vehicles with a baseline
// to dominate against. A closer empty vehicle found later dominates
// (and evicts) the earlier entry.
type emptyScan struct {
	bestDist float64
	// bestOpt is the winning option, snapshotted at scan time so a
	// concurrent move of the vehicle cannot skew the final insert.
	bestOpt Option
	has     bool
	done    bool
}

func newEmptyScan() emptyScan { return emptyScan{bestDist: math.Inf(1)} }

// scanCell folds one cell's empty-vehicle list into the running best:
// lower-bound filtering first, then one batch fill — bounded by the
// current best, since anything at or beyond it cannot change the scan's
// outcome — resolves the survivors' exact distances, folded in list
// order.
func (es *emptyScan) scanCell(ctx *matchContext, sc *matchScratch, cell gridindex.CellID, spec *ReqSpec, sky *skyline.Skyline[Option], stats *MatchStats) {
	if spec.Kin.Riders > ctx.fleet.Capacity() {
		// No vehicle can hold the group; the synthetic empty-vehicle
		// option must not be fabricated (the kinetic quote path refuses
		// such requests, and the matchers must agree).
		es.done = true
		return
	}
	sc.ids = ctx.lists.AppendEmpty(cell, sc.ids[:0])
	sc.emptyVehs = sc.emptyVehs[:0]
	sc.emptyLocs = sc.emptyLocs[:0]
	for _, id := range sc.ids {
		v, err := ctx.fleet.Vehicle(id)
		if err != nil {
			continue
		}
		loc, active := v.ActiveLoc()
		if !active {
			continue
		}
		lb := ctx.metric.LB(loc, spec.Kin.S)
		if lb >= es.bestDist || lb > spec.MaxPickupDist {
			stats.PrunedVehicles++
			continue
		}
		sc.emptyVehs = append(sc.emptyVehs, v)
		sc.emptyLocs = append(sc.emptyLocs, loc)
	}
	es.foldPass(ctx, sc, spec, sky)
}

// foldPass resolves the staged lower-bound survivors
// (sc.emptyVehs/emptyLocs) with one batch fill and folds them in list
// order. The filter ran against the cell-entry best, so the fill may
// cover vehicles an eagerly-updating scan would have pruned; their
// distances are at or beyond the running best by the bounds' soundness,
// so the fold rejects them and the outcome is identical.
func (es *emptyScan) foldPass(ctx *matchContext, sc *matchScratch, spec *ReqSpec, sky *skyline.Skyline[Option]) {
	if len(sc.emptyLocs) == 0 {
		return
	}
	if cap(sc.emptyDists) < len(sc.emptyLocs) {
		sc.emptyDists = make([]float64, len(sc.emptyLocs))
	}
	dists := sc.emptyDists[:len(sc.emptyLocs)]
	ctx.metric.DistBatch(&sc.sAnchor, spec.Kin.S, sc.emptyLocs, es.bestDist, dists, &sc.memoSc)
	for j, v := range sc.emptyVehs {
		if d := dists[j]; d < es.bestDist {
			es.bestDist = d
			es.bestOpt = emptyVehicleOption(v, d, spec)
			es.has = true
			if d <= spec.MaxPickupDist {
				opt := es.bestOpt
				if !sky.IsDominated(opt.PickupDist, opt.Price) && !sky.ContainsPoint(opt.PickupDist, opt.Price) {
					sky.Add(opt.PickupDist, opt.Price, opt)
				}
			}
		}
	}
}

// terminateAt reports whether cells at ring radius L and beyond can be
// skipped for empty vehicles.
func (es *emptyScan) terminateAt(L float64, spec *ReqSpec, sky *skyline.Skyline[Option]) bool {
	if es.done {
		return true
	}
	if es.bestDist <= L || sky.IsDominated(L, spec.Ratio*(L+2*spec.Kin.SD)) {
		es.done = true
	}
	return es.done
}

// finish inserts the winning empty vehicle's option, if any.
func (es *emptyScan) finish(spec *ReqSpec, sky *skyline.Skyline[Option]) {
	if !es.has || es.bestDist > spec.MaxPickupDist {
		return
	}
	opt := es.bestOpt
	if !sky.IsDominated(opt.PickupDist, opt.Price) && !sky.ContainsPoint(opt.PickupDist, opt.Price) {
		sky.Add(opt.PickupDist, opt.Price, opt)
	}
}

// Match implements Matcher. The walk polls reqCtx once per ring cell
// and returns nothing once it is done.
func (m *RingMatcher) Match(reqCtx context.Context, spec *ReqSpec, stats *MatchStats) []Option {
	ctx := m.ctx
	before := ctx.metric.DistCalls()
	defer func() { stats.DistCalls += ctx.metric.DistCalls() - before }()

	sc := ctx.getScratch()
	defer ctx.putScratch(sc, stats)

	grid := ctx.grid()
	sCell, dCell := grid.CellOf(spec.Kin.S), grid.CellOf(spec.Kin.D)
	n := ctx.fleet.NumVehicles()
	sc.visit.begin(n)
	// Single-side has no destination ring: the lockstep below never
	// advances, nothing is deferred and the final flush finds no work.
	var dRing []uint16
	if m.dual {
		dRing = grid.Cell(dCell).Ring
		sc.dseen.begin(n)
	}

	sky := &sc.sky
	sky.Reset()
	es := newEmptyScan()
	nonEmptyDone := false
	pending := sc.pending[:0]

	di := 0
	ld := 0.0 // every vehicle not d-seen has all schedule locations ≥ ld from d

	for _, e := range grid.Cell(sCell).Ring {
		cell := gridindex.CellID(e)
		if done := reqCtx.Done(); done != nil {
			select {
			case <-done:
				return nil
			default:
			}
		}
		L := grid.CellLB(sCell, cell)
		if L > spec.MaxPickupDist {
			break
		}
		// Advance the d-ring in lockstep so ld grows with L.
		for di < len(dRing) && grid.CellLB(dCell, gridindex.CellID(dRing[di])) <= L {
			sc.ids = ctx.lists.AppendNonEmpty(gridindex.CellID(dRing[di]), sc.ids[:0])
			for _, id := range sc.ids {
				sc.dseen.mark(id)
			}
			stats.CellsScanned++
			di++
		}
		if di < len(dRing) {
			ld = grid.CellLB(dCell, gridindex.CellID(dRing[di]))
		} else {
			ld = math.Inf(1)
		}

		emptyDone := es.terminateAt(L, spec, sky)
		if !nonEmptyDone && sky.IsDominated(L, spec.MinPrice) {
			nonEmptyDone = true
		}
		if emptyDone && nonEmptyDone {
			break
		}
		stats.CellsScanned++

		if !emptyDone {
			es.scanCell(ctx, sc, cell, spec, sky, stats)
		}
		if !nonEmptyDone {
			sc.ids = ctx.lists.AppendNonEmpty(cell, sc.ids[:0])
			for _, id := range sc.ids {
				if !sc.visit.first(id) {
					continue
				}
				v, err := ctx.fleet.Vehicle(id)
				if err != nil {
					continue
				}
				loc, maxLeg, active := v.ProbeState()
				if !active {
					continue
				}
				pickupLB := ctx.metric.LB(loc, spec.Kin.S)
				if pickupLB > spec.MaxPickupDist || sky.IsDominated(pickupLB, spec.MinPrice) {
					stats.PrunedVehicles++
					continue
				}
				if !m.dual || sc.dseen.seen(id) {
					sc.batch = append(sc.batch, v)
					continue
				}
				// Certifiably far from d at radius ld: price floor rises.
				dlb := detourLB(ld, maxLeg)
				if sky.IsDominated(pickupLB, spec.Ratio*(spec.Kin.SD+dlb)) {
					stats.PrunedVehicles++
					continue
				}
				pending = append(pending, pendingVehicle{v: v, pickupLB: pickupLB, maxLeg: maxLeg})
			}
			ctx.flushBatch(sc, spec, sky, stats)
		}
	}

	// Flush deferred vehicles against the final skyline and d-frontier.
	for _, p := range pending {
		if sky.IsDominated(p.pickupLB, spec.MinPrice) {
			stats.PrunedVehicles++
			continue
		}
		if !sc.dseen.seen(p.v.ID) {
			dlb := detourLB(ld, p.maxLeg)
			if sky.IsDominated(p.pickupLB, spec.Ratio*(spec.Kin.SD+dlb)) {
				stats.PrunedVehicles++
				continue
			}
		}
		sc.batch = append(sc.batch, p.v)
	}
	ctx.flushBatch(sc, spec, sky, stats)
	sc.pending = pending[:0]

	es.finish(spec, sky)
	return skylineOptions(sky, stats)
}
