package core

import (
	"math"
	"sync"
	"sync/atomic"

	"ptrider/internal/fleet"
	"ptrider/internal/gridindex"
	"ptrider/internal/kinetic"
	"ptrider/internal/roadnet"
	"ptrider/internal/skyline"
)

// scratch.go holds the per-match workspace (visitSet, matchScratch), the
// seeded probe flush that works in it, and the engine's one fan-out
// primitive.
//
// The matchers' hot cost is the kinetic-tree insertion probe
// (Vehicle.Quote); ring scanning and bound checks are cheap by
// comparison. The matchers therefore collect the vehicles that survive
// bound-based pruning per ring cell into a batch, answer every distance
// the batch's probes will read with two batch fills, and probe the
// batch serially — each probe under its own vehicle's lock,
// side-effect-free — folding the returned candidates into the skyline
// in discovery order. Fold order decides which vehicle wins an exact
// coordinate tie, so the skyline is a deterministic function of the
// fleet state.
//
// A match spawns no goroutines. The engine's parallelism is across
// requests (concurrent Submit calls) and across the items of one
// SubmitBatch wave (parallelFor, below).

// visitSet is an epoch-stamped membership set over dense vehicle ids,
// reused across matches to avoid clearing. Ids beyond the current size
// (vehicles added mid-match) grow the stamp slice on demand.
type visitSet struct {
	stamp []uint32
	epoch uint32
}

// begin starts a new epoch sized for n vehicles.
func (s *visitSet) begin(n int) {
	if len(s.stamp) < n {
		grown := make([]uint32, n)
		copy(grown, s.stamp)
		s.stamp = grown
	}
	s.epoch++
	if s.epoch == 0 {
		for i := range s.stamp {
			s.stamp[i] = 0
		}
		s.epoch = 1
	}
}

func (s *visitSet) grow(id gridindex.VehicleID) {
	if int(id) >= len(s.stamp) {
		grown := make([]uint32, int(id)+1)
		copy(grown, s.stamp)
		s.stamp = grown
	}
}

// first marks id visited and reports whether this was the first visit
// this epoch.
func (s *visitSet) first(id gridindex.VehicleID) bool {
	s.grow(id)
	if s.stamp[id] == s.epoch {
		return false
	}
	s.stamp[id] = s.epoch
	return true
}

// mark records id without reporting.
func (s *visitSet) mark(id gridindex.VehicleID) {
	s.grow(id)
	s.stamp[id] = s.epoch
}

// seen reports whether id was marked this epoch.
func (s *visitSet) seen(id gridindex.VehicleID) bool {
	return int(id) < len(s.stamp) && s.stamp[id] == s.epoch
}

// matchScratch is the per-match workspace. Matchers are stateless and
// safe for concurrent Match calls; each call checks a scratch out of
// the context's pool. The scratch covers every reusable buffer of the
// hot path — cell-list reads, probe batches, candidate slices, the
// result skyline, and the distance-memo batch-fill workspace — so a
// steady-state match allocates only what escapes into the returned
// options.
type matchScratch struct {
	visit visitSet // s-side discovery
	dseen visitSet // d-side discovery (dual-side only)

	ids     []gridindex.VehicleID // cell-list read buffer
	batch   []*fleet.Vehicle      // vehicles awaiting a probe
	pending []pendingVehicle      // dual-side deferred vehicles

	// Probe buffer: candidates land here, so probing allocates nothing.
	cands []kinetic.Candidate

	sky skyline.Skyline[Option] // per-match result skyline

	// The match's two sweeps, from the request's s and d; every batch
	// fill below reads one of them (see anchor).
	sAnchor, dAnchor anchor

	// Empty-scan staging: the lower-bound survivors of one cell,
	// resolved by one batch fill.
	memoSc     memoBatchScratch
	emptyVehs  []*fleet.Vehicle
	emptyLocs  []roadnet.VertexID
	emptyDists []float64

	// Seeded-flush staging: the batched vehicles' schedule locations
	// (concatenated, with per-slot offsets), the request-specific
	// distance rows, and the view of both handed to the probe in flight.
	probeLocs   []roadnet.VertexID
	probeStarts []int32
	probeS      []float64
	probeD      []float64
	seed        kinetic.QuoteSeed

	// The running skyline as the probes' bound, passed by pointer so
	// handing it to a probe allocates nothing.
	bound skyBound
}

func (ctx *matchContext) getScratch() *matchScratch {
	return ctx.scratch.Get().(*matchScratch)
}

// putScratch ends the match: its anchors' queries go back to the
// memo's pool, their sweeps are booked to stats, and the scratch
// returns to the context's pool.
func (ctx *matchContext) putScratch(sc *matchScratch, stats *MatchStats) {
	stats.Settled += ctx.metric.release(&sc.sAnchor) + ctx.metric.release(&sc.dAnchor)
	sc.batch = sc.batch[:0]
	sc.pending = sc.pending[:0]
	sc.bound = skyBound{}
	ctx.scratch.Put(sc)
}

// flushBatch probes every batched vehicle and folds the candidates into
// the skyline in batch order. Probes run seeded: the vehicles' schedule
// locations are snapshotted, every request-specific distance the
// probes will read — dist(x, s) and dist(x, d) for every schedule
// point x — is answered through the memo's batch-fill API (the misses
// of each side from the match's sweep from s or d),
// and the probes consume the results straight from their enumeration
// matrices instead of issuing per-pair point searches. Each probe's
// walk is bounded by the skyline as the fold has left it so far, so it
// skips the schedules the fold would reject (see skyBound). The batch
// is reset.
func (ctx *matchContext) flushBatch(sc *matchScratch, spec *ReqSpec, sky *skyline.Skyline[Option], stats *MatchStats) {
	if len(sc.batch) == 0 {
		return
	}
	sc.probeLocs = sc.probeLocs[:0]
	sc.probeStarts = sc.probeStarts[:0]
	for _, v := range sc.batch {
		sc.probeStarts = append(sc.probeStarts, int32(len(sc.probeLocs)))
		sc.probeLocs = v.AppendProbeLocs(sc.probeLocs)
	}
	sc.probeStarts = append(sc.probeStarts, int32(len(sc.probeLocs)))
	total := len(sc.probeLocs)
	if cap(sc.probeS) < total {
		sc.probeS = make([]float64, total)
		sc.probeD = make([]float64, total)
	}
	probeS, probeD := sc.probeS[:total], sc.probeD[:total]
	ctx.metric.DistBatch(&sc.sAnchor, spec.Kin.S, sc.probeLocs, math.Inf(1), probeS, &sc.memoSc)
	ctx.metric.DistBatch(&sc.dAnchor, spec.Kin.D, sc.probeLocs, math.Inf(1), probeD, &sc.memoSc)
	stats.ParallelWidth = 1
	sc.bound = skyBound{spec: spec, sky: sky}
	for i, v := range sc.batch {
		a, b := sc.probeStarts[i], sc.probeStarts[i+1]
		sc.seed = kinetic.QuoteSeed{Locs: sc.probeLocs[a:b], SDist: probeS[a:b], DDist: probeD[a:b]}
		stats.Verified++
		sc.cands = v.AppendQuote(sc.cands[:0], spec.Kin, &sc.seed, &sc.bound)
		foldQuote(v, sc.cands, spec, sky)
	}
	sc.batch = sc.batch[:0]
}

// parallelFor runs fn(0..n-1) across up to `workers` goroutines with
// work stealing via an atomic index; the caller participates, so the
// call makes progress even when the scheduler is saturated. fn must be
// safe for concurrent invocation on distinct indices.
func parallelFor(workers, n int, fn func(int)) {
	k := workers
	if n < k {
		k = n
	}
	if k <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(k - 1)
	for w := 0; w < k-1; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	for {
		i := int(next.Add(1) - 1)
		if i >= n {
			break
		}
		fn(i)
	}
	wg.Wait()
}
