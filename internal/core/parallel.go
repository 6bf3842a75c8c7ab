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

// This file holds the engine's parallel candidate-evaluation machinery.
//
// The matchers' hot cost is the kinetic-tree insertion probe
// (Vehicle.Quote); ring scanning and bound checks are cheap by
// comparison. With MatchWorkers > 1 the matchers therefore collect the
// vehicles that survive bound-based pruning per ring cell into a batch,
// probe the batch concurrently (each probe under its own vehicle's
// lock, side-effect-free), and fold the returned candidates into the
// skyline sequentially in discovery order.
//
// Folding in discovery order is what keeps the parallel matcher's
// option sets identical to the serial matcher's: the skyline is a
// deterministic function of the folded options and their order (order
// decides which vehicle wins an exact coordinate tie), and vehicles the
// serial matcher would have pruned mid-cell only ever contribute
// strictly dominated candidates (the bounds are sound), which the fold
// rejects. The parallel mode may therefore probe more vehicles —
// Verified/PrunedVehicles in MatchStats shift — but the returned
// skyline does not.

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
	batch   []*fleet.Vehicle      // vehicles awaiting a parallel probe
	pending []pendingVehicle      // dual-side deferred vehicles

	// Packed-probe buffers: candidates stay permutation-encoded until
	// the fold accepts them, so probing allocates nothing.
	pcands  []kinetic.PackedCandidate   // serial-probe candidates
	ptsBuf  []kinetic.Point             // serial-probe point set
	pquotes [][]kinetic.PackedCandidate // per-slot probe result views
	ppts    [][]kinetic.Point           // per-slot point-set views
	pbufs   [][]kinetic.PackedCandidate // per-slot candidate storage
	ptsBufs [][]kinetic.Point           // per-slot point-set storage

	sky skyline.Skyline[Option] // per-match result skyline

	// The match's two resumable searches, from the request's s and d;
	// every batch fill below extends one of them (see anchor).
	sAnchor, dAnchor anchor

	// Empty-scan staging: the lower-bound survivors of one cell,
	// resolved by one batch fill.
	memoSc     memoBatchScratch
	emptyVehs  []*fleet.Vehicle
	emptyLocs  []roadnet.VertexID
	emptyDists []float64

	// Seeded-flush staging: the batched vehicles' schedule locations
	// (concatenated, with per-slot offsets) and the request-specific
	// distance rows fanned out to them.
	probeLocs   []roadnet.VertexID
	probeStarts []int32
	probeS      []float64
	probeD      []float64
	seeds       []kinetic.QuoteSeed
}

func (ctx *matchContext) getScratch() *matchScratch {
	return ctx.scratch.Get().(*matchScratch)
}

// putScratch ends the match: its anchored searches go back to the
// memo's pool, their work is booked to stats, and the scratch returns
// to the context's pool.
func (ctx *matchContext) putScratch(sc *matchScratch, stats *MatchStats) {
	stats.Settled += ctx.metric.release(&sc.sAnchor) + ctx.metric.release(&sc.dAnchor)
	sc.batch = sc.batch[:0]
	sc.pending = sc.pending[:0]
	ctx.scratch.Put(sc)
}

// parallelGrain is the smallest probe count worth one extra goroutine:
// batches below 2×grain run serially, so sparsely populated cells do
// not pay goroutine handoff for a couple of kinetic-tree probes.
const parallelGrain = 2

// adaptiveWidth sizes the candidate-evaluation fan-out from the
// surviving candidate count: one worker per parallelGrain probes,
// capped by the configured MatchWorkers budget.
func adaptiveWidth(workers, n int) int {
	if workers <= 1 || n < 2*parallelGrain {
		return 1
	}
	w := n / parallelGrain
	if w > workers {
		w = workers
	}
	return w
}

// flushBatch probes every batched vehicle and folds the candidates into
// the skyline in batch order. Probes run seeded: the vehicles' schedule
// locations are snapshotted, every request-specific distance the
// probes will read — dist(x, s) and dist(x, d) for every schedule
// point x — is answered through the memo's batch-fill API (the misses
// of each side by extending the match's anchored search from s or d),
// and the probes consume the results straight from their enumeration
// matrices instead of issuing per-pair point searches. The fan-out
// width adapts to the batch size (see adaptiveWidth) and the widest
// fan-out used is recorded in stats.ParallelWidth. The batch is reset.
func (ctx *matchContext) flushBatch(sc *matchScratch, spec *ReqSpec, sky *skyline.Skyline[Option], stats *MatchStats) {
	n := len(sc.batch)
	if n == 0 {
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
	for len(sc.seeds) < n {
		sc.seeds = append(sc.seeds, kinetic.QuoteSeed{})
	}
	for i := 0; i < n; i++ {
		a, b := sc.probeStarts[i], sc.probeStarts[i+1]
		sc.seeds[i] = kinetic.QuoteSeed{Locs: sc.probeLocs[a:b], SDist: probeS[a:b], DDist: probeD[a:b]}
	}

	width := adaptiveWidth(ctx.workers, n)
	if width > stats.ParallelWidth {
		stats.ParallelWidth = width
	}
	if width <= 1 {
		for i, v := range sc.batch {
			stats.Verified++
			pcands, pts := v.QuotePacked(spec.Kin, sc.pcands[:0], sc.ptsBuf[:0], &sc.seeds[i])
			foldPacked(v, pcands, pts, spec, sky, stats)
			sc.pcands, sc.ptsBuf = pcands[:0], pts[:0] // retain grown buffers
		}
	} else {
		if cap(sc.pquotes) < n {
			sc.pquotes = make([][]kinetic.PackedCandidate, n)
			sc.ppts = make([][]kinetic.Point, n)
		}
		for len(sc.pbufs) < n {
			sc.pbufs = append(sc.pbufs, nil)
			sc.ptsBufs = append(sc.ptsBufs, nil)
		}
		pquotes, ppts := sc.pquotes[:n], sc.ppts[:n]
		pbufs, ptsBufs := sc.pbufs, sc.ptsBufs
		seeds := sc.seeds
		parallelFor(width, n, func(i int) {
			pquotes[i], ppts[i] = sc.batch[i].QuotePacked(spec.Kin, pbufs[i][:0], ptsBufs[i][:0], &seeds[i])
		})
		for i, v := range sc.batch {
			stats.Verified++
			foldPacked(v, pquotes[i], ppts[i], spec, sky, stats)
			if pquotes[i] != nil {
				pbufs[i] = pquotes[i][:0] // retain grown buffers
			}
			if ppts[i] != nil {
				ptsBufs[i] = ppts[i][:0]
			}
			pquotes[i], ppts[i] = nil, nil
		}
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
