package core

import (
	"context"
	"math"
	"sync"

	"ptrider/internal/fleet"
	"ptrider/internal/gridindex"
	"ptrider/internal/kinetic"
	"ptrider/internal/pricing"
	"ptrider/internal/roadnet"
	"ptrider/internal/skyline"
)

// Option is one qualified result ⟨c, time, price⟩ of Definition 4. Time
// is carried as a pick-up distance in metres (the paper's dist_pt); the
// engine converts to seconds with the system speed at the API surface.
// Choose commits the pick-up distance as the rider's deadline anchor;
// the vehicle's kinetic tree keeps its own shortest schedule.
type Option struct {
	Vehicle fleet.VehicleID
	// PickupDist is the planned pick-up distance from the vehicle's
	// current location along the planned schedule.
	PickupDist float64
	// Price is the fare under the engine's price model. It also carries
	// the quoted detour (see quotedDetour).
	Price float64
}

// ReqSpec is the matcher-level view of a request, with all derived
// quantities precomputed.
type ReqSpec struct {
	Kin kinetic.Request
	// Fare is the quote-time pricing context the request was resolved
	// under (see pricing.Pipeline.Resolve). Ratio and MinPrice below
	// are its scalars, denormalised so the matcher hot paths read plain
	// fields; registerRecord snapshots the full context into the
	// ledger record.
	Fare pricing.FareContext
	// Ratio is the effective price ratio (f_n × surge multiplier; just
	// f_n when surge is off or the cell is unsurged).
	Ratio float64
	// MinPrice is the zero-detour price floor Ratio·dist(s,d).
	MinPrice float64
	// MaxPickupDist caps the planned pick-up distance of returned
	// options (the engine's search cutoff).
	MaxPickupDist float64
}

// MatchStats instruments one matching run (paper §3.3's efficiency
// discussion: vehicles verified vs pruned, exact distance computations,
// grid cells scanned). DistCalls deltas are attributed from a
// shared counter, so concurrent matches bleed into each other's counts;
// treat them as aggregate instrumentation, not per-request truth.
type MatchStats struct {
	// Verified counts vehicles whose kinetic tree was consulted.
	Verified int
	// PrunedVehicles counts vehicles skipped by bound-based pruning.
	PrunedVehicles int
	// CellsScanned counts ring cells visited across both sides.
	CellsScanned int
	// DistCalls counts the times this match went past the distance memo
	// for an exact computation: a point query (memoMetric.Dist) or a
	// batch fill with at least one miss (memoMetric.DistBatch), which
	// counts once however many targets it resolves. Fills are not
	// searches of their own — they read the match's two sweeps — so the
	// work behind them is Settled, not DistCalls.
	DistCalls int64
	// Settled counts the vertices swept for this match's batch fills:
	// |V| for each of its two anchors (from s and from d) whose first
	// miss drew a sweep, so 0, |V| or 2·|V|. Unlike DistCalls it is this
	// match's own, exact under concurrency.
	Settled int
	// Options is the size of the returned skyline.
	Options int
	// ParallelWidth is 1 when the match flushed a probe batch and 0
	// when it probed nothing. Probes of one match always run serially;
	// the field survives only because the benchmark ladder reads it.
	ParallelWidth int
}

// Matcher answers a request with the global non-dominated option set.
// Implementations are stateless and safe for concurrent Match calls.
type Matcher interface {
	// Match returns the skyline options for spec, sorted by pick-up
	// distance ascending. A matcher may stop early once ctx is done;
	// its answer is then incomplete, and the caller, which reads
	// ctx.Err() afterwards, discards it.
	Match(ctx context.Context, spec *ReqSpec, stats *MatchStats) []Option
}

// matchContext bundles the shared state every matcher operates on: the
// immutable substrate, the concurrent metric, the fleet and its grid
// lists, and the per-match scratch pool.
type matchContext struct {
	sub    *Substrate
	fleet  *fleet.Fleet
	lists  *gridindex.VehicleLists
	metric *memoMetric

	scratch sync.Pool // *matchScratch
}

func newMatchContext(sub *Substrate, fl *fleet.Fleet, lists *gridindex.VehicleLists, metric *memoMetric) *matchContext {
	ctx := &matchContext{sub: sub, fleet: fl, lists: lists, metric: metric}
	ctx.scratch.New = func() any { return &matchScratch{} }
	return ctx
}

func (ctx *matchContext) grid() *gridindex.Grid { return ctx.sub.grid }

// foldQuote merges one vehicle's probe results into the global
// skyline, applying the pick-up cutoff. Coordinates already present are
// skipped so ties do not multiply across vehicles; fold order
// (discovery order) therefore decides tie winners.
func foldQuote(v *fleet.Vehicle, cands []kinetic.Candidate, spec *ReqSpec, sky *skyline.Skyline[Option]) {
	for _, cand := range cands {
		if cand.PickupDist > spec.MaxPickupDist {
			continue
		}
		price := optionPrice(spec, cand.Delta)
		if sky.IsDominated(cand.PickupDist, price) || sky.ContainsPoint(cand.PickupDist, price) {
			continue
		}
		sky.Add(cand.PickupDist, price, Option{Vehicle: v.ID, PickupDist: cand.PickupDist, Price: price})
	}
}

// optionPrice is the fare of an option whose detour delta is delta:
// f_n·(delta + dist(s,d)) at the request's effective ratio. The fold,
// the walk's bound and the empty-vehicle shortcut all price through it,
// so their floats agree bit for bit.
func optionPrice(spec *ReqSpec, delta float64) float64 {
	return spec.Ratio * (delta + spec.Kin.SD)
}

// quotedDetour undoes optionPrice: the detour delta an option priced at
// price under ratio was quoted with. delta + sd is a sum of distances,
// so it lies on the 1/roadnet.GridSteps m grid, and price/ratio lies
// within a few ulps of it; rounding to the grid recovers it exactly.
func quotedDetour(price, ratio, sd float64) float64 {
	return math.Round(price/ratio*roadnet.GridSteps)/roadnet.GridSteps - sd
}

// skyBound is a match's running skyline as the kinetic walk's bound: it
// rejects what foldQuote would, past the pick-up cutoff or weakly
// dominated (dominated, or tied with an entry) at the price of the
// delta. Both tests only grow stricter as the fold adds entries, and
// price is monotone in delta, so what it rejects for lower bounds the
// fold rejects for every candidate above them.
type skyBound struct {
	spec *ReqSpec
	sky  *skyline.Skyline[Option]
}

// Rejects implements kinetic.Bound.
func (b *skyBound) Rejects(pickupLB, deltaLB float64) bool {
	if pickupLB > b.spec.MaxPickupDist {
		return true
	}
	price := optionPrice(b.spec, deltaLB)
	return b.sky.IsDominated(pickupLB, price) || b.sky.ContainsPoint(pickupLB, price)
}

// skylineOptions extracts the final option list, sorted by pick-up
// distance. Only the returned slice is allocated; the skyline sorts in
// place (it is pooled scratch, reset by the next match).
func skylineOptions(sky *skyline.Skyline[Option], stats *MatchStats) []Option {
	entries := sky.Sorted()
	out := make([]Option, len(entries))
	for i, e := range entries {
		out[i] = e.Payload
	}
	stats.Options = len(out)
	return out
}

// emptyVehicleOption computes the option an empty vehicle at pickup
// distance d offers: the whole new schedule is ⟨l, s, d⟩, so the detour
// delta is d + dist(s,d) and the price f_n·(delta + dist(s,d)) — both
// strictly increasing in d, which is the nearest-empty-vehicle lemma.
// The arithmetic deliberately mirrors the kinetic quote path
// (delta first, then the price) so the floats are bit-identical to what
// NaiveMatcher computes by tree insertion; any drift would perturb
// dominance at exact ties and break matcher equivalence.
func emptyVehicleOption(v *fleet.Vehicle, d float64, spec *ReqSpec) Option {
	return Option{Vehicle: v.ID, PickupDist: d, Price: optionPrice(spec, d+spec.Kin.SD)}
}
