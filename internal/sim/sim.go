// Package sim drives PTRider through a day-scale workload (paper §4):
// trips arrive from a trace, each is answered with its option skyline,
// a rider choice model picks one (or declines), vehicles move at the
// constant system speed, and the statistics panel quantities — average
// response time, sharing rate, options per request — are accumulated.
// Vehicle failure injection exercises the index-removal paths.
package sim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"ptrider/internal/core"
	"ptrider/internal/fleet"
	"ptrider/internal/pricing"
	"ptrider/internal/stats"
	"ptrider/internal/trace"
)

// ChoiceModel selects one option from a skyline, or -1 to decline.
// Implementations must be deterministic given the rng.
type ChoiceModel interface {
	Choose(opts []core.Option, rng *rand.Rand) int
}

// EarliestPickup always takes the earliest pick-up option (index 0 of
// the time-sorted skyline).
type EarliestPickup struct{}

// Choose implements ChoiceModel.
func (EarliestPickup) Choose(opts []core.Option, _ *rand.Rand) int {
	if len(opts) == 0 {
		return -1
	}
	return 0
}

// Cheapest always takes the lowest-price option.
type Cheapest struct{}

// Choose implements ChoiceModel.
func (Cheapest) Choose(opts []core.Option, _ *rand.Rand) int {
	best, bestPrice := -1, math.Inf(1)
	for i, o := range opts {
		if o.Price < bestPrice {
			best, bestPrice = i, o.Price
		}
	}
	return best
}

// UniformChoice picks uniformly among the options — the demo's
// assumption that riders have heterogeneous preferences across the
// skyline.
type UniformChoice struct{}

// Choose implements ChoiceModel.
func (UniformChoice) Choose(opts []core.Option, rng *rand.Rand) int {
	if len(opts) == 0 {
		return -1
	}
	return rng.Intn(len(opts))
}

// UtilityChoice trades pick-up time against price with per-rider random
// weights: utility = −(α·time + (1−α)·β·price), α ~ U(0,1). Riders in a
// hurry take early pickups; price-sensitive riders wait (the paper's
// seaside-couple motivation).
type UtilityChoice struct {
	// PriceScale β converts price units into time-equivalent units
	// (0 = 60: one price unit ≈ one minute).
	PriceScale float64
}

// Choose implements ChoiceModel.
func (u UtilityChoice) Choose(opts []core.Option, rng *rand.Rand) int {
	if len(opts) == 0 {
		return -1
	}
	beta := u.PriceScale
	if beta == 0 {
		beta = 60
	}
	alpha := rng.Float64()
	best, bestU := -1, math.Inf(1)
	for i, o := range opts {
		cost := alpha*o.PickupDist + (1-alpha)*beta*o.Price
		if cost < bestU {
			best, bestU = i, cost
		}
	}
	return best
}

// ContextChoice is an optional ChoiceModel extension for riders whose
// decision depends on the request itself, not just the skyline: floor
// is the request's unsurged fare floor, its base ratio f_n times
// dist(s,d) (0 for a relay trip, which has no distance of its own), so
// a model can judge prices against it. Models implementing it get
// ChooseCtx called instead of Choose.
type ContextChoice interface {
	ChoiceModel
	ChooseCtx(opts []core.Option, floor float64, rng *rand.Rand) int
}

// PriceAware declines surged quotes with probability rising in the
// premium over the base fare: the cheapest option's price is compared
// against the unsurged floor f_n·dist(s,d), f_n being the base ratio
// the request was priced under (a custom Config.PriceRatio included),
// and acceptance follows a logistic curve in that ratio — premium 1
// (no surge) is almost always accepted, premium ≥ Pivot is a coin
// flip, far beyond it a near-sure decline. Accepted riders then pick
// the cheapest option. This is the demand-elasticity half of the surge
// loop: hot cells price some riders out, which sheds demand until the
// multiplier relaxes.
type PriceAware struct {
	// Pivot is the premium with 50% acceptance (0 = 2.0).
	Pivot float64
	// Steepness scales the logistic slope (0 = 4).
	Steepness float64
}

// Choose implements ChoiceModel: with no request context there is no
// floor to compare against, so fall back to cheapest-option behaviour.
func (p PriceAware) Choose(opts []core.Option, rng *rand.Rand) int {
	return Cheapest{}.Choose(opts, rng)
}

// ChooseCtx implements ContextChoice.
func (p PriceAware) ChooseCtx(opts []core.Option, floor float64, rng *rand.Rand) int {
	best := Cheapest{}.Choose(opts, rng)
	if best < 0 {
		return -1
	}
	if floor <= 0 {
		return best
	}
	pivot := p.Pivot
	if pivot == 0 {
		pivot = 2.0
	}
	steep := p.Steepness
	if steep == 0 {
		steep = 4
	}
	premium := opts[best].Price / floor
	accept := 1 / (1 + math.Exp(steep*(premium-pivot)))
	if rng.Float64() > accept {
		return -1
	}
	return best
}

// choose dispatches to ChooseCtx when the model wants request context.
func choose(m ChoiceModel, rec *core.RequestRecord, rng *rand.Rand) int {
	if cc, ok := m.(ContextChoice); ok {
		return cc.ChooseCtx(rec.Options, baseFloor(rec), rng)
	}
	return m.Choose(rec.Options, rng)
}

// baseFloor is a request's unsurged fare floor f_n·dist(s,d), f_n being
// the record's own base ratio: its effective ratio over its surge
// multiplier (1 unsurged). A record read back from a shard's /v1
// answer carries no fare context; a shard prices under the paper's f_n
// (it takes no custom ratio), so that is its floor. A relay record has
// no distance, so its floor is 0.
func baseFloor(rec *core.RequestRecord) float64 {
	if rec.FareRatio == 0 {
		return pricing.DefaultRatio(rec.Riders) * rec.SD
	}
	ratio := rec.FareRatio
	if rec.SurgeMult > 0 {
		ratio /= rec.SurgeMult
	}
	return ratio * rec.SD
}

// ParseChoiceModel maps a rider-model name — "earliest", "cheapest",
// "uniform", "priceaware" or "utility" (the default for "") — to its
// ChoiceModel.
func ParseChoiceModel(name string) (ChoiceModel, error) {
	switch name {
	case "", "utility":
		return UtilityChoice{}, nil
	case "earliest":
		return EarliestPickup{}, nil
	case "cheapest":
		return Cheapest{}, nil
	case "uniform":
		return UniformChoice{}, nil
	case "priceaware":
		return PriceAware{}, nil
	}
	return nil, fmt.Errorf("sim: unknown choice model %q", name)
}

// Config parameterises a replay.
type Config struct {
	// TickSeconds is the movement step (0 = 1s).
	TickSeconds float64
	// Choice is the rider model (nil = UtilityChoice{}).
	Choice ChoiceModel
	// Seed drives choices and failure injection.
	Seed int64
	// FailuresPerHour removes that many random vehicles per simulated
	// hour (failure injection; 0 = none). Orphaned requests are
	// resubmitted once. Run refuses it on a backend that cannot remove
	// vehicles (see vehicleFailer).
	FailuresPerHour float64
	// EndSeconds stops the run at this clock even if trips remain
	// (0 = run to last trip + drain).
	EndSeconds float64
	// DrainSeconds keeps simulating after the last submission so
	// onboard riders arrive (0 = 3600).
	DrainSeconds float64
}

// Trip is one workload entry: the request to offer the service at Time
// seconds into the day, in the Service's own addressing (city-local
// vertices or planar coordinates).
type Trip struct {
	Time float64
	Spec core.SubmitSpec
}

// TraceTrips converts a single-city vertex trace. The specs name no
// city, so they address a backend's only city; a multi-city backend
// refuses them with ErrInvalidArgument.
func TraceTrips(trips []trace.Trip) []Trip {
	out := make([]Trip, len(trips))
	for i, t := range trips {
		out[i] = Trip{Time: t.Time, Spec: core.SubmitSpec{
			S: t.S, D: t.D, Riders: t.Riders, Constraints: core.DefaultConstraints(),
		}}
	}
	return out
}

// HourBucket aggregates one hour of the day (the website panel's
// statistics-over-time view) as it happened: every answered offer lands
// in the bucket of its submission clock, a failure run's re-offers
// included, and a later orphaning does not reach back into it.
type HourBucket struct {
	Hour      int
	Submitted int
	Accepted  int
	NoOption  int
	// AvgOptions is the mean skyline size for this hour's requests.
	AvgOptions float64
	optionsSum float64
}

// CityResult is one city's slice of a replay. Relay trips count toward
// their origin city (which also answers their leg-1 quotes).
type CityResult struct {
	Submitted int
	Accepted  int
	Declined  int
	NoOption  int
	// Relayed counts the city's submitted trips that were cross-city
	// and served through relay scheduling.
	Relayed int
}

// Result aggregates a replay. Every offer ends in exactly one tally:
//
//	Submitted + Resubmitted ==
//	    Accepted + Declined + NoOption + Orphaned + CrossRejected + NoCity
type Result struct {
	// Stats is the backend's final panel: the total, the per-city
	// panels and — when relay is enabled — the scheduler's counters.
	Stats core.ServiceStats
	// Submitted counts workload trips offered to the service.
	Submitted int
	// CrossRejected counts trips rejected as cross-city — zero when the
	// backend serves them by relay instead. NoCity counts trips whose
	// origin no city serves (0 with generated workloads).
	CrossRejected int
	NoCity        int
	// NoOption counts offers whose skyline was empty, Declined those
	// whose rider took none of the options (or whose choice went stale),
	// Accepted those whose chosen option still stands. A committed relay
	// counts accepted, an empty joint skyline no-option.
	NoOption int
	Declined int
	Accepted int
	// Relayed counts cross-city trips quoted through relay scheduling
	// (each also lands in exactly one of Accepted/Declined/NoOption).
	Relayed int
	// FailuresInjected counts removed vehicles; Orphaned the accepted
	// requests they carried, each taken back out of Accepted; and
	// Resubmitted the re-offers made on the orphans' behalf.
	FailuresInjected int
	Orphaned         int
	Resubmitted      int
	// OptionsPerRequest summarises skyline sizes.
	OptionsPerRequest stats.Online
	// PickupSeconds and Prices summarise chosen options (a relay
	// option's time is its composed door-to-destination ETA).
	PickupSeconds stats.Online
	Prices        stats.Online
	// Hourly buckets offers by submission hour (clock/3600, capped at
	// 23), chronologically. Only hours with traffic appear.
	Hourly []HourBucket
	// PerCity breaks the answered offers down by owning city.
	PerCity map[string]CityResult
}

// hourBucket returns the bucket of the replay's current clock, which
// never runs backwards: it is the last one or a new one.
func (r *Result) hourBucket(clock float64) *HourBucket {
	h := min(int(clock/3600), 23)
	if n := len(r.Hourly); n == 0 || r.Hourly[n-1].Hour != h {
		r.Hourly = append(r.Hourly, HourBucket{Hour: h})
	}
	return &r.Hourly[len(r.Hourly)-1]
}

// vehicleFailer is what failure injection needs beyond the Service
// contract: the live vehicle list to draw a victim from, and the
// removal. A bare *core.Engine has both; the coordinators do not, and
// Run refuses FailuresPerHour on them.
type vehicleFailer interface {
	VehicleViews(limit int) []core.VehicleView
	RemoveVehicle(id fleet.VehicleID) ([]core.RequestID, error)
}

// replay is the state of one Run.
type replay struct {
	svc    core.Service
	choice ChoiceModel
	rng    *rand.Rand
	res    *Result
	// owed is the dropoffs the standing acceptances still have to
	// produce before the run has drained: one per ordinary trip, two per
	// committed relay trip (each leg completes in its own city).
	owed int
}

// Run replays a workload against any core.Service backend — a bare
// engine, an in-process router, a gateway over shards: trips (sorted by
// Time) are submitted at their due tick, a rider model chooses (relay
// trips through their synthesised joint options), and Advance moves
// every city's fleet. Cross-city trips are served when the backend
// relays and tallied as typed rejections when it does not; neither is
// fatal.
func Run(svc core.Service, trips []Trip, cfg Config) (*Result, error) {
	for i := 1; i < len(trips); i++ {
		if trips[i].Time < trips[i-1].Time {
			return nil, fmt.Errorf("sim: trips not sorted by time at index %d", i)
		}
	}
	if cfg.TickSeconds == 0 {
		cfg.TickSeconds = 1
	}
	if cfg.TickSeconds < 0 {
		return nil, fmt.Errorf("sim: negative tick")
	}
	var failer vehicleFailer
	if cfg.FailuresPerHour > 0 {
		var ok bool
		if failer, ok = svc.(vehicleFailer); !ok {
			// Rejecting beats silently running a zero-failure day.
			return nil, fmt.Errorf("sim: FailuresPerHour needs a backend that can remove vehicles; %T cannot", svc)
		}
	}
	if cfg.DrainSeconds == 0 {
		cfg.DrainSeconds = 3600
	}
	r := &replay{
		svc:    svc,
		choice: cfg.Choice,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		res:    &Result{PerCity: make(map[string]CityResult)},
	}
	if r.choice == nil {
		r.choice = UtilityChoice{}
	}
	res := r.res
	end := cfg.EndSeconds
	if end == 0 {
		end = cfg.DrainSeconds
		if len(trips) > 0 {
			end += trips[len(trips)-1].Time
		}
	}

	// The backend ticks every city in lockstep and nothing else advances
	// it during a replay, so the clock is read once and counted locally.
	next := 0
	failBudget := 0.0
	for clock := svc.Clock(); clock < end; {
		for next < len(trips) && trips[next].Time <= clock {
			res.Submitted++
			if err := r.submit(trips[next], clock); err != nil {
				return res, err
			}
			next++
		}
		events, err := svc.Advance(cfg.TickSeconds)
		if err != nil {
			return res, err
		}
		for _, ev := range events {
			if ev.Kind == fleet.EventDropoff.String() {
				r.owed--
			}
		}
		clock += cfg.TickSeconds

		if failer != nil {
			failBudget += cfg.FailuresPerHour * cfg.TickSeconds / 3600
			for ; failBudget >= 1; failBudget-- {
				if err := r.injectFailure(failer, clock); err != nil {
					return res, err
				}
			}
		}
		if next >= len(trips) && r.owed <= 0 {
			// Drained. A relay trip that fails after its commit leaves
			// dropoffs owed forever; the end bound covers that tail.
			break
		}
	}
	res.Stats = svc.ServiceStats()
	return res, nil
}

// submit offers one trip: skyline → rider model → Choose / Decline.
func (r *replay) submit(t Trip, clock float64) error {
	res := r.res
	rec, err := r.svc.SubmitRequest(t.Spec)
	switch {
	case errors.Is(err, core.ErrCrossCity):
		res.CrossRejected++
		return nil
	case errors.Is(err, core.ErrNoCity):
		res.NoCity++
		return nil
	case err != nil:
		return fmt.Errorf("sim: trip at %.0fs: %w", t.Time, err)
	}
	city := res.PerCity[rec.City]
	defer func() { res.PerCity[rec.City] = city }()
	bucket := res.hourBucket(clock)
	city.Submitted++
	bucket.Submitted++
	if rec.Relay != nil {
		res.Relayed++
		city.Relayed++
	}
	res.OptionsPerRequest.Observe(float64(len(rec.Options)))
	bucket.optionsSum += float64(len(rec.Options))
	bucket.AvgOptions = bucket.optionsSum / float64(bucket.Submitted)

	if len(rec.Options) == 0 {
		res.NoOption++
		city.NoOption++
		bucket.NoOption++
		if rec.Relay != nil {
			// Release the relay trip's leg quotes eagerly; a single-city
			// quote holds no resources, but a relay quote owns one leg
			// record per gateway in two cities.
			return r.svc.Decline(rec.ID)
		}
		return nil
	}
	pick := choose(r.choice, &rec.RequestRecord, r.rng)
	if pick < 0 || r.svc.Choose(rec.ID, pick) != nil {
		// A candidate gone stale between quote and choice ends the trip
		// declined, like a rider's refusal, rather than failing the run.
		res.Declined++
		city.Declined++
		if pick >= 0 && rec.Relay != nil {
			// A failed two-phase commit already aborted the relay trip
			// and released every leg; there is nothing left to decline.
			return nil
		}
		return r.svc.Decline(rec.ID)
	}
	res.Accepted++
	city.Accepted++
	bucket.Accepted++
	r.owed++
	if rec.Relay != nil {
		r.owed++
	}
	opt := rec.Options[pick]
	res.PickupSeconds.Observe(rec.PickupSecondsOf(opt))
	res.Prices.Observe(opt.Price)
	return nil
}

// injectFailure removes one random in-service vehicle (never the last)
// and re-offers the requests it orphans through the one submit.
func (r *replay) injectFailure(f vehicleFailer, clock float64) error {
	live := f.VehicleViews(0)
	if len(live) <= 1 {
		return nil
	}
	orphans, err := f.RemoveVehicle(live[r.rng.Intn(len(live))].ID)
	if err != nil {
		return fmt.Errorf("sim: failure injection: %w", err)
	}
	res := r.res
	res.FailuresInjected++
	for _, id := range orphans {
		rec, err := r.svc.GetRequest(id)
		if err != nil {
			return fmt.Errorf("sim: orphaned request %d: %w", id, err)
		}
		city := res.PerCity[rec.City]
		city.Accepted--
		res.PerCity[rec.City] = city
		res.Accepted--
		r.owed--
		res.Orphaned++
		res.Resubmitted++
		reoffer := Trip{Time: clock, Spec: core.SubmitSpec{
			City: rec.City, S: rec.S, D: rec.D, Riders: rec.Riders,
			Constraints: core.DefaultConstraints(),
		}}
		if err := r.submit(reoffer, clock); err != nil {
			return err
		}
	}
	return nil
}
