// coordinator.go is the one multi-city core.Service implementation. A
// Coordinator routes every verb to per-city backends by region, city
// name or striped request id and folds their answers back into one
// namespace; it neither knows nor cares whether a backend is an engine
// in this process (the Router) or a shard process behind a socket
// (cluster.Gateway). Both are this type with a different constructor.
package multicity

import (
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"

	"ptrider/internal/core"
	"ptrider/internal/fleet"
	"ptrider/internal/geo"
	"ptrider/internal/relay"
	"ptrider/internal/roadnet"
	"ptrider/internal/telemetry"
)

// CityBackend is one city as the coordinator drives it: a one-city
// core.Service, always called with city "" (the backend's only city),
// plus the relay leg verbs (relay.LegEngine) and the four calls routing
// and operations need. *core.Engine satisfies it as is;
// cluster.ShardClient satisfies it over a shard's /v1 API and /rpc
// verbs, where a call that cannot fail in process degrades instead: a
// backend that cannot be reached reads clock 0, no stats panel and no
// metric families, and is never sent a tick twice.
type CityBackend interface {
	relay.LegEngine
	// NearestVertex snaps a coordinate inside the city's region onto its
	// road network.
	NearestVertex(p geo.Point) roadnet.VertexID
	Ready() error
	// MetricFamilies is nil when the backend has no telemetry (or cannot
	// be reached).
	MetricFamilies() []telemetry.Family
	Close() error
}

var _ CityBackend = (*core.Engine)(nil)

// City is one city of a Coordinator.
type City struct {
	// Name identifies the city in every view; unique and non-empty.
	Name string
	// Region is the service area that assigns coordinates to the city;
	// regions of different cities are disjoint.
	Region  geo.Rect
	Backend CityBackend
}

// Coordinator implements core.Service over N city backends. All methods
// are safe for concurrent use; the coordinator itself is immutable
// after construction — every mutable bit of state lives inside the
// backends and, with relay enabled, the relay scheduler's ledger.
//
// Request ids are made globally unique by striding: a request answered
// by city c out of n receives id local*n + c, so Choose/Decline/
// GetRequest route by plain arithmetic with no shared map. Relay trips
// live in the negative half of the id space (trip t is id −t).
type Coordinator struct {
	cities []City
	byName map[string]int
	relay  *relay.Scheduler    // nil when cross-city trips are rejected
	reg    *telemetry.Registry // coordinator-level registry; nil when telemetry off
}

var _ core.Service = (*Coordinator)(nil)

// NewCoordinator assembles the service over the given cities. A non-nil
// relayCfg serves cross-city trips through a relay scheduler over the
// same backends (needs at least two cities); nil rejects them with
// *core.CrossCityError. reg, when non-nil, is gathered first by
// MetricFamilies, and with relay on it gauges the trip ledger's size
// and times every leg quote (relayCfg's LegQuoteHist is replaced).
func NewCoordinator(cities []City, relayCfg *relay.Config, reg *telemetry.Registry) (*Coordinator, error) {
	if err := checkCities(cities); err != nil {
		return nil, err
	}
	c := &Coordinator{cities: cities, byName: make(map[string]int, len(cities)), reg: reg}
	for i, city := range cities {
		c.byName[city.Name] = i
	}
	if relayCfg != nil {
		refs := make([]relay.CityRef, len(cities))
		for i, city := range cities {
			refs[i] = relay.CityRef{Name: city.Name, Engine: city.Backend, Region: city.Region}
		}
		cfg := *relayCfg
		// Nil registry hands out a nil histogram — telemetry off.
		cfg.LegQuoteHist = reg.LatencyHist("ptrider_relay_leg_quote_duration_seconds",
			"Per-leg quote wall time of cross-city relay trips.")
		sched, err := relay.New(refs, cfg)
		if err != nil {
			return nil, fmt.Errorf("multicity: %w", err)
		}
		c.relay = sched
		reg.GaugeFunc("ptrider_relay_trips", "Relay trips the trip ledger holds.",
			func() float64 { return float64(sched.Trips()) })
	}
	return c, nil
}

// checkCities validates a city list's names and regions: at least one
// city, names unique and non-empty, regions pairwise disjoint.
func checkCities(cities []City) error {
	if len(cities) == 0 {
		return fmt.Errorf("multicity: no cities: %w", core.ErrInvalidArgument)
	}
	for i, city := range cities {
		if city.Name == "" {
			return fmt.Errorf("multicity: city %d has no name: %w", i, core.ErrInvalidArgument)
		}
		for _, prev := range cities[:i] {
			if prev.Name == city.Name {
				return fmt.Errorf("multicity: duplicate city name %q: %w", city.Name, core.ErrInvalidArgument)
			}
			if prev.Region.Intersects(city.Region) {
				return fmt.Errorf("multicity: regions of %q and %q overlap: %w",
					prev.Name, city.Name, core.ErrInvalidArgument)
			}
		}
	}
	return nil
}

// each runs fn(0) … fn(n-1) concurrently and waits for all of them:
// backends share nothing, so per-city work is naturally parallel, and
// over sockets the fan-out is what keeps a call at one round trip.
func each(n int, fn func(i int)) {
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			fn(i)
		}(i)
	}
	wg.Wait()
}

// Close shuts the relay trip ledger and then every backend down (an
// engine flushes its journal and writes a final snapshot; a shard
// client drops its connections). Each backend that fails to close logs
// one error line; the first failure is returned.
func (c *Coordinator) Close() error {
	var first error
	if c.relay != nil {
		first = c.relay.Close()
	}
	for _, city := range c.cities {
		if err := city.Backend.Close(); err != nil {
			slog.Error("multicity: close failed", "city", city.Name, "err", err)
			if first == nil {
				first = fmt.Errorf("multicity: %s: %w", city.Name, err)
			}
		}
	}
	return first
}

// RelayScheduler exposes the relay scheduler (nil when relay is off) —
// a seam for the atomicity and crash-window test harnesses, which
// inject leg-commit failures through relay.Scheduler.SetCommitOverride.
// Not part of the supported surface.
func (c *Coordinator) RelayScheduler() *relay.Scheduler { return c.relay }

// ReadyCities reports per-city readiness, probed concurrently (see
// /v1/readyz). An unreachable shard reads unready with its transport
// error.
func (c *Coordinator) ReadyCities() []core.CityReadiness {
	out := make([]core.CityReadiness, len(c.cities))
	each(len(c.cities), func(i int) {
		out[i] = core.CityReadiness{City: c.cities[i].Name, Ready: true}
		if err := c.cities[i].Backend.Ready(); err != nil {
			out[i].Ready, out[i].Err = false, err.Error()
		}
	})
	return out
}

// MetricFamilies gathers the coordinator-level registry (relay and
// shard RPC instruments) plus every city's families labeled
// city=<name>, merged so each family appears once. Nil when telemetry
// is off.
func (c *Coordinator) MetricFamilies() []telemetry.Family {
	if c.reg == nil {
		return nil
	}
	groups := make([][]telemetry.Family, 0, len(c.cities)+1)
	groups = append(groups, c.reg.Gather())
	for _, city := range c.cities {
		groups = append(groups, telemetry.WithLabel(city.Backend.MetricFamilies(), "city", city.Name))
	}
	return telemetry.Merge(groups...)
}

// cityIndex resolves a Service city argument. A multi-city backend has
// no "only city", so an empty name is a caller error rather than an
// unknown city.
func (c *Coordinator) cityIndex(name string) (int, error) {
	if name == "" {
		return 0, fmt.Errorf("multicity: missing city parameter: %w", core.ErrInvalidArgument)
	}
	ci, ok := c.byName[name]
	if !ok {
		return 0, fmt.Errorf("multicity: %w: %q", core.ErrUnknownCity, name)
	}
	return ci, nil
}

// locate assigns a coordinate to the city whose region contains it.
func (c *Coordinator) locate(p geo.Point) (int, error) {
	for i := range c.cities {
		if c.cities[i].Region.Contains(p) {
			return i, nil
		}
	}
	return 0, fmt.Errorf("multicity: %w: (%.0f, %.0f)", core.ErrNoCity, p.X, p.Y)
}

// resolve maps a SubmitSpec onto (origin city, destination city, origin
// vertex, destination vertex); same-city specs have oc == dc.
// Coordinates are located by region and snapped by the owning backend;
// a vertex-addressed spec names its city and keeps its vertices as
// given — the backend validates them.
func (c *Coordinator) resolve(spec *core.SubmitSpec) (oc, dc int, s, d roadnet.VertexID, err error) {
	if !spec.ByCoords {
		oc, err = c.cityIndex(spec.City)
		return oc, oc, spec.S, spec.D, err
	}
	if oc, err = c.locate(spec.Origin); err != nil {
		return
	}
	if dc, err = c.locate(spec.Dest); err != nil {
		return
	}
	s = c.cities[oc].Backend.NearestVertex(spec.Origin)
	d = c.cities[dc].Backend.NearestVertex(spec.Dest)
	return
}

// backendSpec is the vertex-addressed form of a resolved same-city spec
// as handed to its backend; constraints, callback, idempotency key and
// context ride along unchanged.
func backendSpec(spec core.SubmitSpec, s, d roadnet.VertexID) core.SubmitSpec {
	spec.City, spec.ByCoords, spec.S, spec.D = "", false, s, d
	return spec
}

// lift moves a backend's record into the coordinator's namespace.
func (c *Coordinator) lift(ci int, rec *core.ServiceRecord) *core.ServiceRecord {
	rec.ID = globalID(len(c.cities), ci, rec.ID)
	rec.City = c.cities[ci].Name
	return rec
}

// tripID maps a request id onto the relay ledger: trips are the
// negative ids of a relay-enabled coordinator, anything else is not
// one.
func (c *Coordinator) tripID(id core.RequestID) (relay.TripID, error) {
	trip, ok := relay.TripOf(id)
	if !ok || c.relay == nil {
		return 0, fmt.Errorf("multicity: request %d is not a relay trip: %w", id, core.ErrNotFound)
	}
	return trip, nil
}

// crossCity answers a resolved cross-city pair: a relay quote (the
// scheduler renders the trip's record), or the typed rejection when
// relay is off.
func (c *Coordinator) crossCity(oc, dc int, s, d roadnet.VertexID, spec *core.SubmitSpec) (*core.ServiceRecord, error) {
	if c.relay == nil {
		return nil, &core.CrossCityError{Origin: c.cities[oc].Name, Dest: c.cities[dc].Name}
	}
	rec, err := c.relay.Quote(spec.Context(), oc, dc, s, d, spec.Riders, spec.Constraints)
	if err != nil {
		return nil, fmt.Errorf("multicity: %w", err)
	}
	return rec, nil
}

// SubmitRequest implements core.Service: a same-city spec goes to the
// owning backend, a cross-city one is quoted as a two-leg relay trip
// whose legs carry the spec's context (relay quotes are not
// deduplicated).
func (c *Coordinator) SubmitRequest(spec core.SubmitSpec) (*core.ServiceRecord, error) {
	oc, dc, s, d, err := c.resolve(&spec)
	if err != nil {
		return nil, err
	}
	if oc != dc {
		return c.crossCity(oc, dc, s, d, &spec)
	}
	rec, err := c.cities[oc].Backend.SubmitRequest(backendSpec(spec, s, d))
	if err != nil {
		return nil, fmt.Errorf("multicity: %s: %w", c.cities[oc].Name, err)
	}
	return c.lift(oc, rec), nil
}

// SubmitRequestBatch implements core.Service: items are partitioned by
// city and each city's sub-batch runs through its backend concurrently
// — backends share no state — preserving the paper's greedy order over
// that city's items exactly. Cross-city items then run in batch order,
// each relay quote settled (core.Settle: the item's chooser over the
// synthesised joint options, or a decline) before the next, so each
// sees the fleets its predecessors left. The error names the failed
// item of least caller index, as one engine's batch would, whichever
// stage failed it.
func (c *Coordinator) SubmitRequestBatch(specs []core.SubmitSpec) ([]*core.ServiceRecord, error) {
	out := make([]*core.ServiceRecord, len(specs))
	var firstErr error
	firstIdx := len(specs)
	keep := func(i int, err error) {
		if i < firstIdx {
			firstIdx, firstErr = i, err
		}
	}
	fail := func(i int, err error) { keep(i, &core.BatchItemError{Index: i, Err: err}) }

	n := len(c.cities)
	perCity := make([][]core.SubmitSpec, n)
	perCityIdx := make([][]int, n)
	type crossItem struct {
		idx, oc, dc int
		s, d        roadnet.VertexID
	}
	var cross []crossItem
	for i := range specs {
		oc, dc, s, d, err := c.resolve(&specs[i])
		if err != nil {
			fail(i, err)
			continue
		}
		if oc != dc {
			cross = append(cross, crossItem{i, oc, dc, s, d})
			continue
		}
		perCity[oc] = append(perCity[oc], backendSpec(specs[i], s, d))
		perCityIdx[oc] = append(perCityIdx[oc], i)
	}

	recs := make([][]*core.ServiceRecord, n)
	errs := make([]error, n)
	each(n, func(ci int) {
		if len(perCity[ci]) > 0 {
			recs[ci], errs[ci] = c.cities[ci].Backend.SubmitRequestBatch(perCity[ci])
		}
	})
	for ci := range recs {
		if err := errs[ci]; err != nil {
			// The backend numbered its item in the city's sub-batch;
			// the caller's batch numbers it through perCityIdx. An error
			// that names no item ranks as the sub-batch's first.
			idx := perCityIdx[ci][0]
			if be := (*core.BatchItemError)(nil); errors.As(err, &be) && be.Index < len(perCityIdx[ci]) {
				idx = perCityIdx[ci][be.Index]
				err = &core.BatchItemError{Index: idx, Err: be.Err}
			}
			keep(idx, fmt.Errorf("multicity: %s: %w", c.cities[ci].Name, err))
		}
		for k, rec := range recs[ci] {
			// The length guard is for a remote backend answering more
			// records than it was sent.
			if rec != nil && k < len(perCityIdx[ci]) {
				out[perCityIdx[ci][k]] = c.lift(ci, rec)
			}
		}
	}

	for _, it := range cross {
		rec, err := c.crossCity(it.oc, it.dc, it.s, it.d, &specs[it.idx])
		if err == nil {
			out[it.idx], err = core.Settle(c, rec, specs[it.idx].Choose)
		}
		if err != nil {
			fail(it.idx, err)
		}
	}
	return out, firstErr
}

// Choose implements core.Service. For a relay trip (negative id) this
// is the two-phase commit of both legs: both book, or neither stays
// booked.
func (c *Coordinator) Choose(id core.RequestID, optionIndex int) error {
	if id < 0 {
		trip, err := c.tripID(id)
		if err != nil {
			return err
		}
		return c.relay.Choose(trip, optionIndex)
	}
	ci, local, err := splitGlobalID(len(c.cities), id)
	if err != nil {
		return err
	}
	return c.cities[ci].Backend.Choose(local, optionIndex)
}

// Decline implements core.Service. Declining a relay trip releases
// every leg quote it held.
func (c *Coordinator) Decline(id core.RequestID) error {
	if id < 0 {
		trip, err := c.tripID(id)
		if err != nil {
			return err
		}
		return c.relay.Decline(trip)
	}
	ci, local, err := splitGlobalID(len(c.cities), id)
	if err != nil {
		return err
	}
	return c.cities[ci].Backend.Decline(local)
}

// GetRequest implements core.Service (relay trips included, their
// two-leg detail riding in ServiceRecord.Relay).
func (c *Coordinator) GetRequest(id core.RequestID) (*core.ServiceRecord, error) {
	if id < 0 {
		trip, err := c.tripID(id)
		if err != nil {
			return nil, err
		}
		return c.relay.Trip(trip)
	}
	ci, local, err := splitGlobalID(len(c.cities), id)
	if err != nil {
		return nil, err
	}
	rec, err := c.cities[ci].Backend.GetRequest(local)
	if err != nil {
		return nil, err
	}
	return c.lift(ci, rec), nil
}

// Requests implements core.Service: one city's ledger listing with ids
// lifted into the global namespace, or — with city "" — every city's
// listing fetched concurrently and merged, global id ascending, so
// pagination pages are stable across cities. Relay trips are not listed
// (they live in the scheduler's trip ledger, per the Service contract).
func (c *Coordinator) Requests(city string, filter core.RequestFilter, limit int) ([]*core.ServiceRecord, error) {
	first, n := 0, len(c.cities)
	if city != "" {
		ci, err := c.cityIndex(city)
		if err != nil {
			return nil, err
		}
		first, n = ci, 1
	}
	lists := make([][]*core.ServiceRecord, n)
	errs := make([]error, n)
	each(n, func(k int) {
		lists[k], errs[k] = c.cities[first+k].Backend.Requests("", filter, 0)
	})
	var out []*core.ServiceRecord
	for k, recs := range lists {
		if errs[k] != nil {
			return nil, fmt.Errorf("multicity: %s: %w", c.cities[first+k].Name, errs[k])
		}
		for _, rec := range recs {
			out = append(out, c.lift(first+k, rec))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out, nil
}

// RelayItinerary implements core.Service.
func (c *Coordinator) RelayItinerary(id core.RequestID) (*core.RelayView, error) {
	trip, err := c.tripID(id)
	if err != nil {
		return nil, err
	}
	rec, err := c.relay.Trip(trip)
	if err != nil {
		return nil, err
	}
	return rec.Relay, nil
}

// Advance implements core.Service: one concurrent tick of every city,
// then the relay ledger observes the post-movement leg states (and
// drains any compensation deferred against a backend that has come
// back). Events carry request ids in the global namespace. The first
// city error is returned after every city finished, so one failing
// city never stalls or skips the others.
func (c *Coordinator) Advance(dt float64) ([]core.ServiceEvent, error) {
	if dt < 0 {
		// Reject before any backend moves so the city clocks stay in
		// lockstep even on caller errors.
		return nil, fmt.Errorf("multicity: negative tick %v: %w", dt, core.ErrInvalidArgument)
	}
	n := len(c.cities)
	perCity := make([][]core.ServiceEvent, n)
	errs := make([]error, n)
	each(n, func(ci int) {
		perCity[ci], errs[ci] = c.cities[ci].Backend.Advance(dt)
	})
	if c.relay != nil {
		c.relay.Advance()
	}
	out := []core.ServiceEvent{} // non-nil: an empty tick encodes as []
	for ci, evs := range perCity {
		for _, ev := range evs {
			ev.City = c.cities[ci].Name
			ev.Request = int64(globalID(n, ci, core.RequestID(ev.Request)))
			out = append(out, ev)
		}
	}
	for ci, err := range errs {
		if err != nil {
			return out, fmt.Errorf("multicity: %s: %w", c.cities[ci].Name, err)
		}
	}
	return out, nil
}

// Clock implements core.Service: the maximum city clock (the clocks
// advance in lockstep through Advance; the max covers per-city skew
// from a partially-failed tick and skips backends that do not answer).
func (c *Coordinator) Clock() float64 {
	var clock float64
	for _, city := range c.cities {
		if t := city.Backend.Clock(); t > clock {
			clock = t
		}
	}
	return clock
}

// ServiceStats implements core.Service: per-city panels fetched
// concurrently and folded into the total (see statsAggregator for the
// weighting rules). A backend that reports no panel — an unreachable
// shard — is left out of the snapshot; statistics are best-effort,
// readiness is ReadyCities' job. The relay panel counts whole
// cross-city trips; their leg quotes are counted inside the owning
// cities' panels.
func (c *Coordinator) ServiceStats() core.ServiceStats {
	panels := make([]core.ServiceStats, len(c.cities))
	each(len(c.cities), func(ci int) {
		panels[ci] = c.cities[ci].Backend.ServiceStats()
	})
	out := core.ServiceStats{Cities: make(map[string]core.EngineStats, len(c.cities))}
	var agg statsAggregator
	for ci := range panels {
		for _, st := range panels[ci].Cities {
			out.Cities[c.cities[ci].Name] = st
			agg.add(st)
		}
	}
	out.Total = agg.result()
	if c.relay != nil {
		out.RelayEnabled = true
		out.Relay = c.relay.Stats()
	}
	return out
}

// Cities implements core.Service: each backend's one city under the
// coordinator's name and region.
func (c *Coordinator) Cities() []core.CityInfo {
	out := make([]core.CityInfo, len(c.cities))
	for i, city := range c.cities {
		info := city.Backend.Cities()[0]
		out[i] = core.NewCityInfo(city.Name, info.Vertices, info.Vehicles, city.Region)
	}
	return out
}

// Vehicles implements core.Service.
func (c *Coordinator) Vehicles(city string, limit int) ([]core.VehicleView, error) {
	ci, err := c.cityIndex(city)
	if err != nil {
		return nil, err
	}
	return c.cities[ci].Backend.Vehicles("", limit)
}

// VehicleItinerary implements core.Service.
func (c *Coordinator) VehicleItinerary(city string, id fleet.VehicleID) (*core.VehicleItinerary, error) {
	ci, err := c.cityIndex(city)
	if err != nil {
		return nil, err
	}
	it, err := c.cities[ci].Backend.VehicleItinerary("", id)
	if err != nil {
		return nil, fmt.Errorf("multicity: %s: %w", city, err)
	}
	it.City = city
	return it, nil
}

// Params implements core.Service.
func (c *Coordinator) Params(city string) (core.ServiceParams, error) {
	ci, err := c.cityIndex(city)
	if err != nil {
		return core.ServiceParams{}, err
	}
	p, err := c.cities[ci].Backend.Params("")
	if err != nil {
		return core.ServiceParams{}, err
	}
	p.City = city
	return p, nil
}

// Surge implements core.Service.
func (c *Coordinator) Surge(city string) (*core.SurgeView, error) {
	ci, err := c.cityIndex(city)
	if err != nil {
		return nil, err
	}
	v, err := c.cities[ci].Backend.Surge("")
	if err != nil {
		return nil, err
	}
	v.City = city
	return v, nil
}

// SetCityAlgorithm implements core.Service.
func (c *Coordinator) SetCityAlgorithm(city string, algo core.Algorithm) error {
	ci, err := c.cityIndex(city)
	if err != nil {
		return err
	}
	if err := c.cities[ci].Backend.SetCityAlgorithm("", algo); err != nil {
		return err
	}
	slog.Info("multicity: algorithm set", "city", c.cities[ci].Name, "algorithm", algo.String())
	return nil
}

// CityGraph implements core.Service.
func (c *Coordinator) CityGraph(city string) (*roadnet.Graph, error) {
	ci, err := c.cityIndex(city)
	if err != nil {
		return nil, err
	}
	return c.cities[ci].Backend.CityGraph("")
}
