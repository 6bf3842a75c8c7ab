// Package ptrider is a price-and-time-aware ridesharing system, a
// from-scratch Go reproduction of
//
//	Chen, Gao, Liu, Xiao, Jensen, Zhu:
//	"PTRider: A Price-and-Time-Aware Ridesharing System",
//	PVLDB 11(12): 1938–1941, 2018.
//
// Unlike matchers that return a single system-optimal assignment,
// PTRider answers every ridesharing request with the full skyline of
// non-dominated ⟨vehicle, pick-up time, price⟩ options, so riders in a
// hurry can pay for a quick pickup while patient riders wait and pay
// less. Real-time answering is achieved with a grid index over the road
// network, per-vehicle kinetic trees of valid trip schedules, and
// single-/dual-side ring-search matching with bound-based pruning.
//
// The engine is built for multi-core serving (see ARCHITECTURE.md): an
// immutable routing substrate (graph, grid bounds, pricing) is shared
// lock-free across goroutines and per-vehicle state sits behind
// per-vehicle locks. Requests, choices, ticks and stats reads may all
// be issued concurrently; matching holds no engine-wide lock, and one
// match runs on the goroutine that submitted it.
//
// A System is backed by the core Service interface, so one set of
// verbs — Request, Choose, Decline, Tick, Stats — serves every backend:
// New builds a single-city system, NewMulti a multi-city one whose
// requests are routed to per-city engines by coordinate and whose
// cross-city trips are served as two-leg relay itineraries when relay
// scheduling is enabled. HTTPHandler exposes any System over the same
// versioned /v1 JSON API (see internal/server).
//
// # Quick start
//
//	net, _ := ptrider.GenerateCity(ptrider.CityConfig{Width: 40, Height: 40, Seed: 1})
//	sys, _ := ptrider.New(net, ptrider.Config{NumTaxis: 200})
//	req, _ := sys.Request(sys.RandomVertex(), sys.RandomVertex(), 2)
//	for _, o := range req.Options {
//		fmt.Printf("vehicle %d: pickup %.0fs price %.2f\n", o.Vehicle, o.PickupSeconds, o.Price)
//	}
//	sys.Choose(req.ID, 0)
//	sys.Tick(60) // advance simulated time
//
// # Multi-city quick start
//
//	sys, _ := ptrider.NewMulti("east:40x40:500,west:28x28:200", ptrider.MultiConfig{
//		Config:                ptrider.Config{Seed: 1},
//		EnableRelay:           true, // serve cross-city trips as two-leg relays
//		TransferBufferSeconds: 120,
//	})
//	east := sys.Cities()[0]
//	req, _ := sys.RequestIn(east.Name, 12, 17, 1)    // city-local vertices
//	cross, _ := sys.RequestAt(100, 900, 12000, 400, 1) // coordinates, may cross cities
//	if cross.Relay != nil {
//		fmt.Printf("relay %s → %s: %d joint options\n",
//			cross.Relay.Origin, cross.Relay.Dest, len(cross.Options))
//	}
//	sys.Choose(cross.ID, 0) // two-phase commit of both legs
//	sys.Tick(60)            // every city ticks concurrently
//
// # Cluster quick start
//
// The same topology scales across processes: each city runs as its
// own ptrider-shard process (one WAL-backed engine behind its own /v1
// API) and ptrider-server in gateway mode serves the
// unchanged /v1 API over the fleet, relaying cross-city trips over
// real sockets with idempotent retries and deferred compensation (see
// internal/cluster and ARCHITECTURE.md "Horizontal scale-out"):
//
//	ptrider-shard  -addr :9101 -width 40 -height 40 -taxis 500 -wal-dir /var/lib/ptrider/east
//	ptrider-shard  -addr :9102 -width 28 -height 28 -origin-x 30000 -taxis 200 -wal-dir /var/lib/ptrider/west
//	ptrider-server -addr :8080 -shards "east=localhost:9101,west=localhost:9102"
//
// The internal packages implement the substrates (road network,
// shortest paths, grid index, kinetic trees, matchers, simulator); this
// package is the supported surface.
//
// # Answer types
//
// Option, Request, RelayItinerary, RelayOption, Stop, Event and
// CityInfo are aliases of the core Service's answer types — the very
// shapes the /v1 API encodes — so a field added to an answer shows up
// here, in JSON and in Go, at once; Request and Event gained the
// record's lifecycle fields (Status, S, D, Riders, …; Odo) that way.
// One change of shape came with the aliasing: a RelayOption's per-leg
// breakdown is flat, Leg1Price / Leg2Price / Leg1Vehicle / Leg2Vehicle,
// as in the JSON, where it used to be nested Leg1 / Leg2 structs (and
// RelayLeg is gone).
package ptrider

import (
	"fmt"
	"io"
	"net/http"

	"ptrider/internal/core"
	"ptrider/internal/gen"
	"ptrider/internal/geo"
	"ptrider/internal/multicity"
	"ptrider/internal/relay"
	"ptrider/internal/roadnet"
	"ptrider/internal/server"
	"ptrider/internal/sim"
	"ptrider/internal/trace"
)

// VertexID identifies a road-network vertex (an intersection).
type VertexID = int32

// Point is a planar coordinate in metres.
type Point struct{ X, Y float64 }

// Edge is an undirected road segment with a travel cost in metres.
type Edge struct {
	U, V   VertexID
	Weight float64
}

// Network is an immutable road network.
type Network struct {
	g *roadnet.Graph
}

// NewNetwork builds a road network from explicit vertices and
// undirected edges. Edge weights must be positive and, for the index
// bounds to be as tight as possible, at least the Euclidean length of
// the edge.
func NewNetwork(points []Point, edges []Edge) (*Network, error) {
	b := roadnet.NewBuilder(len(points), 2*len(edges))
	for _, p := range points {
		b.AddVertex(geo.Point{X: p.X, Y: p.Y})
	}
	for _, e := range edges {
		b.AddEdge(e.U, e.V, e.Weight)
	}
	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	if !roadnet.Connected(g) {
		return nil, fmt.Errorf("ptrider: network must be connected")
	}
	return &Network{g: g}, nil
}

// NumVertices returns the number of intersections.
func (n *Network) NumVertices() int { return n.g.NumVertices() }

// NumRoads returns the number of undirected road segments.
func (n *Network) NumRoads() int { return n.g.NumEdges() / 2 }

// VertexPoint returns the coordinates of vertex v.
func (n *Network) VertexPoint(v VertexID) Point {
	p := n.g.Point(v)
	return Point{X: p.X, Y: p.Y}
}

// CityConfig parameterises the synthetic city generator (the stand-in
// for the demo's Shanghai road network; see DESIGN.md §5).
type CityConfig struct {
	// Width and Height count intersections per side (≥ 2).
	Width, Height int
	// SpacingMeters is the block size (0 = 250).
	SpacingMeters float64
	// ArterialEvery makes every k-th street an arterial (0 = 5).
	ArterialEvery int
	// RemoveFrac removes this fraction of minor segments, in [0, 1).
	RemoveFrac float64
	// Seed makes generation deterministic.
	Seed int64
}

// WriteNetwork serialises a network in the ptrider text format.
func WriteNetwork(w io.Writer, n *Network) error {
	return roadnet.WriteGraph(w, n.g)
}

// ReadNetwork parses a network written by WriteNetwork.
func ReadNetwork(r io.Reader) (*Network, error) {
	g, err := roadnet.ReadGraph(r)
	if err != nil {
		return nil, err
	}
	if !roadnet.Connected(g) {
		return nil, fmt.Errorf("ptrider: network must be connected")
	}
	return &Network{g: g}, nil
}

// GenerateCity builds a synthetic city road network.
func GenerateCity(cfg CityConfig) (*Network, error) {
	g, err := gen.GenerateNetwork(gen.CityConfig{
		Width: cfg.Width, Height: cfg.Height,
		Spacing:       cfg.SpacingMeters,
		ArterialEvery: cfg.ArterialEvery,
		RemoveFrac:    cfg.RemoveFrac,
		Seed:          cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	return &Network{g: g}, nil
}

// Trip is one workload entry: a ridesharing request submitted at Time
// seconds into the day.
type Trip = trace.Trip

// WorkloadConfig parameterises the synthetic one-day trip workload (the
// stand-in for the demo's 432,327 Shanghai trips).
type WorkloadConfig struct {
	// NumTrips scales the workload.
	NumTrips int
	// DaySeconds is the horizon (0 = 86400).
	DaySeconds float64
	// MinTripMeters drops very short trips (0 = 500).
	MinTripMeters float64
	// PeakHours concentrates arrivals into the two rush windows
	// instead of the default gentle double-peak profile — the workload
	// that overloads hot cells and exercises surge pricing.
	PeakHours bool
	// Seed makes generation deterministic.
	Seed int64
}

// GenerateWorkload synthesises a diurnal, hotspot-weighted trip
// workload over the network, sorted by submission time.
func GenerateWorkload(n *Network, cfg WorkloadConfig) ([]Trip, error) {
	var hours []float64
	if cfg.PeakHours {
		hours = gen.PeakHourlyWeights()
	}
	return gen.GenerateTrips(n.g, gen.TripConfig{
		NumTrips:      cfg.NumTrips,
		DaySeconds:    cfg.DaySeconds,
		MinTripMeters: cfg.MinTripMeters,
		HourlyWeights: hours,
		Seed:          cfg.Seed,
	})
}

// Config carries the system's global settings — the knobs on the demo's
// website interface: taxi capacity, number of taxis, maximal waiting
// time, service constraint, price function, and matching algorithm.
// Parallelism is not a setting: each engine quotes a SubmitBatch wave
// and shards Tick over GOMAXPROCS goroutines, read at construction, and
// every width gives the same answers. Nor is the grid index: it always
// has 16×16 cells over the road network's bounding box, and surge
// pricing tracks those cells.
type Config struct {
	// NumTaxis places this many vehicles uniformly at random (0 = none;
	// add more with AddVehicleAt/AddVehicles). In a multi-city system
	// the per-city fleet sizes come from the city spec instead.
	NumTaxis int
	// Capacity is the per-vehicle rider capacity (0 = 4).
	Capacity int
	// SpeedKmh is the constant vehicle speed (0 = 48, the demo's).
	SpeedKmh float64
	// MaxWaitSeconds is the global maximal waiting time w (0 = 300).
	MaxWaitSeconds float64
	// Sigma is the global service (detour) constraint σ (0 = 0.4).
	Sigma float64
	// MaxPickupSeconds caps the planned pick-up time of options
	// (0 = 1800).
	MaxPickupSeconds float64
	// Algorithm selects the matcher: "naive", "single-side" or
	// "dual-side" ("" = "dual-side").
	Algorithm string
	// PriceRatio overrides the paper's f_n = 0.3 + (n−1)·0.1 when
	// non-nil; it maps rider count to the price ratio.
	PriceRatio func(n int) float64
	// CommitSlack loosens Choose when the quoted schedule went stale
	// between quote and choice (vehicle moved, other riders accepted):
	// a fresh schedule within CommitSlack·dist(s,d) metres of the
	// quoted pick-up distance and detour is committed instead of
	// failing. 0 = strict.
	CommitSlack float64
	// SurgeEnabled turns on per-cell dynamic pricing: a demand/supply
	// tracker per grid cell scales the paper's price ratio with tiered
	// multipliers, re-evaluated once per surge epoch. Off (the
	// default), prices are exactly the paper's static fares.
	SurgeEnabled bool
	// SurgeEpochSeconds is the multiplier re-evaluation period
	// (0 = 60).
	SurgeEpochSeconds float64
	// Seed drives vehicle placement and roaming.
	Seed int64
}

// coreConfig translates the public configuration into the engine's.
func coreConfig(cfg Config) (core.Config, error) {
	algo := core.AlgoDualSide
	if cfg.Algorithm != "" {
		var err error
		algo, err = core.ParseAlgorithm(cfg.Algorithm)
		if err != nil {
			return core.Config{}, err
		}
	}
	return core.Config{
		Capacity:          cfg.Capacity,
		SpeedKmh:          cfg.SpeedKmh,
		MaxWaitSeconds:    cfg.MaxWaitSeconds,
		Sigma:             cfg.Sigma,
		MaxPickupSeconds:  cfg.MaxPickupSeconds,
		PriceRatio:        cfg.PriceRatio,
		Algorithm:         algo,
		CommitSlack:       cfg.CommitSlack,
		SurgeEnabled:      cfg.SurgeEnabled,
		SurgeEpochSeconds: cfg.SurgeEpochSeconds,
		Seed:              cfg.Seed,
	}, nil
}

// MultiConfig parameterises NewMulti.
type MultiConfig struct {
	// Config is the base per-city engine configuration (NumTaxis is
	// ignored; fleet sizes come from the city spec).
	Config
	// EnableRelay serves cross-city trips as two-leg relay itineraries
	// over hand-off gateways instead of rejecting them.
	EnableRelay bool
	// TransferBufferSeconds is the hand-off margin chained between the
	// relay legs' ETAs (0 = 120; negative = a literal zero buffer).
	TransferBufferSeconds float64
}

// The answer types are the Service's own: the shapes the /v1 API
// encodes, aliased here rather than copied.

// Option is one non-dominated result ⟨vehicle, pick-up time, price⟩:
// Index is its position in Request.Options, passed to Choose. For a
// relay option Vehicle is the leg-1 taxi, PickupSeconds the composed
// door-to-destination ETA (the joint skyline's time axis) and Price
// the summed leg fares.
type Option = core.OptionView

// Request is the answer to a submitted ridesharing request: the full
// skyline of options, sorted by pick-up time ascending (price therefore
// descending), the serving city, the lifecycle status, and — when the
// request crossed cities and was served by relay scheduling — the
// two-leg itinerary in Relay.
type Request = core.RequestView

// RelayItinerary is the two-leg view of a cross-city relay trip: its
// lifecycle State, hand-off gateways, joint skyline and, once
// committed, the leg request ids.
type RelayItinerary = core.RelayView

// RelayOption is one row of a relay trip's joint skyline: Fare is
// Leg1Price + Leg2Price, Leg1Vehicle / Leg2Vehicle the two taxis.
type RelayOption = core.RelayOptionView

// Stats is the statistics panel of the demo's website interface.
type Stats struct {
	ClockSeconds    float64
	Requests        int64
	Assigned        int64
	Completed       int64
	SharingRate     float64
	AvgResponseMs   float64
	P95ResponseMs   float64
	AvgOptions      float64
	AvgWaitSeconds  float64
	AvgDetourFactor float64
	ActiveVehicles  int
	// Tick is the sharded time-advancement panel.
	Tick TickStats
	// Surge is the dynamic-pricing panel (zero when surge is off).
	Surge SurgeStats
}

// SurgeStats summarises the per-cell surge tracker: how many cells are
// currently surged, the hottest multiplier, and how many quotes went
// out above base fare. On a multi-city system Cells, ActiveCells and
// SurgedQuotes sum across cities; Epoch and MaxMultiplier are maxima
// and AvgMultiplier is cell-weighted.
type SurgeStats = core.SurgePanel

// TickStats summarises Tick's sharded time advancement: shard width,
// wall time per tick, merged events per tick and the worst
// slowest−fastest shard gap seen. On a multi-city system Workers and
// AvgEvents sum across cities; the timing fields are the maxima.
type TickStats = core.TickStats

// RelayStats is the relay scheduler's counter panel.
type RelayStats = core.RelayStats

// CityInfo describes one city of a system. The Min/Max coordinates
// bound its service region — the addresses RequestAt assigns to it.
type CityInfo = core.CityInfo

// Event reports a pickup or dropoff produced by Tick, in its City.
type Event = core.ServiceEvent

// Stop is one entry of a vehicle trip schedule.
type Stop = core.StopView

// System is a running PTRider instance over one city or many — every
// backend is served through the same core Service interface, so the
// verbs below behave identically whichever constructor built it.
type System struct {
	svc core.Service
	eng *core.Engine // non-nil for single-city systems
	net *Network     // the single city's network (nil for multi)
}

// New builds a single-city System over a network.
func New(n *Network, cfg Config) (*System, error) {
	ccfg, err := coreConfig(cfg)
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(n.g, ccfg)
	if err != nil {
		return nil, err
	}
	if cfg.NumTaxis > 0 {
		eng.AddVehiclesUniform(cfg.NumTaxis)
	}
	return &System{svc: eng, eng: eng, net: n}, nil
}

// NewMulti builds a multi-city System from a compact city spec
//
//	name:WIDTHxHEIGHT:TAXIS[,name:WIDTHxHEIGHT:TAXIS...]
//
// e.g. "east:40x40:500,west:28x28:200": one independently tuned engine
// per synthetic city, laid out disjointly, with requests routed to
// cities by coordinate (RequestAt) or addressed explicitly
// (RequestIn). With cfg.EnableRelay, a trip whose origin and
// destination fall in different cities is quoted as a two-leg relay
// itinerary over hand-off gateways and committed atomically; without
// it, cross-city trips are rejected with a typed error.
func NewMulti(cities string, cfg MultiConfig) (*System, error) {
	base, err := coreConfig(cfg.Config)
	if err != nil {
		return nil, err
	}
	router, err := multicity.BuildFromSpecWithConfig(cities, base, cfg.Seed,
		multicity.RouterConfig{
			EnableRelay: cfg.EnableRelay,
			Relay:       relay.Config{TransferBufferSeconds: cfg.TransferBufferSeconds},
		})
	if err != nil {
		return nil, err
	}
	return &System{svc: router}, nil
}

// Network returns the system's road network (nil for a multi-city
// system, whose per-city networks live behind the city names).
func (s *System) Network() *Network { return s.net }

// AddVehicles places n vehicles uniformly at random (single-city
// systems; a multi-city system sizes its fleets in the city spec).
func (s *System) AddVehicles(n int) {
	if s.eng != nil {
		s.eng.AddVehiclesUniform(n)
	}
}

// AddVehicleAt places one vehicle at a vertex and returns its id
// (single-city systems).
func (s *System) AddVehicleAt(v VertexID) VertexID {
	if s.eng == nil {
		return -1
	}
	return s.eng.AddVehicleAt(v)
}

// NumVehicles returns the in-service vehicle count across all cities.
func (s *System) NumVehicles() int {
	total := 0
	for _, c := range s.svc.Cities() {
		total += c.Vehicles
	}
	return total
}

// RandomVertex returns a uniformly random vertex id (single-city
// systems).
func (s *System) RandomVertex() VertexID {
	if s.eng == nil {
		return 0
	}
	return s.eng.RandomVertex()
}

// Cities lists the system's cities — a single-city system reports one.
func (s *System) Cities() []CityInfo { return s.svc.Cities() }

func (s *System) submit(spec core.SubmitSpec) (Request, error) {
	rec, err := s.svc.SubmitRequest(spec)
	if err != nil {
		return Request{}, err
	}
	return rec.View(), nil
}

// Request submits a ridesharing request for riders travelling from
// vertex from to vertex to under the system-global waiting time and
// service constraint, returning all non-dominated options. On a
// multi-city system vertex ids are ambiguous — use RequestIn or
// RequestAt there.
func (s *System) Request(from, to VertexID, riders int) (Request, error) {
	return s.RequestWithConstraints(from, to, riders, 0, -1)
}

// RequestWithConstraints lets the rider override the maximal waiting
// time (seconds; ≤ 0 keeps the global) and the service constraint σ
// (negative keeps the global; 0 forbids any detour) — the per-rider
// settings the demo paper notes but simplifies away.
func (s *System) RequestWithConstraints(from, to VertexID, riders int, waitSeconds, sigma float64) (Request, error) {
	return s.submit(core.SubmitSpec{
		S: from, D: to, Riders: riders,
		Constraints: core.Constraints{WaitSeconds: waitSeconds, Sigma: sigma},
	})
}

// RequestIn submits a request addressed by city name and city-local
// vertex ids.
func (s *System) RequestIn(city string, from, to VertexID, riders int) (Request, error) {
	return s.submit(core.SubmitSpec{
		City: city, S: from, D: to, Riders: riders,
		Constraints: core.DefaultConstraints(),
	})
}

// RequestAt submits a request addressed by planar coordinates: the
// origin's city answers it, and — when the destination falls in a
// different city of a relay-enabled multi-city system — the answer is
// a two-leg relay itinerary (Request.Relay) whose joint options price
// and time the whole journey.
func (s *System) RequestAt(ox, oy, dx, dy float64, riders int) (Request, error) {
	return s.submit(core.SubmitSpec{
		ByCoords:    true,
		Origin:      geo.Point{X: ox, Y: oy},
		Dest:        geo.Point{X: dx, Y: dy},
		Riders:      riders,
		Constraints: core.DefaultConstraints(),
	})
}

// Choose commits the rider's selected option. For a relay itinerary
// this is the two-phase commit of both legs: both book, or neither
// stays booked.
func (s *System) Choose(requestID int64, optionIndex int) error {
	return s.svc.Choose(core.RequestID(requestID), optionIndex)
}

// Decline records that the rider took none of the options.
func (s *System) Decline(requestID int64) error {
	return s.svc.Decline(core.RequestID(requestID))
}

// Tick advances simulated time by the given seconds: vehicles move,
// pickups and dropoffs fire. Every city of a multi-city system ticks
// concurrently.
func (s *System) Tick(seconds float64) ([]Event, error) { return s.svc.Advance(seconds) }

// RequestStatus returns the lifecycle state of a request: "quoted",
// "assigned", "onboard", "completed" or "declined".
func (s *System) RequestStatus(requestID int64) (string, error) {
	rec, err := s.svc.GetRequest(core.RequestID(requestID))
	if err != nil {
		return "", err
	}
	return rec.Status.String(), nil
}

// RelayItinerary returns the two-leg view of a relay trip previously
// answered by RequestAt on a relay-enabled multi-city system.
func (s *System) RelayItinerary(requestID int64) (*RelayItinerary, error) {
	return s.svc.RelayItinerary(core.RequestID(requestID))
}

// VehicleSchedules returns a vehicle's current location and every valid
// trip schedule of its kinetic tree (single-city systems; see
// VehicleSchedulesIn for multi-city).
func (s *System) VehicleSchedules(vehicle VertexID) (location VertexID, schedules [][]Stop, err error) {
	return s.VehicleSchedulesIn("", vehicle)
}

// VehicleSchedulesIn is VehicleSchedules addressed by city.
func (s *System) VehicleSchedulesIn(city string, vehicle VertexID) (location VertexID, schedules [][]Stop, err error) {
	it, err := s.svc.VehicleItinerary(city, vehicle)
	if err != nil {
		return 0, nil, err
	}
	return it.Location, it.Branches, nil
}

// SetAlgorithm switches the matching algorithm at run time, in every
// city.
func (s *System) SetAlgorithm(name string) error {
	algo, err := core.ParseAlgorithm(name)
	if err != nil {
		return err
	}
	for _, c := range s.svc.Cities() {
		if err := s.svc.SetCityAlgorithm(c.Name, algo); err != nil {
			return err
		}
	}
	return nil
}

// statsOf maps an engine panel into the public shape.
func statsOf(st core.EngineStats) Stats {
	return Stats{
		ClockSeconds:    st.Clock,
		Requests:        st.Requests,
		Assigned:        st.Assigned,
		Completed:       st.Completed,
		SharingRate:     st.SharingRate,
		AvgResponseMs:   st.AvgResponseMs,
		P95ResponseMs:   st.P95ResponseMs,
		AvgOptions:      st.AvgOptions,
		AvgWaitSeconds:  st.AvgWaitSeconds,
		AvgDetourFactor: st.AvgDetourFactor,
		ActiveVehicles:  st.ActiveVehicles,
		Tick:            st.Tick,
		Surge:           st.Surge,
	}
}

// Stats snapshots the statistics panel (the cross-city aggregate on a
// multi-city system).
func (s *System) Stats() Stats {
	return statsOf(s.svc.ServiceStats().Total)
}

// cityStatsOf maps every city's panel into the public shape.
func cityStatsOf(cities map[string]core.EngineStats) map[string]Stats {
	out := make(map[string]Stats, len(cities))
	for name, cs := range cities {
		out[name] = statsOf(cs)
	}
	return out
}

// CityStats snapshots every city's own panel.
func (s *System) CityStats() map[string]Stats {
	return cityStatsOf(s.svc.ServiceStats().Cities)
}

// RelayStats snapshots the relay scheduler's panel; ok is false when
// the system does not relay cross-city trips.
func (s *System) RelayStats() (rs RelayStats, ok bool) {
	st := s.svc.ServiceStats()
	return st.Relay, st.RelayEnabled
}

// HTTPHandler exposes the system over the versioned /v1 JSON API; see
// internal/server for the endpoint reference. Single- and multi-city
// systems serve the identical surface.
func (s *System) HTTPHandler() http.Handler {
	return server.NewService(s.svc).Handler()
}

// SimOptions parameterises RunWorkload and RunMultiWorkload.
type SimOptions struct {
	// TickSeconds is the movement step (0 = 1).
	TickSeconds float64
	// Choice selects the rider model: "earliest", "cheapest", "uniform",
	// "priceaware" (declines steep surge premiums) or "utility"
	// ("" = "utility").
	Choice string
	// FailuresPerHour removes random vehicles at this rate (failure
	// injection; refused by systems that cannot remove vehicles, which
	// today is every multi-city one).
	FailuresPerHour float64
	// Seed drives choices and failures.
	Seed int64
}

// HourStats is one hour of a replay (requests bucketed by submission
// time).
type HourStats = sim.HourBucket

// MultiTrip is one entry of a coordinate workload: endpoints are
// planar coordinates — city assignment is the system's job, not the
// trace's.
type MultiTrip = sim.MultiTrip

// CityTally is one city's slice of a replay.
type CityTally = sim.CityResult

// SimResult summarises a workload replay.
type SimResult struct {
	// Stats is the cross-city aggregate panel; CityStats the per-city
	// panels (a single-city system reports one); Relay the relay
	// scheduler's counters (zero without relay).
	Stats     Stats
	CityStats map[string]Stats
	Relay     RelayStats
	// Submitted counts trips offered to the system; CrossRejected the
	// cross-city trips rejected (zero with relay); NoCity trips whose
	// origin no city serves.
	Submitted     int
	CrossRejected int
	NoCity        int
	// Accepted / Declined / NoOption classify the answered trips (an
	// acceptance a vehicle failure orphaned is re-offered and counted
	// by how the re-offer ended); Relayed counts cross-city trips
	// served through relay scheduling.
	Accepted int
	Declined int
	NoOption int
	Relayed  int
	// AvgOptions is the mean skyline size; AvgPrice and AvgPickupS
	// average the chosen options.
	AvgOptions float64
	AvgPrice   float64
	AvgPickupS float64
	// Hourly is the statistics-over-the-day view, for hours with
	// traffic, in chronological order.
	Hourly []HourStats
	// PerCity breaks the answered trips down by owning city.
	PerCity map[string]CityTally
}

// MultiSimResult is the result of RunMultiWorkload.
type MultiSimResult = SimResult

// replay runs a workload through the one replay loop and renders its
// result in the public shape.
func (s *System) replay(trips []sim.Trip, opts SimOptions) (SimResult, error) {
	choice, err := sim.ParseChoiceModel(opts.Choice)
	if err != nil {
		return SimResult{}, fmt.Errorf("ptrider: unknown choice model %q", opts.Choice)
	}
	res, err := sim.Run(s.svc, trips, sim.Config{
		TickSeconds:     opts.TickSeconds,
		Choice:          choice,
		Seed:            opts.Seed,
		FailuresPerHour: opts.FailuresPerHour,
	})
	if err != nil {
		return SimResult{}, err
	}
	return SimResult{
		Stats:         statsOf(res.Stats.Total),
		CityStats:     cityStatsOf(res.Stats.Cities),
		Relay:         res.Stats.Relay,
		Submitted:     res.Submitted,
		CrossRejected: res.CrossRejected,
		NoCity:        res.NoCity,
		Accepted:      res.Accepted,
		Declined:      res.Declined,
		NoOption:      res.NoOption,
		Relayed:       res.Relayed,
		AvgOptions:    res.OptionsPerRequest.Mean(),
		AvgPrice:      res.Prices.Mean(),
		AvgPickupS:    res.PickupSeconds.Mean(),
		Hourly:        res.Hourly,
		PerCity:       res.PerCity,
	}, nil
}

// RunWorkload replays a vertex-addressed trip workload (from
// GenerateWorkload or a trace file) and returns aggregate results. The
// trips name no city, so a multi-city system refuses the first of them
// with the Service's invalid-argument error; replay coordinate
// workloads there with RunMultiWorkload.
func (s *System) RunWorkload(trips []Trip, opts SimOptions) (SimResult, error) {
	return s.replay(sim.TraceTrips(trips), opts)
}

// MultiWorkloadConfig parameterises GenerateMultiWorkload.
type MultiWorkloadConfig struct {
	// NumTrips is the total trip count across all cities.
	NumTrips int
	// DaySeconds is the horizon (0 = 86400).
	DaySeconds float64
	// Weights skews the per-city load share by city name (nil =
	// uniform).
	Weights map[string]float64
	// CrossFrac moves this fraction of trips' destinations into another
	// city (relay serves them when enabled; typed rejections otherwise).
	CrossFrac float64
	// Seed makes generation deterministic.
	Seed int64
}

// GenerateMultiWorkload synthesises a skewed coordinate-addressed day
// over the system's cities (a single-city system has one, so CrossFrac
// must be 0 there).
func (s *System) GenerateMultiWorkload(cfg MultiWorkloadConfig) ([]MultiTrip, error) {
	return sim.GenerateMultiWorkload(s.svc, gen.TripConfig{
		NumTrips: cfg.NumTrips, DaySeconds: cfg.DaySeconds, Seed: cfg.Seed,
	}, cfg.Weights, cfg.CrossFrac)
}

// RunMultiWorkload replays a coordinate workload against the system:
// trips are submitted by coordinate at their due tick, the rider model
// chooses (relay trips through their synthesised joint options), and
// every city's fleet moves concurrently on each tick.
func (s *System) RunMultiWorkload(trips []MultiTrip, opts SimOptions) (MultiSimResult, error) {
	return s.replay(sim.CoordTrips(trips), opts)
}
