// service.go defines the Service interface — the one engine contract
// every transport (the public ptrider package, the HTTP server, the
// workload simulator) programs against, and the one a city backend
// offers its coordinator. Three implementations exist:
//
//   - *Engine: a single city (itself a degenerate "default" city).
//   - *multicity.Coordinator: N cities behind coordinate routing,
//     optionally with cross-city relay scheduling — in process as a
//     multicity.Router over engines, across processes as a
//     cluster.Gateway over city shards.
//   - cluster.ShardClient: one remote city shard.
//
// The interface is deliberately expressed in core types only, so the
// transports need no knowledge of which backend serves them: requests
// are addressed either by city + city-local vertices or by planar
// coordinates (SubmitSpec), answers come back as ServiceRecords (the
// single-city record plus the owning city and, for cross-city trips,
// the two-leg relay itinerary), and the statistics panel always carries
// the per-city dimension (a single engine reports one city).
//
// Errors crossing the Service boundary are typed for transport-level
// classification; the sentinels and the table that maps them to HTTP
// statuses and envelope codes live in errors.go.
package core

import (
	"context"
	"fmt"

	"ptrider/internal/fleet"
	"ptrider/internal/geo"
	"ptrider/internal/roadnet"
)

// DefaultCityName is the city name a bare *Engine serves under: a
// single-city backend is a one-city Service, so every city-scoped view
// still has a name to hang off. An empty city argument always means
// "the backend's only city" and is rejected by multi-city backends.
const DefaultCityName = "default"

// SubmitSpec is the unified request addressing of the Service
// interface: either city + city-local vertex ids, or planar coordinates
// that the backend assigns to a city (or, with relay, to two) and snaps
// to the road network.
type SubmitSpec struct {
	// City names the serving city for vertex addressing. "" means the
	// backend's only city; multi-city backends require it when ByCoords
	// is false.
	City string
	// S and D are city-local vertex ids (used when ByCoords is false).
	S, D roadnet.VertexID
	// Origin and Dest are planar coordinates (used when ByCoords).
	Origin, Dest geo.Point
	// ByCoords selects coordinate addressing.
	ByCoords bool
	// Riders is the group size.
	Riders int
	// Constraints carries the per-request overrides.
	Constraints Constraints
	// Choose, when non-nil, picks an option index from the quoted
	// skyline (or -1 to decline) right at submission — honoured by
	// SubmitRequestBatch (workload drivers); SubmitRequest ignores it.
	Choose func(options []Option) int
	// IdemKey, when non-empty, makes the submission idempotent: a
	// retry carrying the same key returns the original submission's
	// record instead of quoting anew. Honoured by single-request
	// submission (SubmitRequest); batch and relay submissions ignore
	// it.
	IdemKey string
	// Ctx is the caller's context, as an http.Request carries its own
	// (nil: context.Background()). A quote whose context is done before
	// it registers is abandoned with ErrUnavailable; its span
	// (telemetry.WithSpan) gets the stage timings and crosses the hop.
	Ctx context.Context
}

// Context returns Ctx, or context.Background() when Ctx is nil.
func (s *SubmitSpec) Context() context.Context {
	if s.Ctx == nil {
		return context.Background()
	}
	return s.Ctx
}

// ServiceRecord is the Service-level view of a request: the engine
// record with the id lifted into the backend's global namespace, the
// owning city, the quoting city's speed (to render pick-up distances as
// seconds), and — for a cross-city trip served by relay — the two-leg
// itinerary. View renders it as the answer a rider sees.
type ServiceRecord struct {
	RequestRecord
	// City is the owning city (a relay trip's origin city).
	City string
	// Speed is the quoting city's speed in metres per second.
	Speed float64
	// Relay is the two-leg itinerary when this record is a cross-city
	// relay trip; nil for ordinary requests.
	Relay *RelayView
}

// PickupSecondsOf renders an option's pick-up distance as seconds at
// the record's quoting speed. For a relay record the synthesised
// options carry the composed door-to-destination ETA, so this returns
// that ETA.
func (r *ServiceRecord) PickupSecondsOf(o Option) float64 {
	if r.Speed <= 0 {
		return 0
	}
	return o.PickupDist / r.Speed
}

// The Service's answers. Each is the one Go shape of its resource: its
// JSON tags make the /v1 body, one function builds it, and the public
// ptrider package aliases it. Ids are int64, as the facade's are.

// OptionView is one row of the result display interface (paper
// Fig. 4b): ⟨vehicle, pick-up time, price⟩, the pick-up also as a road
// distance. A relay record's rows carry the composed fare as price and
// the composed door-to-destination ETA as pick-up time; its Relay
// section holds the per-leg truth.
type OptionView struct {
	// Index is the row's position in the skyline, passed to Choose.
	Index         int             `json:"index"`
	Vehicle       fleet.VehicleID `json:"vehicle"`
	PickupSeconds float64         `json:"pickup_seconds"`
	PickupMeters  float64         `json:"pickup_meters"`
	Price         float64         `json:"price"`
}

// RequestView is the answer to a request: the skyline of options,
// sorted by pick-up time ascending (price therefore descending), and
// the request's lifecycle.
type RequestView struct {
	ID int64 `json:"id"`
	// City is the serving city (a relay trip's origin city).
	City string `json:"city"`
	// Status is "quoted", "assigned", "onboard", "completed" or
	// "declined".
	Status string           `json:"status"`
	S      roadnet.VertexID `json:"s"`
	D      roadnet.VertexID `json:"d"`
	Riders int              `json:"riders"`
	// DirectMeters is dist(s, d), the §2.4 distance term every price
	// carries; Sigma is the service constraint σ the request was quoted
	// under. A relay trip has neither (its legs do).
	DirectMeters float64      `json:"direct_meters,omitempty"`
	Sigma        float64      `json:"sigma,omitempty"`
	Options      []OptionView `json:"options"`
	// Chosen is the committed option's index, -1 before a commit.
	Chosen int `json:"chosen"`
	// Vehicle and Price are the committed option's (zero while quoted
	// or declined).
	Vehicle fleet.VehicleID `json:"vehicle,omitempty"`
	Price   float64         `json:"price,omitempty"`
	Shared  bool            `json:"shared,omitempty"`
	// Relay carries the two-leg itinerary when the request crossed
	// cities and was served by relay scheduling; nil otherwise.
	Relay *RelayView `json:"relay,omitempty"`
}

// View renders the record as the request answer.
func (r *ServiceRecord) View() RequestView {
	v := RequestView{
		ID: int64(r.ID), City: r.City, Status: r.Status.String(),
		S: r.S, D: r.D, Riders: r.Riders,
		DirectMeters: r.SD, Sigma: r.Sigma,
		Options: make([]OptionView, len(r.Options)),
		Chosen:  r.Chosen,
		Shared:  r.Shared,
		Relay:   r.Relay,
	}
	for i, o := range r.Options {
		v.Options[i] = OptionView{
			Index: i, Vehicle: o.Vehicle, PickupSeconds: r.PickupSecondsOf(o),
			PickupMeters: o.PickupDist, Price: o.Price,
		}
	}
	if r.Status != StatusQuoted && r.Status != StatusDeclined {
		v.Vehicle, v.Price = r.Vehicle, r.Price
	}
	return v
}

// Record is View's inverse: the record a view was rendered from, as far
// as the view carries it, at the quoting city's speed (which the view
// holds only folded into each row's pick-up seconds). The view does not
// carry the option candidates, the committed vehicle and price of a
// declined record, nor the record's wait, odometer, clock and fare
// provenance fields; those stay zero. An unknown status fails with
// ErrInvalidArgument.
func (v *RequestView) Record(speed float64) (*ServiceRecord, error) {
	st, err := ParseRequestStatus(v.Status)
	if err != nil {
		return nil, err
	}
	r := &ServiceRecord{
		RequestRecord: RequestRecord{
			ID: RequestID(v.ID), S: v.S, D: v.D, Riders: v.Riders, Status: st,
			Sigma: v.Sigma, SD: v.DirectMeters,
			Options: make([]Option, len(v.Options)), Chosen: v.Chosen,
			Vehicle: v.Vehicle, Price: v.Price, Shared: v.Shared,
		},
		City: v.City, Speed: speed, Relay: v.Relay,
	}
	for i, o := range v.Options {
		r.Options[i] = Option{Vehicle: o.Vehicle, PickupDist: o.PickupMeters, Price: o.Price}
	}
	return r, nil
}

// RelayGatewayView is one hand-off vertex pair of a relay itinerary:
// From in the origin city's graph, To in the destination city's.
type RelayGatewayView struct {
	From      roadnet.VertexID `json:"from"`
	To        roadnet.VertexID `json:"to"`
	GapMeters float64          `json:"gap_meters"`
}

// RelayOptionView is one row of a relay trip's joint skyline (Fig. 4b
// lifted to two legs) with its per-leg breakdown.
type RelayOptionView struct {
	// Index aligns with the record's Options.
	Index int `json:"index"`
	// Gateway indexes RelayView.Gateways.
	Gateway int `json:"gateway"`
	// Fare is Leg1Price + Leg2Price.
	Fare        float64         `json:"fare"`
	Leg1Price   float64         `json:"leg1_price"`
	Leg2Price   float64         `json:"leg2_price"`
	Leg1Vehicle fleet.VehicleID `json:"leg1_vehicle"`
	Leg2Vehicle fleet.VehicleID `json:"leg2_vehicle"`
	// PickupSeconds is leg 1's planned door pick-up ETA; ETASeconds the
	// composed door-to-destination worst case.
	PickupSeconds float64 `json:"pickup_seconds"`
	ETASeconds    float64 `json:"eta_seconds"`
}

// RelayView is the two-leg itinerary of a cross-city relay trip:
// lifecycle state, hand-off gateways, the joint skyline and — once
// committed — the two leg record ids. The relay scheduler builds it.
type RelayView struct {
	// RequestID is the trip's request id (relay trips are the negative
	// ids).
	RequestID int64 `json:"request_id"`
	// Origin and Dest are the two city names.
	Origin string `json:"origin"`
	Dest   string `json:"dest"`
	// State is the trip lifecycle stage: "quoted", "leg1-committed",
	// "in-transfer", "leg2-active", "completed", "declined", "aborted"
	// or "failed".
	State string `json:"state"`
	// TransferBufferSeconds is the scheduler's hand-off margin.
	TransferBufferSeconds float64            `json:"transfer_buffer_seconds"`
	Gateways              []RelayGatewayView `json:"gateways"`
	Options               []RelayOptionView  `json:"options"`
	// Chosen is the committed option index (-1 while quoted/declined).
	Chosen int `json:"chosen"`
	// Leg1 and Leg2 are the committed legs' request ids, city-local to
	// the origin and destination engines (zero before commit).
	Leg1 int64 `json:"leg1,omitempty"`
	Leg2 int64 `json:"leg2,omitempty"`
}

// RelayStats is the relay scheduler's counter panel (zero unless the
// backend enables relay scheduling).
type RelayStats struct {
	// Quoted counts relay trips quoted; LegQuotes the per-city leg
	// quotes issued on their behalf.
	Quoted    int64
	LegQuotes int64
	// Committed counts two-phase commits that booked both legs;
	// Aborted those that released a half-booked trip; Declined rider
	// declines; Completed trips whose leg 2 dropped the rider off;
	// Failed trips a vehicle failure orphaned after commit.
	Committed int64
	Aborted   int64
	Declined  int64
	Completed int64
	Failed    int64
	// Active is the committed trips still moving.
	Active int64
}

// ServiceStats is the backend-agnostic statistics panel: per-city
// engine snapshots plus the cross-city total (for a single engine the
// total and the one city coincide), and the relay panel when enabled.
type ServiceStats struct {
	Total        EngineStats
	Cities       map[string]EngineStats
	RelayEnabled bool
	Relay        RelayStats
}

// RequestFilter narrows a Requests listing. The zero value matches
// every request.
type RequestFilter struct {
	// Status filters to one lifecycle state when HasStatus is set
	// (StatusQuoted is a valid filter, so presence needs its own bit).
	Status    RequestStatus
	HasStatus bool
}

// ParseRequestStatus parses the lowercase lifecycle names the API uses
// ("quoted", "assigned", "onboard", "completed", "declined").
// Unknown names fail with ErrInvalidArgument.
func ParseRequestStatus(s string) (RequestStatus, error) {
	for st := StatusQuoted; st <= StatusDeclined; st++ {
		if st.String() == s {
			return st, nil
		}
	}
	return 0, fmt.Errorf("core: unknown request status %q: %w", s, ErrInvalidArgument)
}

// ServiceEvent is one pickup or dropoff produced by a tick, tagged with
// its city; Request is in the backend's global id namespace.
type ServiceEvent struct {
	City string `json:"city"`
	// Kind is "pickup" or "dropoff".
	Kind    string          `json:"kind"`
	Vehicle fleet.VehicleID `json:"vehicle"`
	Request int64           `json:"request"`
	// Odo is the vehicle's odometer at the event.
	Odo float64 `json:"odo"`
}

// CityInfo describes one city of a backend. The Min/Max coordinates
// bound its service region — the addresses coordinate submission
// assigns to it.
type CityInfo struct {
	Name     string  `json:"name"`
	Vertices int     `json:"vertices"`
	Vehicles int     `json:"vehicles"`
	MinX     float64 `json:"min_x"`
	MinY     float64 `json:"min_y"`
	MaxX     float64 `json:"max_x"`
	MaxY     float64 `json:"max_y"`
}

// NewCityInfo describes a city by name, size and service region.
func NewCityInfo(name string, vertices, vehicles int, region geo.Rect) CityInfo {
	return CityInfo{
		Name: name, Vertices: vertices, Vehicles: vehicles,
		MinX: region.Min.X, MinY: region.Min.Y, MaxX: region.Max.X, MaxY: region.Max.Y,
	}
}

// CityReadiness is one city's readiness probe result — the per-city
// row of the /v1/readyz detail body. For remote backends Err carries
// the transport failure ("dial tcp ...") of an unreachable shard.
type CityReadiness struct {
	City  string `json:"city"`
	Ready bool   `json:"ready"`
	Err   string `json:"error,omitempty"`
}

// Readiness is the /v1/readyz body: "ready" or "unready", plus the
// per-city detail when the backend can break readiness down.
type Readiness struct {
	Status string          `json:"status"`
	Cities []CityReadiness `json:"cities,omitempty"`
}

// ServiceParams is one city's live settings panel.
type ServiceParams struct {
	City           string    `json:"city"`
	Algorithm      Algorithm `json:"algorithm"`
	Capacity       int       `json:"capacity"`
	NumTaxis       int       `json:"num_taxis"`
	MaxWaitSeconds float64   `json:"max_wait_seconds"`
	Sigma          float64   `json:"sigma"`
	SpeedKmh       float64   `json:"speed_kmh"`

	// Surge pricing state: whether the stage is in the pipeline, the
	// epoch cadence, and the tracker's live epoch/multiplier summary.
	SurgeEnabled       bool    `json:"surge_enabled"`
	SurgeEpochSeconds  float64 `json:"surge_epoch_seconds,omitempty"`
	SurgeEpoch         uint64  `json:"surge_epoch,omitempty"`
	SurgeActiveCells   int     `json:"surge_active_cells,omitempty"`
	SurgeMaxMultiplier float64 `json:"surge_max_multiplier,omitempty"`
}

// SurgeCellView is one surged grid cell of a city's tracker.
type SurgeCellView struct {
	// Cell is the grid cell id (row-major over Cols×Rows).
	Cell int `json:"cell"`
	// Multiplier is the cell's current fare multiplier.
	Multiplier float64 `json:"multiplier"`
	// Ratio is the EMA-smoothed demand/supply ratio behind it.
	Ratio float64 `json:"ratio"`
}

// SurgeView is one city's per-cell surge state — the payload of the
// /v1/surge endpoint. Only surged cells (multiplier > 1) are listed.
type SurgeView struct {
	City         string          `json:"city"`
	Enabled      bool            `json:"enabled"`
	Epoch        uint64          `json:"epoch"`
	EpochSeconds float64         `json:"epoch_seconds,omitempty"`
	Cols         int             `json:"cols"`
	Rows         int             `json:"rows"`
	Cells        []SurgeCellView `json:"cells"`
}

// StopView is one stop of a vehicle's trip schedule.
type StopView struct {
	Vertex roadnet.VertexID `json:"vertex"`
	// Kind is "pickup" or "dropoff".
	Kind    string `json:"kind"`
	Request int64  `json:"request"`
}

// VehicleItinerary is one vehicle's location and kinetic-tree schedule
// branches (the website's red lines).
type VehicleItinerary struct {
	City     string           `json:"city"`
	ID       fleet.VehicleID  `json:"id"`
	Location roadnet.VertexID `json:"location"`
	Branches [][]StopView     `json:"branches"`
}

// Service is the shared engine contract: everything a transport needs
// to submit, commit, observe and advance ridesharing requests, over one
// city or many. *Engine, *multicity.Coordinator and
// cluster.ShardClient implement it; all methods are safe for concurrent
// use.
type Service interface {
	// SubmitRequest answers one ridesharing request with its skyline of
	// options (spec.Choose is ignored).
	SubmitRequest(spec SubmitSpec) (*ServiceRecord, error)
	// SubmitRequestBatch answers simultaneously issued requests with
	// the greedy batch semantics of the backend; one record per spec,
	// in order, nil entries for failed items with the first error
	// returned. Spec.Choose callbacks commit or decline in-line.
	SubmitRequestBatch(specs []SubmitSpec) ([]*ServiceRecord, error)
	// Choose commits the rider's selected option. Choosing an
	// already-committed request fails with ErrAlreadyChosen.
	Choose(id RequestID, optionIndex int) error
	// Decline records that the rider took none of the options.
	Decline(id RequestID) error
	// GetRequest returns a snapshot of a request record; unknown ids
	// fail with ErrNotFound.
	GetRequest(id RequestID) (*ServiceRecord, error)
	// Requests lists request records, id ascending, optionally scoped
	// to one city and filtered by lifecycle state; up to limit records
	// (limit ≤ 0 means all). Relay trips are not listed — they live in
	// the scheduler's trip ledger, not a city's request ledger; use
	// RelayItinerary.
	Requests(city string, filter RequestFilter, limit int) ([]*ServiceRecord, error)
	// RelayItinerary returns the two-leg view of a relay trip; ids that
	// are not relay trips (or backends without relay) fail with
	// ErrNotFound.
	RelayItinerary(id RequestID) (*RelayView, error)
	// Advance moves simulated time forward by dt seconds in every city
	// and returns the movement events, city-tagged, with request ids in
	// the backend's global namespace.
	Advance(dt float64) ([]ServiceEvent, error)
	// Clock returns the simulated time in seconds (the maximum across
	// cities) without aggregating the full statistics panel.
	Clock() float64
	// ServiceStats snapshots the statistics panel.
	ServiceStats() ServiceStats
	// Cities lists the backend's cities in registration order.
	Cities() []CityInfo
	// Vehicles returns up to limit vehicle summaries of one city
	// (limit ≤ 0 means all; city "" means the only city).
	Vehicles(city string, limit int) ([]VehicleView, error)
	// VehicleItinerary returns one vehicle's schedules.
	VehicleItinerary(city string, id fleet.VehicleID) (*VehicleItinerary, error)
	// Params returns one city's live settings.
	Params(city string) (ServiceParams, error)
	// Surge returns one city's per-cell surge state (Enabled false,
	// empty cell list when the surge stage is off).
	Surge(city string) (*SurgeView, error)
	// SetCityAlgorithm switches one city's matching algorithm.
	SetCityAlgorithm(city string, algo Algorithm) error
	// CityGraph exposes one city's road network (map rendering).
	CityGraph(city string) (*roadnet.Graph, error)
}

// Engine implements Service as a one-city backend.
var _ Service = (*Engine)(nil)

// checkCity validates a city argument against the engine's single
// implicit city ("" and DefaultCityName both address it).
func (e *Engine) checkCity(city string) error {
	if city == "" || city == DefaultCityName {
		return nil
	}
	return fmt.Errorf("core: %w: %q", ErrUnknownCity, city)
}

// NearestVertex snaps a planar coordinate to the nearest road-network
// vertex — the same vertex a linear scan of the graph finds, so a
// coordinate resolves identically here and on a remote ShardClient.
func (e *Engine) NearestVertex(p geo.Point) roadnet.VertexID {
	return e.sub.grid.NearestVertex(p)
}

// resolveSpec maps a SubmitSpec onto the engine's vertex space.
func (e *Engine) resolveSpec(spec *SubmitSpec) (s, d roadnet.VertexID, err error) {
	if err := e.checkCity(spec.City); err != nil {
		return 0, 0, err
	}
	if spec.ByCoords {
		return e.NearestVertex(spec.Origin), e.NearestVertex(spec.Dest), nil
	}
	return spec.S, spec.D, nil
}

// serviceRecord lifts an engine record into the Service view.
func (e *Engine) serviceRecord(rec *RequestRecord) *ServiceRecord {
	return &ServiceRecord{RequestRecord: *rec, City: DefaultCityName, Speed: e.sub.speed}
}

// SubmitRequest implements Service.
func (e *Engine) SubmitRequest(spec SubmitSpec) (*ServiceRecord, error) {
	s, d, err := e.resolveSpec(&spec)
	if err != nil {
		return nil, err
	}
	rec, err := e.submit(spec.Context(), s, d, spec.Riders, spec.Constraints, spec.IdemKey)
	if err != nil {
		return nil, err
	}
	return e.serviceRecord(rec), nil
}

// SubmitRequestBatch implements Service over SubmitBatch: greedy in
// batch order, each wave's quotes run in parallel, and an item whose
// context is done before its wave starts is abandoned.
func (e *Engine) SubmitRequestBatch(specs []SubmitSpec) ([]*ServiceRecord, error) {
	items := make([]BatchItem, len(specs))
	for i := range specs {
		s, d, err := e.resolveSpec(&specs[i])
		items[i] = BatchItem{
			S: s, D: d, Riders: specs[i].Riders,
			Constraints: specs[i].Constraints, Choose: specs[i].Choose,
			ctx: specs[i].Ctx, err: err,
		}
	}
	recs, err := e.SubmitBatch(items)
	out := make([]*ServiceRecord, len(specs))
	for i, rec := range recs {
		if rec != nil {
			out[i] = e.serviceRecord(rec)
		}
	}
	return out, err
}

// GetRequest implements Service.
func (e *Engine) GetRequest(id RequestID) (*ServiceRecord, error) {
	e.led.mu.Lock()
	defer e.led.mu.Unlock()
	rec, err := e.led.get(id)
	if err != nil {
		return nil, err
	}
	return e.serviceRecord(rec), nil
}

// Requests implements Service: a snapshot listing of the single city's
// ledger, id ascending, copying only the records it returns.
func (e *Engine) Requests(city string, filter RequestFilter, limit int) ([]*ServiceRecord, error) {
	if err := e.checkCity(city); err != nil {
		return nil, err
	}
	// Non-nil when empty: the listing endpoints encode it as [].
	out := []*ServiceRecord{}
	e.led.mu.Lock()
	e.led.list(filter, limit, func(rec *RequestRecord) { out = append(out, e.serviceRecord(rec)) })
	e.led.mu.Unlock()
	return out, nil
}

// RelayItinerary implements Service: a single-city backend has no relay
// trips.
func (e *Engine) RelayItinerary(id RequestID) (*RelayView, error) {
	return nil, fmt.Errorf("core: request %d is not a relay trip: %w", id, ErrNotFound)
}

// Advance implements Service: one tick of the single city.
func (e *Engine) Advance(dt float64) ([]ServiceEvent, error) {
	events, err := e.Tick(dt)
	out := make([]ServiceEvent, len(events))
	for i, ev := range events {
		out[i] = ServiceEvent{City: DefaultCityName, Kind: ev.Kind.String(), Vehicle: ev.Vehicle, Request: int64(ev.Request), Odo: ev.Odo}
	}
	return out, err
}

// ServiceStats implements Service: the engine's panel doubles as the
// total and its one city.
func (e *Engine) ServiceStats() ServiceStats {
	st := e.Stats()
	return ServiceStats{
		Total:  st,
		Cities: map[string]EngineStats{DefaultCityName: st},
	}
}

// Cities implements Service.
func (e *Engine) Cities() []CityInfo {
	return []CityInfo{NewCityInfo(DefaultCityName, e.sub.g.NumVertices(), e.NumVehicles(), e.sub.g.Bounds())}
}

// Vehicles implements Service.
func (e *Engine) Vehicles(city string, limit int) ([]VehicleView, error) {
	if err := e.checkCity(city); err != nil {
		return nil, err
	}
	return e.VehicleViews(limit), nil
}

// VehicleItinerary implements Service.
func (e *Engine) VehicleItinerary(city string, id fleet.VehicleID) (*VehicleItinerary, error) {
	if err := e.checkCity(city); err != nil {
		return nil, err
	}
	loc, branches, err := e.VehicleSchedules(id)
	if err != nil {
		return nil, fmt.Errorf("core: vehicle %d: %w", id, ErrNotFound)
	}
	it := &VehicleItinerary{City: DefaultCityName, ID: id, Location: loc}
	for _, b := range branches {
		row := make([]StopView, len(b))
		for i, p := range b {
			row[i] = StopView{Vertex: p.Loc, Kind: p.Kind.String(), Request: int64(p.Req)}
		}
		it.Branches = append(it.Branches, row)
	}
	return it, nil
}

// Params implements Service.
func (e *Engine) Params(city string) (ServiceParams, error) {
	if err := e.checkCity(city); err != nil {
		return ServiceParams{}, err
	}
	cfg := e.sub.cfg
	p := ServiceParams{
		City:           DefaultCityName,
		Algorithm:      e.Algorithm(),
		Capacity:       cfg.Capacity,
		NumTaxis:       e.NumVehicles(),
		MaxWaitSeconds: cfg.MaxWaitSeconds,
		Sigma:          cfg.Sigma,
		SpeedKmh:       cfg.SpeedKmh,
	}
	if sp := e.SurgeStats(); sp.Enabled {
		p.SurgeEnabled = true
		p.SurgeEpochSeconds = sp.EpochSeconds
		p.SurgeEpoch = sp.Epoch
		p.SurgeActiveCells = sp.ActiveCells
		p.SurgeMaxMultiplier = sp.MaxMultiplier
	}
	return p, nil
}

// Surge implements Service.
func (e *Engine) Surge(city string) (*SurgeView, error) {
	if err := e.checkCity(city); err != nil {
		return nil, err
	}
	cols, rows := e.sub.grid.Dims()
	// Cells non-nil: an unsurged city encodes as [].
	v := &SurgeView{City: DefaultCityName, Cols: cols, Rows: rows, Cells: []SurgeCellView{}}
	if e.tracker == nil {
		return v, nil
	}
	v.Enabled = true
	v.EpochSeconds = e.sub.cfg.SurgeEpochSeconds
	epoch, ema, mult := e.tracker.Cells()
	v.Epoch = epoch
	for c, m := range mult {
		if m > 1 {
			v.Cells = append(v.Cells, SurgeCellView{Cell: c, Multiplier: m, Ratio: ema[c]})
		}
	}
	return v, nil
}

// SetCityAlgorithm implements Service.
func (e *Engine) SetCityAlgorithm(city string, algo Algorithm) error {
	if err := e.checkCity(city); err != nil {
		return err
	}
	return e.SetAlgorithm(algo)
}

// CityGraph implements Service.
func (e *Engine) CityGraph(city string) (*roadnet.Graph, error) {
	if err := e.checkCity(city); err != nil {
		return nil, err
	}
	return e.sub.g, nil
}
