// service.go defines the Service interface — the one engine contract
// every transport (the public ptrider package, the HTTP server, the
// workload simulator) programs against. Two implementations exist:
//
//   - *Engine: a single city (itself a degenerate "default" city).
//   - *multicity.Coordinator: N cities behind coordinate routing,
//     optionally with cross-city relay scheduling — in process as a
//     multicity.Router over engines, across processes as a
//     cluster.Gateway over city shards.
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
	"fmt"

	"ptrider/internal/fleet"
	"ptrider/internal/geo"
	"ptrider/internal/kinetic"
	"ptrider/internal/roadnet"
	"ptrider/internal/telemetry"
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
	// Span, when non-nil, receives the submit pipeline's per-stage
	// timings (quote/register/wal_wait) for request correlation — the
	// HTTP middleware opens one per request and logs its breakdown when
	// the request is slow. Honoured by single-request submission; batch
	// and relay submissions ignore it.
	Span *telemetry.Span
}

// ServiceRecord is the Service-level view of a request: the engine
// record with the id lifted into the backend's global namespace, the
// owning city, the quoting city's speed (to render pick-up distances as
// seconds), and — for a cross-city trip served by relay — the two-leg
// itinerary.
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

// RelayGatewayView is one hand-off vertex pair of a relay itinerary.
type RelayGatewayView struct {
	From, To  roadnet.VertexID
	GapMeters float64
}

// RelayOptionView is one row of a relay trip's joint skyline with its
// per-leg breakdown.
type RelayOptionView struct {
	// Gateway indexes RelayView.Gateways.
	Gateway int
	// Leg1 and Leg2 are the per-leg option snapshots.
	Leg1, Leg2 Option
	// Fare is the composed price (leg fares sum).
	Fare float64
	// PickupSeconds is leg 1's planned door pick-up ETA.
	PickupSeconds float64
	// ETASeconds is the composed door-to-destination worst-case ETA.
	ETASeconds float64
}

// RelayView is the Service-level snapshot of a cross-city relay trip:
// lifecycle state, hand-off gateways, the joint skyline and — once
// committed — the two leg record ids.
type RelayView struct {
	// RequestID is the trip's global request id (negative on the
	// multi-city router).
	RequestID RequestID
	// Origin and Dest are the two city names.
	Origin, Dest string
	// State is the trip lifecycle stage ("quoted", "leg1-committed",
	// "in-transfer", "leg2-active", "completed", "declined", "aborted",
	// "failed").
	State string
	// TransferBufferSeconds is the scheduler's hand-off margin.
	TransferBufferSeconds float64
	Gateways              []RelayGatewayView
	Options               []RelayOptionView
	// Chosen is the committed option index (-1 while quoted/declined).
	Chosen int
	// Leg1 and Leg2 are the committed legs' request ids, city-local to
	// the origin and destination engines (zero before commit).
	Leg1, Leg2 RequestID
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

// ServiceEvent is one tick movement event tagged with its city.
type ServiceEvent struct {
	City string
	fleet.Event
}

// CityInfo describes one city of a backend.
type CityInfo struct {
	Name     string
	Vertices int
	Vehicles int
	Region   geo.Rect
}

// CityReadiness is one city's readiness probe result — the per-city
// row of the /v1/readyz detail body. For remote backends Err carries
// the transport failure ("dial tcp ...") of an unreachable shard.
type CityReadiness struct {
	City  string `json:"city"`
	Ready bool   `json:"ready"`
	Err   string `json:"error,omitempty"`
}

// ServiceParams is one city's live settings panel.
type ServiceParams struct {
	City           string
	Algorithm      Algorithm
	Capacity       int
	NumTaxis       int
	MaxWaitSeconds float64
	Sigma          float64
	SpeedKmh       float64
	MatchWorkers   int
	TickWorkers    int

	// Surge pricing state: whether the stage is in the pipeline, the
	// epoch cadence, and the tracker's live epoch/multiplier summary.
	SurgeEnabled       bool
	SurgeEpochSeconds  float64
	SurgeEpoch         uint64
	SurgeActiveCells   int
	SurgeMaxMultiplier float64
}

// SurgeCellView is one surged grid cell of a city's tracker.
type SurgeCellView struct {
	// Cell is the grid cell id (row-major over Cols×Rows).
	Cell int
	// Multiplier is the cell's current fare multiplier.
	Multiplier float64
	// Ratio is the EMA-smoothed demand/supply ratio behind it.
	Ratio float64
}

// SurgeView is one city's per-cell surge state — the payload of the
// /v1/surge endpoint. Only surged cells (multiplier > 1) are listed.
type SurgeView struct {
	City         string
	Enabled      bool
	Epoch        uint64
	EpochSeconds float64
	Cols, Rows   int
	Cells        []SurgeCellView
}

// VehicleItinerary is one vehicle's location and kinetic-tree schedule
// branches.
type VehicleItinerary struct {
	City     string
	Vehicle  fleet.VehicleID
	Location roadnet.VertexID
	Branches [][]kinetic.Point
}

// Service is the shared engine contract: everything a transport needs
// to submit, commit, observe and advance ridesharing requests, over one
// city or many. *Engine and *multicity.Coordinator implement it; all
// methods are safe for concurrent use.
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
	rec, err := e.submit(s, d, spec.Riders, spec.Constraints, spec.IdemKey, spec.Span)
	if err != nil {
		return nil, err
	}
	return e.serviceRecord(rec), nil
}

// SubmitRequestBatch implements Service over SubmitBatch: greedy in
// batch order, each wave's quotes run in parallel.
func (e *Engine) SubmitRequestBatch(specs []SubmitSpec) ([]*ServiceRecord, error) {
	out := make([]*ServiceRecord, len(specs))
	var firstErr error
	items := make([]BatchItem, 0, len(specs))
	idxs := make([]int, 0, len(specs))
	for i := range specs {
		s, d, err := e.resolveSpec(&specs[i])
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("core: batch item %d: %w", i, err)
			}
			continue
		}
		items = append(items, BatchItem{
			S: s, D: d, Riders: specs[i].Riders,
			Constraints: specs[i].Constraints, Choose: specs[i].Choose,
		})
		idxs = append(idxs, i)
	}
	recs, err := e.SubmitBatch(items)
	if err != nil && firstErr == nil {
		firstErr = err
	}
	for k, rec := range recs {
		if rec != nil {
			out[idxs[k]] = e.serviceRecord(rec)
		}
	}
	return out, firstErr
}

// GetRequest implements Service.
func (e *Engine) GetRequest(id RequestID) (*ServiceRecord, error) {
	rec, err := e.Request(id)
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
		out[i] = ServiceEvent{City: DefaultCityName, Event: ev}
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
	return []CityInfo{{
		Name:     DefaultCityName,
		Vertices: e.sub.g.NumVertices(),
		Vehicles: e.NumVehicles(),
		Region:   e.sub.g.Bounds(),
	}}
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
	return &VehicleItinerary{
		City: DefaultCityName, Vehicle: id, Location: loc, Branches: branches,
	}, nil
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
		MatchWorkers:   cfg.MatchWorkers,
		TickWorkers:    cfg.TickWorkers,
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
	v := &SurgeView{City: DefaultCityName, Cols: cols, Rows: rows}
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
