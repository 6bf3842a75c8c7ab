// Package server exposes a PTRider backend over HTTP as one
// resource-oriented, versioned JSON API. A single handler set serves
// every backend that implements core.Service — a single-city
// core.Engine, or the multi-city coordinator as an in-process
// multicity.Router or a cluster.Gateway over shard processes — so
// single-city, multi-city and cross-city relay traffic all speak the
// same surface.
//
// Versioned API (v1):
//
//	POST /v1/requests                submit one request — {"s":12,"d":17,"riders":2},
//	                                 {"city":"east","s":12,"d":17,...} or
//	                                 {"ox":..,"oy":..,"dx":..,"dy":..,...} — or a
//	                                 batch: {"requests":[{...},{...}]}.
//	                                 An Idempotency-Key header makes single-request
//	                                 submission retry-safe: a repeated key answers
//	                                 with the original record (batches are exempt)
//	GET  /v1/requests                request-ledger listing
//	                                 (?city=east&status=assigned&limit=10&offset=20)
//	GET  /v1/requests/{id}           request record (options, status, relay section)
//	POST /v1/requests/{id}/choice    {"option":0} commit an option
//	POST /v1/requests/{id}/decline   take none of the options
//	GET  /v1/vehicles                fleet summaries   (?city=east&limit=10)
//	GET  /v1/vehicles/{id}           one vehicle's schedules (?city=east)
//	GET  /v1/cities                  city names, regions, fleet sizes
//	GET  /v1/relay/{id}              one relay trip's two-leg itinerary
//	POST /v1/ticks                   {"seconds":5} advance simulated time
//	GET  /v1/stats                   per-city panels + totals (+ relay panel)
//	GET  /v1/params · POST /v1/params  settings (?city= / {"city":...,"algorithm":...})
//	GET  /v1/map                     ASCII fleet map (?city=&width=&height=&taxi=,
//	                                 each side at most 512)
//	GET  /v1/events                  SSE stream of tick pickups/dropoffs
//	GET  /v1/healthz                 liveness (also the legacy /healthz)
//	GET  /v1/readyz                  readiness (503 when the backend cannot take traffic)
//	GET  /metrics                    Prometheus text exposition (disable via Options)
//
// The bodies are the Service's own answer types, encoded as they are:
// core.RequestView (built by ServiceRecord.View), core.RelayView,
// core.VehicleItinerary, core.CityInfo, core.ServiceParams,
// core.SurgeView, core.ServiceEvent and core.Readiness each carry the
// JSON tags of their resource, so this package declares only the
// request bodies it decodes. TestV1GoldenBodies pins every body byte
// for byte.
//
// Every response carries an X-Request-ID header — echoed from the
// request when the client sent one, minted otherwise — and requests
// slower than Options.SlowRequest log one structured line with the id
// and the backend's per-stage timing breakdown (see middleware.go).
//
// Mutating endpoints accept POST only and answer anything else with
// 405 plus an Allow header. Every error is a structured envelope
//
//	{"error":{"code":"cross_city","message":"...","origin":"east","dest":"west"}}
//
// with typed codes mapped by the core error table (core.ClassifyError):
// invalid_argument → 400, not_found/unknown_city → 404,
// method_not_allowed → 405, already_chosen → 409 (double-Choose),
// cross_city/no_city/unprocessable → 422, internal → 500,
// unavailable → 503.
//
// Handlers run on net/http's per-connection goroutines and call the
// backend directly: core.Service implementations are internally
// parallel, so concurrent requests do not serialise behind a global
// lock — request throughput scales with cores.
package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"ptrider/internal/core"
	"ptrider/internal/fleet"
	"ptrider/internal/render"
	"ptrider/internal/roadnet"
	"ptrider/internal/telemetry"
)

// Server wires a core.Service to an http.Handler.
type Server struct {
	svc  core.Service
	mux  *http.ServeMux
	hub  *eventHub
	opts Options

	// reg is the server-owned telemetry registry (HTTP route metrics,
	// SSE stream health); nil when Options.DisableMetrics is set.
	reg *telemetry.Registry
	// idBase + reqSeq mint X-Request-ID values for requests arriving
	// without one.
	idBase string
	reqSeq atomic.Uint64
}

// NewService returns a Server for any core.Service backend with the
// default observability options (metrics on, slow-request logging
// off).
func NewService(svc core.Service) *Server {
	return NewServiceWithOptions(svc, Options{})
}

// NewServiceWithOptions returns a Server with an explicit
// observability configuration.
func NewServiceWithOptions(svc core.Service, opts Options) *Server {
	s := &Server{
		svc: svc, mux: http.NewServeMux(), hub: newEventHub(), opts: opts,
		idBase: fmt.Sprintf("req-%08x", uint32(time.Now().UnixNano())),
	}
	if !opts.DisableMetrics {
		s.reg = telemetry.NewRegistry()
		s.reg.CounterFunc("ptrider_sse_dropped_total",
			"SSE events dropped because a subscriber's buffer was full.",
			func() float64 { return float64(s.hub.droppedCount()) })
		s.reg.GaugeFunc("ptrider_sse_subscribers",
			"Active /v1/events subscribers.",
			func() float64 { return float64(s.hub.subscriberCount()) })
		registerRuntime(s.reg)
	}

	// The /v1 resource surface.
	s.mux.HandleFunc("/v1/requests", s.handleRequests)
	s.mux.HandleFunc("/v1/requests/{id}", s.handleRequestByID)
	s.mux.HandleFunc("/v1/requests/{id}/choice", s.handleChoice)
	s.mux.HandleFunc("/v1/requests/{id}/decline", s.handleDeclineByID)
	s.mux.HandleFunc("/v1/vehicles", s.handleVehiclesV1)
	s.mux.HandleFunc("/v1/vehicles/{id}", s.handleVehicleByID)
	s.mux.HandleFunc("/v1/cities", s.handleCities)
	s.mux.HandleFunc("/v1/relay/{id}", s.handleRelayByID)
	s.mux.HandleFunc("/v1/ticks", s.handleTicks)
	s.mux.HandleFunc("/v1/stats", s.handleStatsV1)
	s.mux.HandleFunc("/v1/params", s.handleParams)
	s.mux.HandleFunc("/v1/surge", s.handleSurgeV1)
	s.mux.HandleFunc("/v1/map", s.handleMap)
	s.mux.HandleFunc("/v1/events", s.handleEvents)

	s.mux.HandleFunc("/v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("/v1/readyz", s.handleReadyz)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	if s.reg != nil {
		s.mux.HandleFunc("/metrics", s.handleMetrics)
	}
	return s
}

// Handler returns the HTTP handler: the route mux behind the
// observability middleware (request correlation, route metrics,
// slow-request logging).
func (s *Server) Handler() http.Handler { return s.instrument(s.mux) }

// handleHealthz serves GET /v1/healthz (and the legacy /healthz):
// liveness — the process answers, nothing about the backend.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodGet) {
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// readier is implemented by backends that can report readiness as a
// whole but not per city (core.Engine answers for its durability layer
// both ways).
type readier interface {
	Ready() error
}

// cityReadier is implemented by backends that can break readiness down
// per city — the coordinator asks every backend, so a gateway reports
// which shards are unreachable or unready, a router and an engine
// their cities' durability layers.
type cityReadier interface {
	ReadyCities() []core.CityReadiness
}

// handleReadyz serves GET /v1/readyz: readiness — 503 with a JSON body
// naming each unready city (an unreachable shard, a wedged WAL) when
// the backend cannot take traffic.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodGet) {
		return
	}
	if cr, ok := s.svc.(cityReadier); ok {
		body := core.Readiness{Status: "ready", Cities: cr.ReadyCities()}
		status := http.StatusOK
		for _, c := range body.Cities {
			if !c.Ready {
				body.Status = "unready"
				status = http.StatusServiceUnavailable
				break
			}
		}
		writeJSON(w, status, body)
		return
	}
	if rd, ok := s.svc.(readier); ok {
		if err := rd.Ready(); err != nil {
			writeCode(w, http.StatusServiceUnavailable, "unready", err.Error())
			return
		}
	}
	writeJSON(w, http.StatusOK, core.Readiness{Status: "ready"})
}

// Tick advances the backend's simulated time and feeds the movement
// events to the /v1/events stream — the entry point for realtime
// drivers (cmd/ptrider-server -realtime), equivalent to POST /v1/ticks.
func (s *Server) Tick(seconds float64) error {
	_, _, err := s.tick(seconds)
	return err
}

func (s *Server) tick(seconds float64) (clock float64, events []core.ServiceEvent, err error) {
	events, err = s.svc.Advance(seconds)
	if err != nil {
		return 0, nil, err
	}
	s.publishEvents(events)
	return s.svc.Clock(), events, nil
}

// ---------------------------------------------------------------------------
// Envelope and helpers

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// etagOf derives a strong ETag from a rendered response body.
func etagOf(body []byte) string {
	sum := sha256.Sum256(body)
	return `"` + hex.EncodeToString(sum[:8]) + `"`
}

// ifNoneMatchHas reports whether an If-None-Match header names tag
// (weak comparison — a W/ prefix on a listed tag still matches).
func ifNoneMatchHas(header, tag string) bool {
	if strings.TrimSpace(header) == "*" {
		return true
	}
	for _, part := range strings.Split(header, ",") {
		if strings.TrimPrefix(strings.TrimSpace(part), "W/") == tag {
			return true
		}
	}
	return false
}

// writeCached emits a body with a content-derived ETag and answers
// 304 Not Modified when the request's If-None-Match already names it,
// so an HTTP cache can revalidate the per-city GETs for free.
func writeCached(w http.ResponseWriter, r *http.Request, contentType string, body []byte) {
	tag := etagOf(body)
	w.Header().Set("ETag", tag)
	if m := r.Header.Get("If-None-Match"); m != "" && ifNoneMatchHas(m, tag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", contentType)
	w.Write(body)
}

// writeJSONCached renders v once and serves it through writeCached.
func writeJSONCached(w http.ResponseWriter, r *http.Request, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		writeCode(w, http.StatusInternalServerError, "internal", err.Error())
		return
	}
	writeCached(w, r, "application/json", append(body, '\n'))
}

func writeEnvelope(w http.ResponseWriter, status int, p core.ErrorPayload) {
	writeJSON(w, status, map[string]core.ErrorPayload{"error": p})
}

// writeCode emits an envelope with an explicit status and code.
func writeCode(w http.ResponseWriter, status int, code, message string) {
	writeEnvelope(w, status, core.ErrorPayload{Code: code, Message: message})
}

// writeErr classifies err through the core error table with a 422
// fallback — the business-rule default of the request surface.
func writeErr(w http.ResponseWriter, err error) {
	status, p := core.ClassifyError(err, http.StatusUnprocessableEntity)
	writeEnvelope(w, status, p)
}

// MaxBodyBytes bounds every request body on the /v1 and /rpc surfaces.
// The largest legitimate body is a submit batch, about 160 bytes a
// rider: 1 MiB is some 400 sixteen-rider batches.
const MaxBodyBytes = 1 << 20

// BodyErrorStatus is the status of a body that could not be read or
// parsed (code invalid_argument either way): 413 when it was cut off at
// MaxBodyBytes, 400 otherwise.
func BodyErrorStatus(err error) int {
	if tooLarge := (*http.MaxBytesError)(nil); errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

func writeBodyErr(w http.ResponseWriter, err error) {
	writeCode(w, BodyErrorStatus(err), "invalid_argument", err.Error())
}

// allow enforces strict method checking: a mismatch answers 405 with
// the Allow header naming the supported methods.
func allow(w http.ResponseWriter, r *http.Request, methods ...string) bool {
	for _, m := range methods {
		if r.Method == m {
			return true
		}
	}
	w.Header().Set("Allow", strings.Join(methods, ", "))
	writeCode(w, http.StatusMethodNotAllowed, "method_not_allowed",
		fmt.Sprintf("use %s", strings.Join(methods, " or ")))
	return false
}

func decode(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func decodeBytes(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// pathID parses the {id} path segment of a request resource.
func pathID(r *http.Request) (core.RequestID, error) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad id")
	}
	return core.RequestID(id), nil
}

// ---------------------------------------------------------------------------
// Request submission

// RequestBody is the wire form of one request submission (single or
// batch item): either [city +] s/d vertices or ox/oy → dx/dy
// coordinates, plus the optional per-rider constraint overrides. The
// server decodes it, and a shard client encodes it with NewRequestBody.
type RequestBody struct {
	City string `json:"city,omitempty"`
	S    *int32 `json:"s,omitempty"`
	D    *int32 `json:"d,omitempty"`

	OX *float64 `json:"ox,omitempty"`
	OY *float64 `json:"oy,omitempty"`
	DX *float64 `json:"dx,omitempty"`
	DY *float64 `json:"dy,omitempty"`

	Riders           int      `json:"riders"`
	WaitSeconds      float64  `json:"wait_seconds,omitempty"`
	Sigma            *float64 `json:"sigma,omitempty"`
	MaxPickupSeconds float64  `json:"max_pickup_seconds,omitempty"`
}

// BatchBody is the wire form of a batch submission.
type BatchBody struct {
	Requests []RequestBody `json:"requests"`
}

// NewRequestBody is spec's inverse: the body that decodes to spec's
// addressing, riders and constraints (the callback, key and context do
// not travel in a body). Sigma is always sent, because 0 is an override (no
// detour) and the default is negative.
func NewRequestBody(spec core.SubmitSpec) RequestBody {
	b := RequestBody{
		City: spec.City, Riders: spec.Riders,
		WaitSeconds:      spec.Constraints.WaitSeconds,
		Sigma:            &spec.Constraints.Sigma,
		MaxPickupSeconds: spec.Constraints.MaxPickupSeconds,
	}
	if spec.ByCoords {
		b.OX, b.OY, b.DX, b.DY = &spec.Origin.X, &spec.Origin.Y, &spec.Dest.X, &spec.Dest.Y
	} else {
		b.S, b.D = &spec.S, &spec.D
	}
	return b
}

// spec converts the wire form into the Service addressing.
func (b *RequestBody) spec() (core.SubmitSpec, error) {
	cons := core.DefaultConstraints()
	cons.WaitSeconds = b.WaitSeconds
	if b.Sigma != nil {
		cons.Sigma = *b.Sigma
	}
	cons.MaxPickupSeconds = b.MaxPickupSeconds
	spec := core.SubmitSpec{City: b.City, Riders: b.Riders, Constraints: cons}
	switch {
	case b.OX != nil && b.OY != nil && b.DX != nil && b.DY != nil:
		spec.ByCoords = true
		spec.Origin.X, spec.Origin.Y = *b.OX, *b.OY
		spec.Dest.X, spec.Dest.Y = *b.DX, *b.DY
	case b.S != nil && b.D != nil:
		spec.S, spec.D = roadnet.VertexID(*b.S), roadnet.VertexID(*b.D)
	default:
		return spec, fmt.Errorf("give either [city+]s+d or ox/oy/dx/dy")
	}
	return spec, nil
}

// submitOne submits a single request. The Idempotency-Key request
// header (may be empty) makes retries of the same submission safe:
// the backend answers a repeat of an already-registered key with the
// original record instead of quoting a second request. The request's
// context rides along: a rider who hangs up abandons the quote, and the
// context's telemetry span puts the backend's stage timings on the
// slow-request log and, when the backend recorded any, in the answer's
// Server-Timing header.
func (s *Server) submitOne(w http.ResponseWriter, r *http.Request, spec core.SubmitSpec) {
	spec.IdemKey = r.Header.Get("Idempotency-Key")
	spec.Ctx = r.Context()
	rec, err := s.svc.SubmitRequest(spec)
	if st := telemetry.SpanFrom(spec.Ctx).ServerTiming(); st != "" {
		w.Header().Set("Server-Timing", st)
	}
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, rec.View())
}

// handleRequests serves /v1/requests. POST submits one request, or a
// batch under a "requests" key — batch answers carry one view per item
// in order (null for failed items) plus the first error's envelope.
// GET lists the ledger with ?city=, ?status=, ?limit= and ?offset=.
func (s *Server) handleRequests(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodGet, http.MethodPost) {
		return
	}
	if r.Method == http.MethodGet {
		s.handleRequestList(w, r)
		return
	}
	raw, err := io.ReadAll(r.Body)
	if err != nil {
		writeBodyErr(w, err)
		return
	}
	specs, batch, err := decodeSubmission(raw)
	switch {
	case err != nil:
		writeCode(w, http.StatusBadRequest, "invalid_argument", err.Error())
	case batch:
		s.submitBatch(w, r, specs)
	default:
		s.submitOne(w, r, specs[0])
	}
}

// decodeSubmission parses a POST /v1/requests body: one RequestBody, or
// a BatchBody when the body has a "requests" key. Unknown fields and
// bodies that name no complete addressing are refused.
func decodeSubmission(raw []byte) (specs []core.SubmitSpec, batch bool, err error) {
	var probe struct {
		Requests []json.RawMessage `json:"requests"`
	}
	if json.Unmarshal(raw, &probe) == nil && probe.Requests != nil {
		var b BatchBody
		if err := decodeBytes(raw, &b); err != nil {
			return nil, true, err
		}
		specs = make([]core.SubmitSpec, len(b.Requests))
		for i := range b.Requests {
			if specs[i], err = b.Requests[i].spec(); err != nil {
				return nil, true, fmt.Errorf("batch item %d: %v", i, err)
			}
		}
		return specs, true, nil
	}
	var body RequestBody
	if err := decodeBytes(raw, &body); err != nil {
		return nil, false, err
	}
	spec, err := body.spec()
	if err != nil {
		return nil, false, err
	}
	return []core.SubmitSpec{spec}, false, nil
}

// handleRequestList serves GET /v1/requests: the request ledger, id
// ascending, with the vehicles-style pagination (the backend takes a
// head limit, so the page is cut handler-side) plus ?status= lifecycle
// and ?city= filters. On multi-city backends an empty city merges
// every city's ledger; relay trips are not listed (GET /v1/relay/{id}
// is their surface).
func (s *Server) handleRequestList(w http.ResponseWriter, r *http.Request) {
	limit, err := limitQuery(r)
	if err != nil {
		writeCode(w, http.StatusBadRequest, "invalid_argument", err.Error())
		return
	}
	offset, err := offsetQuery(r)
	if err != nil {
		writeCode(w, http.StatusBadRequest, "invalid_argument", err.Error())
		return
	}
	var filter core.RequestFilter
	if q := r.URL.Query().Get("status"); q != "" {
		st, err := core.ParseRequestStatus(q)
		if err != nil {
			writeErr(w, err)
			return
		}
		filter = core.RequestFilter{Status: st, HasStatus: true}
	}
	fetch := 0
	if limit > 0 {
		fetch = offset + limit
	}
	city := r.URL.Query().Get("city")
	recs, err := s.svc.Requests(city, filter, fetch)
	if err != nil {
		writeErr(w, err)
		return
	}
	if offset > len(recs) {
		offset = len(recs)
	}
	recs = recs[offset:]
	views := make([]core.RequestView, len(recs)) // non-nil: empty pages serialise as []
	for i, rec := range recs {
		views[i] = rec.View()
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"city": city, "offset": offset, "count": len(views), "requests": views,
	})
}

// submitBatch submits a batch under the request's context, as
// submitOne does.
func (s *Server) submitBatch(w http.ResponseWriter, r *http.Request, specs []core.SubmitSpec) {
	for i := range specs {
		specs[i].Ctx = r.Context()
	}
	recs, err := s.svc.SubmitRequestBatch(specs)
	views := make([]*core.RequestView, len(recs))
	for i, rec := range recs {
		if rec != nil {
			rv := rec.View()
			views[i] = &rv
		}
	}
	out := map[string]any{"requests": views}
	if err != nil {
		_, out["error"] = core.ClassifyError(err, http.StatusUnprocessableEntity)
	}
	writeJSON(w, http.StatusOK, out)
}

// handleRequestByID serves GET /v1/requests/{id}.
func (s *Server) handleRequestByID(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodGet) {
		return
	}
	id, err := pathID(r)
	if err != nil {
		writeCode(w, http.StatusBadRequest, "invalid_argument", err.Error())
		return
	}
	rec, err := s.svc.GetRequest(id)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, rec.View())
}

// handleChoice serves POST /v1/requests/{id}/choice.
func (s *Server) handleChoice(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodPost) {
		return
	}
	id, err := pathID(r)
	if err != nil {
		writeCode(w, http.StatusBadRequest, "invalid_argument", err.Error())
		return
	}
	var body struct {
		Option int `json:"option"`
	}
	if err := decode(r, &body); err != nil {
		writeBodyErr(w, err)
		return
	}
	if err := s.svc.Choose(id, body.Option); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": id, "status": "assigned"})
}

// handleDeclineByID serves POST /v1/requests/{id}/decline (no body).
func (s *Server) handleDeclineByID(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodPost) {
		return
	}
	id, err := pathID(r)
	if err != nil {
		writeCode(w, http.StatusBadRequest, "invalid_argument", err.Error())
		return
	}
	if err := s.svc.Decline(id); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": id, "status": "declined"})
}

// ---------------------------------------------------------------------------
// Fleet, cities, stats, params, ticks

// limitQuery parses the optional ?limit= parameter.
func limitQuery(r *http.Request) (int, error) {
	q := r.URL.Query().Get("limit")
	if q == "" {
		return 0, nil
	}
	limit, err := strconv.Atoi(q)
	if err != nil || limit < 0 {
		return 0, fmt.Errorf("bad limit")
	}
	return limit, nil
}

// offsetQuery parses the optional ?offset= parameter.
func offsetQuery(r *http.Request) (int, error) {
	q := r.URL.Query().Get("offset")
	if q == "" {
		return 0, nil
	}
	off, err := strconv.Atoi(q)
	if err != nil || off < 0 {
		return 0, fmt.Errorf("bad offset")
	}
	return off, nil
}

// cityOfQuery normalises the ?city= parameter: empty means the
// backend's only city, which is resolved to its name for the views.
func (s *Server) cityOfQuery(r *http.Request) string {
	city := r.URL.Query().Get("city")
	if city == "" {
		if cities := s.svc.Cities(); len(cities) == 1 {
			return cities[0].Name
		}
	}
	return city
}

// handleVehiclesV1 serves GET /v1/vehicles with ?city=, ?limit= and
// ?offset= pagination. The backend's Vehicles verb only takes a head
// limit, so the page is cut handler-side: fetch offset+limit views and
// slice off the skipped prefix.
func (s *Server) handleVehiclesV1(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodGet) {
		return
	}
	limit, err := limitQuery(r)
	if err != nil {
		writeCode(w, http.StatusBadRequest, "invalid_argument", err.Error())
		return
	}
	offset, err := offsetQuery(r)
	if err != nil {
		writeCode(w, http.StatusBadRequest, "invalid_argument", err.Error())
		return
	}
	fetch := 0
	if limit > 0 {
		fetch = offset + limit
	}
	city := s.cityOfQuery(r)
	views, err := s.svc.Vehicles(city, fetch)
	if err != nil {
		writeErr(w, err)
		return
	}
	if offset > len(views) {
		offset = len(views)
	}
	views = views[offset:]
	writeJSON(w, http.StatusOK, map[string]any{
		"city": city, "offset": offset, "count": len(views), "vehicles": views,
	})
}

// handleVehicleByID serves GET /v1/vehicles/{id}: the vehicle's
// location and kinetic-tree schedule branches.
func (s *Server) handleVehicleByID(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodGet) {
		return
	}
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 32)
	if err != nil {
		writeCode(w, http.StatusBadRequest, "invalid_argument", "bad id")
		return
	}
	it, err := s.svc.VehicleItinerary(s.cityOfQuery(r), fleet.VehicleID(id))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, it)
}

// handleCities serves GET /v1/cities.
func (s *Server) handleCities(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodGet) {
		return
	}
	writeJSONCached(w, r, s.svc.Cities())
}

// handleRelayByID serves GET /v1/relay/{id}; positive ids are accepted
// as shorthand for their negation (the router's relay namespace).
func (s *Server) handleRelayByID(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodGet) {
		return
	}
	id, err := pathID(r)
	if err != nil {
		writeCode(w, http.StatusBadRequest, "invalid_argument", err.Error())
		return
	}
	if id > 0 {
		id = -id
	}
	rv, err := s.svc.RelayItinerary(id)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, rv)
}

// handleTicks serves POST /v1/ticks: simulated time
// advances, movement events return (and feed the /v1/events stream).
func (s *Server) handleTicks(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodPost) {
		return
	}
	var body struct {
		Seconds float64 `json:"seconds"`
	}
	if err := decode(r, &body); err != nil {
		writeBodyErr(w, err)
		return
	}
	clock, events, err := s.tick(body.Seconds)
	if err != nil {
		// Invalid caller input (a negative duration, say) is the
		// caller's fault; anything else is an internal movement failure.
		status, p := core.ClassifyError(err, http.StatusInternalServerError)
		writeEnvelope(w, status, p)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"clock": clock, "events": events})
}

// handleStatsV1 serves GET /v1/stats: per-city panels plus aggregate
// totals, the relay panel when enabled, and the server's own stream
// health (SSE subscriber count and drop-on-slow-subscriber total).
func (s *Server) handleStatsV1(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodGet) {
		return
	}
	out := statsPayload(s.svc.ServiceStats())
	out["server"] = map[string]any{
		"sse_subscribers": s.hub.subscriberCount(),
		"sse_dropped":     s.hub.droppedCount(),
	}
	writeJSON(w, http.StatusOK, out)
}

func statsPayload(st core.ServiceStats) map[string]any {
	out := map[string]any{"total": st.Total, "cities": st.Cities}
	if st.RelayEnabled {
		out["relay"] = st.Relay
	}
	return out
}

// handleParams serves GET/POST /v1/params.
func (s *Server) handleParams(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodGet, http.MethodPost) {
		return
	}
	if r.Method == http.MethodGet {
		params, err := s.svc.Params(r.URL.Query().Get("city"))
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSONCached(w, r, params)
		return
	}
	var body struct {
		City      string `json:"city,omitempty"`
		Algorithm string `json:"algorithm"`
	}
	if err := decode(r, &body); err != nil {
		writeBodyErr(w, err)
		return
	}
	algo, err := core.ParseAlgorithm(body.Algorithm)
	if err != nil {
		writeErr(w, err)
		return
	}
	if err := s.svc.SetCityAlgorithm(body.City, algo); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"city": body.City, "algorithm": algo.String()})
}

// handleSurgeV1 serves GET /v1/surge: the city's surge epoch plus the
// per-cell multipliers currently above 1× (quiet cells are elided —
// the grid can be large and almost everywhere is at base fare).
func (s *Server) handleSurgeV1(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodGet) {
		return
	}
	v, err := s.svc.Surge(s.cityOfQuery(r))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// maxMapSide bounds each side of a /v1/map raster, 7× the default
// width: the renderer allocates ~12 B a cell, so the largest map is
// ~3 MB rather than whatever a query string asks for.
const maxMapSide = 512

// mapSide parses one optional map dimension (def when absent); anything
// but an integer in [1, maxMapSide] is a caller error.
func mapSide(r *http.Request, key string, def int) (int, error) {
	q := r.URL.Query().Get(key)
	if q == "" {
		return def, nil
	}
	v, err := strconv.Atoi(q)
	if err != nil || v < 1 || v > maxMapSide {
		return 0, fmt.Errorf("bad %s %q: want an integer in [1, %d]", key, q, maxMapSide)
	}
	return v, nil
}

// handleMap renders one city's fleet map as plain text (the website's
// map view, ASCII edition). Optional query parameters: city, width and
// height in characters (default 72×36, at most maxMapSide each) and
// taxi=<id> to overlay one vehicle's schedule stops.
func (s *Server) handleMap(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodGet) {
		return
	}
	city := s.cityOfQuery(r)
	g, err := s.svc.CityGraph(city)
	if err != nil {
		writeErr(w, err)
		return
	}
	width, err := mapSide(r, "width", 72)
	if err != nil {
		writeCode(w, http.StatusBadRequest, "invalid_argument", err.Error())
		return
	}
	height, err := mapSide(r, "height", 36)
	if err != nil {
		writeCode(w, http.StatusBadRequest, "invalid_argument", err.Error())
		return
	}
	m, err := render.NewMap(g, width, height)
	if err != nil {
		writeCode(w, http.StatusBadRequest, "invalid_argument", err.Error())
		return
	}
	views, err := s.svc.Vehicles(city, 0)
	if err != nil {
		writeErr(w, err)
		return
	}
	for _, v := range views {
		m.PlotVehicle(v.Location, v.Onboard > 0)
	}
	if q := r.URL.Query().Get("taxi"); q != "" {
		id, err := strconv.ParseInt(q, 10, 32)
		if err != nil {
			writeCode(w, http.StatusBadRequest, "invalid_argument", "bad taxi id")
			return
		}
		it, err := s.svc.VehicleItinerary(city, fleet.VehicleID(id))
		if err != nil {
			writeErr(w, err)
			return
		}
		var pickups, dropoffs []roadnet.VertexID
		for _, b := range it.Branches {
			for _, p := range b {
				if p.Kind == "pickup" {
					pickups = append(pickups, p.Vertex)
				} else {
					dropoffs = append(dropoffs, p.Vertex)
				}
			}
		}
		m.PlotSchedule(it.Location, pickups, dropoffs)
	}
	var buf bytes.Buffer
	fmt.Fprintln(&buf, m.String())
	fmt.Fprintln(&buf, render.Legend())
	writeCached(w, r, "text/plain; charset=utf-8", buf.Bytes())
}
