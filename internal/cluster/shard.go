// shard.go is the server half of the shard surface: an http.Handler
// wrapping one single-city core.Engine. The handler mounts the full /v1
// API — the one dialect a gateway's ShardClient speaks for every verb
// /v1 has, and what makes a shard independently operable and
// debuggable (readyz, metrics, the map, the whole request surface) —
// plus five /rpc verbs for what a coordinator needs and /v1 lacks:
//
//	GET  /rpc/meta       the city description (size, region, speed, limits)
//	GET  /rpc/graph      the road network in the roadnet text codec
//	GET  /rpc/clock      the simulated clock
//	POST /rpc/cancel     {"id":N} release an assigned request (relay compensation)
//	GET  /rpc/telemetry  the engine's gathered metric families
//
// The /rpc verbs answer core types, bypass the /v1 middleware and share
// its error envelope and body limit.
package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"

	"ptrider/internal/core"
	"ptrider/internal/roadnet"
	"ptrider/internal/server"
	"ptrider/internal/telemetry"
)

// ShardOptions tunes the shard handler.
type ShardOptions struct {
	// Server configures the embedded /v1 surface (metrics, slow-request
	// logging).
	Server server.Options
	// AfterChoose, when non-nil, runs after every successful choice on
	// POST /v1/requests/{id}/choice, before the response is written. It
	// exists for crash-window testing: cmd/ptrider-shard's
	// -test-crash-after-choose exits the process here, leaving the
	// commit journaled but unacknowledged — the ambiguity the gateway's
	// deferred compensation has to resolve.
	AfterChoose func()
}

// chooseHook is the engine with ShardOptions.AfterChoose run after each
// successful Choose; every other method is the engine's own.
type chooseHook struct {
	*core.Engine
	after func()
}

func (e chooseHook) Choose(id core.RequestID, optionIndex int) error {
	err := e.Engine.Choose(id, optionIndex)
	if err == nil {
		e.after()
	}
	return err
}

// NewShardHandler wraps a single-city engine in the shard HTTP
// surface: the full /v1 API plus the /rpc verbs /v1 lacks.
func NewShardHandler(eng *core.Engine, opts ShardOptions) http.Handler {
	var graph bytes.Buffer
	graphErr := roadnet.WriteGraph(&graph, eng.Graph())

	mux := http.NewServeMux()
	mux.HandleFunc("GET /rpc/meta", func(w http.ResponseWriter, r *http.Request) {
		maxWait, maxPickup := eng.LegLimits()
		g := eng.Graph()
		rpcJSON(w, metaWire{
			City:             core.DefaultCityName,
			Vertices:         g.NumVertices(),
			Vehicles:         eng.NumVehicles(),
			Region:           g.Bounds(),
			Speed:            eng.Speed(),
			MaxWaitSeconds:   maxWait,
			MaxPickupSeconds: maxPickup,
		})
	})
	mux.HandleFunc("GET /rpc/graph", func(w http.ResponseWriter, r *http.Request) {
		if graphErr != nil {
			rpcErr(w, graphErr)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write(graph.Bytes())
	})
	mux.HandleFunc("GET /rpc/clock", func(w http.ResponseWriter, r *http.Request) {
		rpcJSON(w, clockReply{Clock: eng.Clock()})
	})
	mux.HandleFunc("POST /rpc/cancel", func(w http.ResponseWriter, r *http.Request) {
		var in idWire
		if !rpcDecode(w, r, &in) {
			return
		}
		if err := eng.CancelAssigned(in.ID); err != nil {
			rpcErr(w, err)
			return
		}
		rpcJSON(w, struct{}{})
	})
	mux.HandleFunc("GET /rpc/telemetry", func(w http.ResponseWriter, r *http.Request) {
		fams := eng.MetricFamilies()
		if fams == nil {
			fams = []telemetry.Family{}
		}
		rpcJSON(w, fams)
	})

	// Everything else — /v1, /healthz, /metrics — is the standard
	// single-city server surface.
	var svc core.Service = eng
	if opts.AfterChoose != nil {
		svc = chooseHook{eng, opts.AfterChoose}
	}
	mux.Handle("/", server.NewServiceWithOptions(svc, opts.Server).Handler())
	return mux
}

// rpcJSON writes a 200 JSON body.
func rpcJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	// An encode failure after the header is gone can only drop the
	// connection.
	_ = json.NewEncoder(w).Encode(v)
}

// rpcErr writes the error envelope with the /v1 classification.
func rpcErr(w http.ResponseWriter, err error) {
	status, p := core.ClassifyError(err, http.StatusUnprocessableEntity)
	rpcEnvelope(w, status, p)
}

func rpcEnvelope(w http.ResponseWriter, status int, p core.ErrorPayload) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(wireEnvelope{Error: p})
}

// rpcDecode parses a JSON request body of at most server.MaxBodyBytes,
// refusing unknown fields as the /v1 decoders do, and classifies
// malformed payloads as invalid_argument (413 when the body was cut off
// at the limit).
func rpcDecode(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, server.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		rpcEnvelope(w, server.BodyErrorStatus(err), core.ErrorPayload{
			Code:    "invalid_argument",
			Message: fmt.Sprintf("cluster: bad request body: %v: %v", err, core.ErrInvalidArgument),
		})
		return false
	}
	return true
}
