// shard.go is the server half of the shard RPC surface: an
// http.Handler wrapping one single-city core.Engine. The handler
// mounts the full /v1 API (so a shard is independently operable and
// debuggable — readyz, metrics, the map, the whole request surface)
// and adds the compact /rpc/* verbs the gateway's ShardClient speaks.
//
// /rpc answers core types — engine records (candidate-stripped),
// EngineStats, telemetry families, and the Service's own answers for
// a vehicle's schedules, the params panel and the surge panel (the same
// shapes /v1 encodes) — because its caller is the gateway reassembling
// a core.Service. Immutable per-city payloads (the road graph) are rendered
// once and served with an ETag so the client's cache can revalidate
// for free.
package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"ptrider/internal/core"
	"ptrider/internal/fleet"
	"ptrider/internal/roadnet"
	"ptrider/internal/server"
	"ptrider/internal/telemetry"
)

// ShardOptions tunes the shard handler.
type ShardOptions struct {
	// Server configures the embedded /v1 surface (metrics, slow-request
	// logging).
	Server server.Options
	// AfterChoose, when non-nil, runs after every successful engine
	// Choose on the RPC surface, before the HTTP response is written.
	// It exists for crash-window testing: cmd/ptrider-shard's
	// -test-crash-after-choose exits the process here, leaving the
	// commit journaled but unacknowledged — the ambiguity the gateway's
	// deferred compensation has to resolve.
	AfterChoose func()
}

// shardHandler serves one engine over /v1 + /rpc.
type shardHandler struct {
	eng  *core.Engine
	opts ShardOptions

	graphBody []byte // the road graph in the roadnet text codec
	graphETag string
}

// NewShardHandler wraps a single-city engine in the shard HTTP
// surface: the full /v1 API plus the /rpc verbs cluster.ShardClient
// speaks.
func NewShardHandler(eng *core.Engine, opts ShardOptions) http.Handler {
	h := &shardHandler{eng: eng, opts: opts}

	var buf bytes.Buffer
	if err := roadnet.WriteGraph(&buf, eng.Graph()); err == nil {
		h.graphBody = buf.Bytes()
		sum := sha256.Sum256(h.graphBody)
		h.graphETag = `"` + hex.EncodeToString(sum[:8]) + `"`
	}

	mux := http.NewServeMux()
	mux.HandleFunc("POST /rpc/submit", h.handleSubmit)
	mux.HandleFunc("POST /rpc/submit-batch", h.handleSubmitBatch)
	mux.HandleFunc("POST /rpc/choose", h.handleChoose)
	mux.HandleFunc("POST /rpc/decline", h.handleDecline)
	mux.HandleFunc("POST /rpc/cancel", h.handleCancel)
	mux.HandleFunc("GET /rpc/requests", h.handleRequests)
	mux.HandleFunc("GET /rpc/requests/{id}", h.handleRequestByID)
	mux.HandleFunc("POST /rpc/advance", h.handleAdvance)
	mux.HandleFunc("GET /rpc/clock", h.handleClock)
	mux.HandleFunc("GET /rpc/stats", h.handleStats)
	mux.HandleFunc("GET /rpc/meta", h.handleMeta)
	mux.HandleFunc("GET /rpc/graph", h.handleGraph)
	mux.HandleFunc("GET /rpc/params", h.handleParams)
	mux.HandleFunc("GET /rpc/surge", h.handleSurge)
	mux.HandleFunc("POST /rpc/algorithm", h.handleAlgorithm)
	mux.HandleFunc("GET /rpc/vehicles", h.handleVehicles)
	mux.HandleFunc("GET /rpc/vehicles/{id}", h.handleVehicleByID)
	mux.HandleFunc("GET /rpc/telemetry", h.handleTelemetry)
	// Everything else — /v1, /healthz, /metrics — is the standard
	// single-city server surface.
	mux.Handle("/", server.NewServiceWithOptions(eng, opts.Server).Handler())
	return mux
}

// rpcJSON writes a 200 JSON body.
func rpcJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are gone; nothing to do but drop the connection.
		return
	}
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
// classifying malformed payloads as invalid_argument (413 when the
// body was cut off at the limit).
func rpcDecode(w http.ResponseWriter, r *http.Request, v any) bool {
	body := http.MaxBytesReader(w, r.Body, server.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(v); err != nil {
		rpcEnvelope(w, server.BodyErrorStatus(err), core.ErrorPayload{
			Code:    "invalid_argument",
			Message: fmt.Sprintf("cluster: bad request body: %v: %v", err, core.ErrInvalidArgument),
		})
		return false
	}
	return true
}

func (h *shardHandler) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var in submitWire
	if !rpcDecode(w, r, &in) {
		return
	}
	rec, err := h.eng.SubmitIdem(in.S, in.D, in.Riders, in.Constraints, in.IdemKey)
	if err != nil {
		rpcErr(w, err)
		return
	}
	rpcJSON(w, sanitizeRecord(rec))
}

func (h *shardHandler) handleSubmitBatch(w http.ResponseWriter, r *http.Request) {
	var in batchWire
	if !rpcDecode(w, r, &in) {
		return
	}
	items := make([]core.BatchItem, len(in.Items))
	for i, it := range in.Items {
		items[i] = core.BatchItem{S: it.S, D: it.D, Riders: it.Riders, Constraints: it.Constraints}
	}
	recs, err := h.eng.SubmitBatch(items)
	out := batchReply{Records: make([]*core.RequestRecord, len(recs))}
	for i, rec := range recs {
		if rec != nil {
			out.Records[i] = sanitizeRecord(rec)
		}
	}
	if err != nil {
		_, p := core.ClassifyError(err, http.StatusUnprocessableEntity)
		out.Err = &p
	}
	rpcJSON(w, out)
}

func (h *shardHandler) handleChoose(w http.ResponseWriter, r *http.Request) {
	var in chooseWire
	if !rpcDecode(w, r, &in) {
		return
	}
	if err := h.eng.Choose(in.ID, in.Option); err != nil {
		rpcErr(w, err)
		return
	}
	if h.opts.AfterChoose != nil {
		h.opts.AfterChoose()
	}
	rpcJSON(w, struct{}{})
}

func (h *shardHandler) handleDecline(w http.ResponseWriter, r *http.Request) {
	var in idWire
	if !rpcDecode(w, r, &in) {
		return
	}
	if err := h.eng.Decline(in.ID); err != nil {
		rpcErr(w, err)
		return
	}
	rpcJSON(w, struct{}{})
}

func (h *shardHandler) handleCancel(w http.ResponseWriter, r *http.Request) {
	var in idWire
	if !rpcDecode(w, r, &in) {
		return
	}
	if err := h.eng.CancelAssigned(in.ID); err != nil {
		rpcErr(w, err)
		return
	}
	rpcJSON(w, struct{}{})
}

func (h *shardHandler) handleRequests(w http.ResponseWriter, r *http.Request) {
	var filter core.RequestFilter
	if s := r.URL.Query().Get("status"); s != "" {
		st, err := core.ParseRequestStatus(s)
		if err != nil {
			rpcErr(w, err)
			return
		}
		filter.Status, filter.HasStatus = st, true
	}
	limit := 0
	if s := r.URL.Query().Get("limit"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil {
			rpcErr(w, fmt.Errorf("cluster: bad limit %q: %w", s, core.ErrInvalidArgument))
			return
		}
		limit = n
	}
	recs, err := h.eng.Requests("", filter, limit)
	if err != nil {
		rpcErr(w, err)
		return
	}
	out := make([]*core.RequestRecord, len(recs))
	for i, rec := range recs {
		out[i] = sanitizeRecord(&rec.RequestRecord)
	}
	rpcJSON(w, out)
}

func (h *shardHandler) handleRequestByID(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		rpcErr(w, fmt.Errorf("cluster: bad request id: %w", core.ErrInvalidArgument))
		return
	}
	rec, err := h.eng.Request(core.RequestID(id))
	if err != nil {
		rpcErr(w, err)
		return
	}
	rpcJSON(w, sanitizeRecord(rec))
}

func (h *shardHandler) handleAdvance(w http.ResponseWriter, r *http.Request) {
	var in advanceWire
	if !rpcDecode(w, r, &in) {
		return
	}
	events, err := h.eng.Tick(in.Seconds)
	if err != nil {
		rpcErr(w, err)
		return
	}
	if events == nil {
		events = []fleet.Event{}
	}
	rpcJSON(w, advanceReply{Clock: h.eng.Clock(), Events: events})
}

func (h *shardHandler) handleClock(w http.ResponseWriter, r *http.Request) {
	rpcJSON(w, clockReply{Clock: h.eng.Clock()})
}

func (h *shardHandler) handleStats(w http.ResponseWriter, r *http.Request) {
	rpcJSON(w, h.eng.Stats())
}

func (h *shardHandler) handleMeta(w http.ResponseWriter, r *http.Request) {
	maxWait, maxPickup := h.eng.LegLimits()
	g := h.eng.Graph()
	rpcJSON(w, metaWire{
		City:             core.DefaultCityName,
		Vertices:         g.NumVertices(),
		Vehicles:         h.eng.NumVehicles(),
		Region:           g.Bounds(),
		Speed:            h.eng.Speed(),
		MaxWaitSeconds:   maxWait,
		MaxPickupSeconds: maxPickup,
	})
}

func (h *shardHandler) handleGraph(w http.ResponseWriter, r *http.Request) {
	if h.graphETag != "" {
		w.Header().Set("ETag", h.graphETag)
		if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatch(inm, h.graphETag) {
			w.WriteHeader(http.StatusNotModified)
			return
		}
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write(h.graphBody)
}

// etagMatch implements the weak If-None-Match comparison over a
// comma-separated candidate list.
func etagMatch(header, etag string) bool {
	for _, c := range bytes.Split([]byte(header), []byte(",")) {
		cand := string(bytes.TrimSpace(c))
		cand = trimWeak(cand)
		if cand == "*" || cand == trimWeak(etag) {
			return true
		}
	}
	return false
}

func trimWeak(tag string) string {
	if len(tag) > 2 && tag[0] == 'W' && tag[1] == '/' {
		return tag[2:]
	}
	return tag
}

func (h *shardHandler) handleParams(w http.ResponseWriter, r *http.Request) {
	p, err := h.eng.Params("")
	if err != nil {
		rpcErr(w, err)
		return
	}
	rpcJSON(w, p)
}

func (h *shardHandler) handleSurge(w http.ResponseWriter, r *http.Request) {
	v, err := h.eng.Surge("")
	if err != nil {
		rpcErr(w, err)
		return
	}
	rpcJSON(w, v)
}

func (h *shardHandler) handleAlgorithm(w http.ResponseWriter, r *http.Request) {
	var in algoWire
	if !rpcDecode(w, r, &in) {
		return
	}
	algo, err := core.ParseAlgorithm(in.Algorithm)
	if err != nil {
		rpcErr(w, fmt.Errorf("%v: %w", err, core.ErrInvalidArgument))
		return
	}
	if err := h.eng.SetAlgorithm(algo); err != nil {
		rpcErr(w, err)
		return
	}
	rpcJSON(w, struct{}{})
}

func (h *shardHandler) handleVehicles(w http.ResponseWriter, r *http.Request) {
	limit := 0
	if s := r.URL.Query().Get("limit"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil {
			rpcErr(w, fmt.Errorf("cluster: bad limit %q: %w", s, core.ErrInvalidArgument))
			return
		}
		limit = n
	}
	views := h.eng.VehicleViews(limit)
	if views == nil {
		views = []core.VehicleView{}
	}
	rpcJSON(w, views)
}

func (h *shardHandler) handleVehicleByID(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		rpcErr(w, fmt.Errorf("cluster: bad vehicle id: %w", core.ErrInvalidArgument))
		return
	}
	it, err := h.eng.VehicleItinerary("", fleet.VehicleID(id))
	if err != nil {
		rpcErr(w, err)
		return
	}
	rpcJSON(w, it)
}

func (h *shardHandler) handleTelemetry(w http.ResponseWriter, r *http.Request) {
	fams := h.eng.MetricFamilies()
	if fams == nil {
		fams = []telemetry.Family{}
	}
	rpcJSON(w, fams)
}
