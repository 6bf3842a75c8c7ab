// client.go is the gateway's half of the shard surface: a pooled HTTP
// client around one remote city shard. It speaks the shard's /v1 API —
// the bodies, handlers and middleware every /v1 caller meets — for each
// verb /v1 has, and /rpc only for the five a coordinator needs that /v1
// lacks (see shard.go). A ShardClient is a one-city core.Service and a
// multicity.CityBackend — the same method set *core.Engine offers the
// coordinator, relay.LegEngine included — so routing, aggregation and
// the relay scheduler's probe/commit/compensate protocol run over real
// sockets unchanged. Request answers arrive as core.RequestViews and
// become records again through RequestView.Record. Methods whose engine
// signature has no error result degrade instead: see Clock,
// ServiceStats, Cities and MetricFamilies.
//
// A call under a context that carries a telemetry span (a gateway
// submit's) adds its round trip to that span as wire plus the stages
// the shard's Server-Timing header reports (see observeHop), and the
// span's first round trip adds gateway_queue, the time the request
// spent in the gateway before it, so the gateway's slow-request line
// and its own Server-Timing split the hop.
//
// Failure discipline:
//
//   - Transport failures — dial errors, per-call deadline expiry, a
//     connection dying mid-response, 5xx bodies that are not the error
//     envelope — surface as core.ErrUnavailable.
//   - Idempotent calls (reads, and submits carrying a generated
//     Idempotency-Key) retry with bounded exponential backoff before
//     giving up.
//   - Commit-like calls (choose, decline, cancel) are not blindly
//     retried: a transport failure leaves them ambiguous — the shard
//     may have journaled the mutation before dying. The client
//     resolves the ambiguity by re-reading the record: if the
//     mutation's outcome is visible the call succeeded; if the record
//     is untouched one retry is safe; otherwise the ambiguity is
//     surfaced as ErrUnavailable for the caller (the relay scheduler's
//     deferred compensation) to resolve later.
//   - Advance is never retried: double-ticking a shard would skew its
//     clock against the fleet.
//
// Immutable per-city data — the road graph, the speed and quoting
// limits — is fetched once at dial time; slowly-changing data (params,
// the fleet-size meta) sits behind a small TTL cache.
package cluster

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"strings"
	"sync"
	"time"

	"ptrider/internal/core"
	"ptrider/internal/fleet"
	"ptrider/internal/geo"
	"ptrider/internal/roadnet"
	"ptrider/internal/server"
	"ptrider/internal/telemetry"
)

// ClientConfig tunes a ShardClient. The zero value means defaults.
type ClientConfig struct {
	// Timeout is the per-call deadline (0 = 5s).
	Timeout time.Duration
	// DialTimeout bounds the startup readiness wait: Dial polls the
	// shard's /v1/readyz until it answers 200 or this elapses (0 = 10s).
	DialTimeout time.Duration
	// Retries is how many times an idempotent call is retried after a
	// transport failure (0 = 3; negative = none).
	Retries int
	// RetryBackoff is the first retry's backoff, doubling per attempt
	// (0 = 50ms).
	RetryBackoff time.Duration
	// CacheTTL bounds the params/meta cache staleness (0 = 2s).
	CacheTTL time.Duration
	// Registry, when non-nil, receives the per-shard RPC telemetry:
	// cluster_rpc_seconds (latency), cluster_rpc_errors_total,
	// cluster_rpc_retries_total, labeled shard=<addr>.
	Registry *telemetry.Registry
}

func (c ClientConfig) withDefaults() ClientConfig {
	if c.Timeout == 0 {
		c.Timeout = 5 * time.Second
	}
	if c.DialTimeout == 0 {
		c.DialTimeout = 10 * time.Second
	}
	if c.Retries == 0 {
		c.Retries = 3
	} else if c.Retries < 0 {
		c.Retries = 0
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = 50 * time.Millisecond
	}
	if c.CacheTTL == 0 {
		c.CacheTTL = 2 * time.Second
	}
	return c
}

// cached is one TTL cache slot.
type cached[T any] struct {
	val T
	exp time.Time
}

// ShardClient speaks the shard surface for one remote city. It
// implements multicity.CityBackend; all methods are safe for concurrent
// use. The city arguments of its Service methods are ignored: a shard
// serves one city.
type ShardClient struct {
	addr string // normalised base URL
	hc   *http.Client
	cfg  ClientConfig

	// Dial-time city description, immutable but for meta.Vehicles
	// (guarded by mu; see Cities).
	meta  metaWire
	graph *roadnet.Graph

	mu          sync.Mutex
	vehiclesExp time.Time // when meta.Vehicles goes stale
	paramsCache cached[core.ServiceParams]

	rpcLat     *telemetry.LatencyHist
	rpcErrs    *telemetry.Counter
	rpcRetries *telemetry.Counter
}

var _ core.Service = (*ShardClient)(nil)

// Dial connects to a shard at addr ("host:port" or a full URL), waits
// for its readiness probe, and caches the immutable city description
// (meta, road graph).
func Dial(addr string, cfg ClientConfig) (*ShardClient, error) {
	cfg = cfg.withDefaults()
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimRight(base, "/")
	c := &ShardClient{
		addr: base,
		hc:   &http.Client{Transport: http.DefaultTransport.(*http.Transport).Clone()},
		cfg:  cfg,
		rpcLat: cfg.Registry.LatencyHist("cluster_rpc_seconds",
			"shard RPC round-trip latency", telemetry.Label{Name: "shard", Value: addr}),
		rpcErrs: cfg.Registry.Counter("cluster_rpc_errors_total",
			"shard RPC calls that failed after retries", telemetry.Label{Name: "shard", Value: addr}),
		rpcRetries: cfg.Registry.Counter("cluster_rpc_retries_total",
			"shard RPC transport retries", telemetry.Label{Name: "shard", Value: addr}),
	}

	// Startup health check: the shard may still be replaying its WAL
	// (or not listening yet); poll readiness until the dial deadline.
	deadline := time.Now().Add(cfg.DialTimeout)
	for wait := 2 * time.Millisecond; ; wait = min(2*wait, 100*time.Millisecond) {
		err := c.Ready()
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("cluster: shard %s not ready: %w", addr, err)
		}
		time.Sleep(wait)
	}

	if err := c.call(context.TODO(), http.MethodGet, "/rpc/meta", nil, nil, &c.meta, true); err != nil {
		return nil, fmt.Errorf("cluster: shard %s meta: %w", addr, err)
	}
	var body []byte
	if err := c.call(context.TODO(), http.MethodGet, "/rpc/graph", nil, nil, &body, true); err != nil {
		return nil, fmt.Errorf("cluster: shard %s graph: %w", addr, err)
	}
	g, err := roadnet.ReadGraph(bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("cluster: shard %s graph decode: %w", addr, err)
	}
	c.graph = g
	return c, nil
}

// Close releases the client's pooled connections.
func (c *ShardClient) Close() error {
	c.hc.CloseIdleConnections()
	return nil
}

// unavailable wraps a transport-level failure as core.ErrUnavailable.
func unavailable(format string, args ...any) error {
	return fmt.Errorf("cluster: "+format+": %w", append(args, core.ErrUnavailable)...)
}

// once performs one HTTP round trip under the caller's context, cut at
// the per-call deadline, and decodes the reply into out — a *[]byte
// takes the raw body. Failures below the envelope are ErrUnavailable;
// enveloped errors decode to their typed core error.
func (c *ShardClient) once(ctx context.Context, method, path string, hdr http.Header, body []byte, out any) error {
	ctx, cancel := context.WithTimeout(ctx, c.cfg.Timeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.addr+path, rd)
	if err != nil {
		return unavailable("%s %s: %v", method, path, err)
	}
	maps.Copy(req.Header, hdr)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	telemetry.SpanFrom(ctx).ObserveFirst("gateway_queue", start)
	resp, err := c.hc.Do(req)
	if err != nil {
		return unavailable("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return unavailable("%s %s: read: %v", method, path, err)
	}
	rtt := time.Since(start)
	c.rpcLat.Observe(rtt.Seconds())
	observeHop(telemetry.SpanFrom(ctx), rtt, resp.Header.Get("Server-Timing"))
	if resp.StatusCode != http.StatusOK {
		var env wireEnvelope
		if json.Unmarshal(data, &env) == nil && env.Error.Code != "" {
			return env.Error.Err()
		}
		return unavailable("%s %s: status %d", method, path, resp.StatusCode)
	}
	switch out := out.(type) {
	case nil:
	case *[]byte:
		*out = data
	default:
		if err := json.Unmarshal(data, out); err != nil {
			return unavailable("%s %s: decode: %v", method, path, err)
		}
	}
	return nil
}

// observeHop adds one round trip to the caller's span: wire, the part
// of it the shard's own stages do not account for, then each stage the
// shard reported in its Server-Timing header, named shard_<stage>.
func observeHop(sp *telemetry.Span, rtt time.Duration, serverTiming string) {
	if sp == nil {
		return
	}
	stages := telemetry.ParseServerTiming(serverTiming)
	wire := rtt.Seconds()
	for _, st := range stages {
		wire -= st.Seconds
	}
	sp.Observe("wire", max(wire, 0))
	for _, st := range stages {
		sp.Observe("shard_"+st.Name, st.Seconds)
	}
}

// call marshals in, performs the round trip, and — when idempotent —
// retries transport failures with exponential backoff while the
// caller's context lasts: no retry is sent for a caller who has gone.
func (c *ShardClient) call(ctx context.Context, method, path string, hdr http.Header, in, out any, idempotent bool) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return fmt.Errorf("cluster: %s %s: encode: %w", method, path, err)
		}
	}
	attempts := 1
	if idempotent {
		attempts += c.cfg.Retries
	}
	backoff := c.cfg.RetryBackoff
	var lastErr error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			select {
			case <-ctx.Done():
				c.rpcErrs.Inc()
				return lastErr
			case <-time.After(backoff):
			}
			c.rpcRetries.Inc()
			backoff *= 2
		}
		err := c.once(ctx, method, path, hdr, body, out)
		if err == nil {
			return nil
		}
		if !errors.Is(err, core.ErrUnavailable) {
			return err
		}
		lastErr = err
	}
	c.rpcErrs.Inc()
	return lastErr
}

// Ready probes the shard's /v1/readyz once (no retries — readiness
// polling is the caller's loop).
func (c *ShardClient) Ready() error {
	return c.once(context.TODO(), http.MethodGet, "/v1/readyz", nil, nil, nil)
}

// newIdemKey mints the idempotency key a submit reuses across its
// transport retries.
func newIdemKey() string {
	var b [12]byte
	if _, err := rand.Read(b[:]); err != nil {
		return ""
	}
	return "gw-" + hex.EncodeToString(b[:])
}

// record rebuilds the shard's answer as the record it was rendered
// from; a view the client cannot read back is a broken reply.
func (c *ShardClient) record(v *core.RequestView) (*core.ServiceRecord, error) {
	rec, err := v.Record(c.meta.Speed)
	if err != nil {
		return nil, unavailable("request %d: %v", v.ID, err)
	}
	return rec, nil
}

// --- relay.LegEngine ---

// CityGraph returns the dial-time road network snapshot.
func (c *ShardClient) CityGraph(string) (*roadnet.Graph, error) { return c.graph, nil }

// Speed returns the city's vehicle speed in metres per second.
func (c *ShardClient) Speed() float64 { return c.meta.Speed }

// LegLimits returns the city-global waiting-time and pick-up budgets.
func (c *ShardClient) LegLimits() (maxWait, maxPickup float64) {
	return c.meta.MaxWaitSeconds, c.meta.MaxPickupSeconds
}

// SubmitIdem quotes one request under the given idempotency key (""
// mints one). The key makes the retried POST safe: a replay answers
// with the original record.
func (c *ShardClient) SubmitIdem(s, d roadnet.VertexID, riders int, cons core.Constraints, idemKey string) (*core.RequestRecord, error) {
	rec, err := c.SubmitRequest(core.SubmitSpec{S: s, D: d, Riders: riders, Constraints: cons, IdemKey: idemKey})
	if err != nil {
		return nil, err
	}
	return &rec.RequestRecord, nil
}

// setRequestID carries the span of a submit's context as X-Request-ID,
// so the shard's slow-request line names the caller's request.
func setRequestID(ctx context.Context, hdr http.Header) {
	if sp := telemetry.SpanFrom(ctx); sp != nil {
		hdr.Set("X-Request-ID", sp.ID)
	}
}

// SubmitRequest quotes one request through POST /v1/requests under the
// spec's context. Its Idempotency-Key (spec.IdemKey, or one minted
// here) makes the retried POST safe.
func (c *ShardClient) SubmitRequest(spec core.SubmitSpec) (*core.ServiceRecord, error) {
	if spec.IdemKey == "" {
		spec.IdemKey = newIdemKey()
	}
	ctx := spec.Context()
	hdr := http.Header{}
	hdr.Set("Idempotency-Key", spec.IdemKey)
	setRequestID(ctx, hdr)
	var v core.RequestView
	if err := c.call(ctx, http.MethodPost, "/v1/requests", hdr, server.NewRequestBody(spec), &v, spec.IdemKey != ""); err != nil {
		return nil, err
	}
	return c.record(&v)
}

// GetRequest reads one record.
func (c *ShardClient) GetRequest(id core.RequestID) (*core.ServiceRecord, error) {
	var v core.RequestView
	if err := c.call(context.TODO(), http.MethodGet, fmt.Sprintf("/v1/requests/%d", id), nil, nil, &v, true); err != nil {
		return nil, err
	}
	return c.record(&v)
}

// mutate posts one non-idempotent verb on request id. A transport
// failure is ambiguous — the shard may have journaled the mutation
// before dying — so the record is re-read: if the mutation landed that
// is success, an untouched record earns one retry, anything else keeps
// the ErrUnavailable for the caller's deferred reconciliation.
func (c *ShardClient) mutate(path string, body any, id core.RequestID, landed, untouched func(*core.ServiceRecord) bool) error {
	err := c.call(context.TODO(), http.MethodPost, path, nil, body, nil, false)
	if err == nil || !errors.Is(err, core.ErrUnavailable) {
		return err
	}
	rec, rerr := c.GetRequest(id)
	switch {
	case rerr != nil:
		return err
	case landed(rec):
		return nil
	case untouched(rec):
		return c.call(context.TODO(), http.MethodPost, path, nil, body, nil, false)
	}
	return err
}

func hasStatus(st core.RequestStatus) func(*core.ServiceRecord) bool {
	return func(rec *core.ServiceRecord) bool { return rec.Status == st }
}

// Choose commits option optionIndex of request id; a visible commit of
// the same option is how it reads once landed.
func (c *ShardClient) Choose(id core.RequestID, optionIndex int) error {
	return c.mutate(fmt.Sprintf("/v1/requests/%d/choice", id), map[string]int{"option": optionIndex}, id,
		func(rec *core.ServiceRecord) bool {
			return rec.Chosen == optionIndex && rec.Status != core.StatusQuoted && rec.Status != core.StatusDeclined
		}, hasStatus(core.StatusQuoted))
}

// Decline releases a quoted request.
func (c *ShardClient) Decline(id core.RequestID) error {
	return c.mutate(fmt.Sprintf("/v1/requests/%d/decline", id), nil, id,
		hasStatus(core.StatusDeclined), hasStatus(core.StatusQuoted))
}

// CancelAssigned releases an assigned request's vehicle reservation
// (the relay compensation verb); a cancelled record reads declined.
func (c *ShardClient) CancelAssigned(id core.RequestID) error {
	return c.mutate("/rpc/cancel", idWire{ID: id}, id,
		hasStatus(core.StatusDeclined), hasStatus(core.StatusAssigned))
}

// --- the rest of core.Service and multicity.CityBackend ---

// SubmitRequestBatch implements core.Service with core.RunBatch. A
// closure cannot cross the wire, so RunBatch serves each chooser item
// through SubmitRequest and the verbs, and each run of items without
// one is one /v1/requests batch call (see quoteRun).
func (c *ShardClient) SubmitRequestBatch(specs []core.SubmitSpec) ([]*core.ServiceRecord, error) {
	return core.RunBatch(c, specs, c.quoteRun)
}

// quoteRun quotes one chooser-free run as one shard-side batch, under
// its first item's context, and reports a failed item by its index in
// run, which the shard's batch error carries (RunBatch re-bases it).
// Not retried: without per-item idempotency keys a replayed batch would
// double-quote.
func (c *ShardClient) quoteRun(run []core.SubmitSpec) ([]*core.ServiceRecord, int, error) {
	in := server.BatchBody{Requests: make([]server.RequestBody, len(run))}
	for k, spec := range run {
		in.Requests[k] = server.NewRequestBody(spec)
	}
	var reply struct {
		Requests []*core.RequestView `json:"requests"`
		Error    *core.ErrorPayload  `json:"error"`
	}
	ctx, hdr := run[0].Context(), http.Header{}
	setRequestID(ctx, hdr)
	failed := -1
	err := c.call(ctx, http.MethodPost, "/v1/requests", hdr, in, &reply, false)
	if err == nil && reply.Error != nil {
		err = reply.Error.Err()
		if be := (*core.BatchItemError)(nil); errors.As(err, &be) {
			failed, err = be.Index, be.Err
		}
	}
	out := make([]*core.ServiceRecord, len(run))
	for k, v := range reply.Requests {
		if v != nil && k < len(run) {
			rec, rerr := c.record(v)
			if err == nil && rerr != nil {
				failed, err = k, rerr
			}
			out[k] = rec
		}
	}
	return out, failed, err
}

// Advance moves the shard dt seconds forward through POST /v1/ticks and
// returns its city-local events. Never retried: a duplicated tick would
// advance this city's clock out of lockstep.
func (c *ShardClient) Advance(dt float64) ([]core.ServiceEvent, error) {
	var out struct {
		Events []core.ServiceEvent `json:"events"`
	}
	err := c.call(context.TODO(), http.MethodPost, "/v1/ticks", nil, map[string]float64{"seconds": dt}, &out, false)
	return out.Events, err
}

// RelayItinerary implements core.Service: a shard serves no relay trips.
func (c *ShardClient) RelayItinerary(id core.RequestID) (*core.RelayView, error) {
	return nil, fmt.Errorf("cluster: request %d is not a relay trip: %w", id, core.ErrNotFound)
}

// Clock reads the shard's simulated clock; an unreachable shard reads
// 0, which the coordinator's maximum ignores.
func (c *ShardClient) Clock() float64 {
	var out clockReply
	if err := c.call(context.TODO(), http.MethodGet, "/rpc/clock", nil, nil, &out, true); err != nil {
		return 0
	}
	return out.Clock
}

// ServiceStats reads the shard's /v1/stats panel (its total and its one
// city); an unreachable shard reports no city.
func (c *ShardClient) ServiceStats() core.ServiceStats {
	var st core.ServiceStats
	if err := c.call(context.TODO(), http.MethodGet, "/v1/stats", nil, nil, &st, true); err != nil {
		return core.ServiceStats{}
	}
	return st
}

// Requests lists the shard's ledger, id ascending.
func (c *ShardClient) Requests(_ string, filter core.RequestFilter, limit int) ([]*core.ServiceRecord, error) {
	path := fmt.Sprintf("/v1/requests?limit=%d", max(limit, 0))
	if filter.HasStatus {
		path += "&status=" + filter.Status.String()
	}
	var page struct {
		Requests []core.RequestView `json:"requests"`
	}
	if err := c.call(context.TODO(), http.MethodGet, path, nil, nil, &page, true); err != nil {
		return nil, err
	}
	out := make([]*core.ServiceRecord, len(page.Requests))
	for i := range page.Requests {
		rec, err := c.record(&page.Requests[i])
		if err != nil {
			return nil, err
		}
		out[i] = rec
	}
	return out, nil
}

// Cities describes the shard's one city. Its fleet size — the one field
// of the description that moves — comes through the TTL cache, the last
// known value while the shard is away, so a listing costs no round trip
// per shard.
func (c *ShardClient) Cities() []core.CityInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	if time.Now().After(c.vehiclesExp) {
		var m metaWire
		if err := c.call(context.TODO(), http.MethodGet, "/rpc/meta", nil, nil, &m, true); err == nil {
			c.meta.Vehicles = m.Vehicles
			c.vehiclesExp = time.Now().Add(c.cfg.CacheTTL)
		}
	}
	return []core.CityInfo{core.NewCityInfo(c.meta.City, c.meta.Vertices, c.meta.Vehicles, c.meta.Region)}
}

// NearestVertex snaps a coordinate onto the cached road graph by linear
// scan (the client keeps no grid index; the graph is fetched once at
// dial time).
func (c *ShardClient) NearestVertex(p geo.Point) roadnet.VertexID { return c.graph.NearestVertex(p) }

// Params returns the shard's live settings through the TTL cache.
func (c *ShardClient) Params(string) (core.ServiceParams, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if time.Now().Before(c.paramsCache.exp) {
		return c.paramsCache.val, nil
	}
	var p core.ServiceParams
	if err := c.call(context.TODO(), http.MethodGet, "/v1/params", nil, nil, &p, true); err != nil {
		return core.ServiceParams{}, err
	}
	c.paramsCache = cached[core.ServiceParams]{val: p, exp: time.Now().Add(c.cfg.CacheTTL)}
	return p, nil
}

// Surge reads the shard's per-cell surge state.
func (c *ShardClient) Surge(string) (*core.SurgeView, error) {
	var v core.SurgeView
	if err := c.call(context.TODO(), http.MethodGet, "/v1/surge", nil, nil, &v, true); err != nil {
		return nil, err
	}
	return &v, nil
}

// SetCityAlgorithm switches the shard's matching algorithm (idempotent
// — setting the same algorithm twice is harmless — so retried).
func (c *ShardClient) SetCityAlgorithm(_ string, algo core.Algorithm) error {
	err := c.call(context.TODO(), http.MethodPost, "/v1/params", nil, map[string]string{"algorithm": algo.String()}, nil, true)
	if err == nil {
		c.mu.Lock()
		c.paramsCache = cached[core.ServiceParams]{} // params echo the algorithm
		c.mu.Unlock()
	}
	return err
}

// Vehicles lists the shard's vehicle summaries.
func (c *ShardClient) Vehicles(_ string, limit int) ([]core.VehicleView, error) {
	var page struct {
		Vehicles []core.VehicleView `json:"vehicles"`
	}
	if err := c.call(context.TODO(), http.MethodGet, fmt.Sprintf("/v1/vehicles?limit=%d", max(limit, 0)), nil, nil, &page, true); err != nil {
		return nil, err
	}
	return page.Vehicles, nil
}

// VehicleItinerary reads one vehicle's location and schedule branches.
func (c *ShardClient) VehicleItinerary(_ string, id fleet.VehicleID) (*core.VehicleItinerary, error) {
	var out core.VehicleItinerary
	if err := c.call(context.TODO(), http.MethodGet, fmt.Sprintf("/v1/vehicles/%d", id), nil, nil, &out, true); err != nil {
		return nil, err
	}
	return &out, nil
}

// MetricFamilies fetches the shard's gathered metric families; an
// unreachable shard contributes none.
func (c *ShardClient) MetricFamilies() []telemetry.Family {
	var out []telemetry.Family
	if err := c.call(context.TODO(), http.MethodGet, "/rpc/telemetry", nil, nil, &out, true); err != nil {
		return nil
	}
	return out
}
