// cluster_test.go exercises the shard surface end-to-end over real
// HTTP listeners: the wire error taxonomy, the client's retry and
// ambiguity-resolution discipline, gateway routing/aggregation over two
// shards, the cross-city relay over sockets, and the dead-shard
// commit-window compensation the cluster's durability story hangs on.
package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ptrider/internal/core"
	"ptrider/internal/gen"
	"ptrider/internal/geo"
	"ptrider/internal/relay"
	"ptrider/internal/roadnet"
	"ptrider/internal/server"
	"ptrider/internal/telemetry"
	"ptrider/internal/testnet"
)

// fastClient keeps test retries snappy.
func fastClient() ClientConfig {
	return ClientConfig{
		Timeout:      5 * time.Second,
		DialTimeout:  5 * time.Second,
		RetryBackoff: time.Millisecond,
	}
}

// newCityEngine builds a synthetic city engine offset to originX in the
// shared plane (disjoint origins give the gateway disjoint regions).
func newCityEngine(t testing.TB, w, h int, originX float64, seed int64, vehicles int) *core.Engine {
	t.Helper()
	g, err := gen.GenerateNetwork(gen.CityConfig{Width: w, Height: h, OriginX: originX, Seed: seed})
	if err != nil {
		t.Fatalf("gen: %v", err)
	}
	eng, err := core.NewEngine(g, core.Config{
		Capacity: 4, Algorithm: core.AlgoDualSide, Seed: seed,
		Telemetry: telemetry.NewRegistry(),
	})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	eng.AddVehiclesUniform(vehicles)
	return eng
}

// flakyShard wraps a shard handler with a kill switch: while dead, every
// request aborts without a response — the client sees the same dead
// socket a SIGKILLed process leaves behind.
type flakyShard struct {
	h    http.Handler
	dead atomic.Bool
}

func (f *flakyShard) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if f.dead.Load() {
		panic(http.ErrAbortHandler)
	}
	f.h.ServeHTTP(w, r)
}

func startShard(t testing.TB, eng *core.Engine, opts ShardOptions) (*httptest.Server, *flakyShard) {
	t.Helper()
	f := &flakyShard{h: NewShardHandler(eng, opts)}
	ts := httptest.NewServer(f)
	t.Cleanup(ts.Close)
	return ts, f
}

// twinGateway assembles a two-shard cluster (alpha at the origin, beta
// at x=20000) and returns the gateway plus the underlying engines and
// the beta kill switch.
func twinGateway(t testing.TB, reg *telemetry.Registry) (*Gateway, *core.Engine, *core.Engine, *flakyShard) {
	t.Helper()
	engA := newCityEngine(t, 10, 10, 0, 1, 10)
	engB := newCityEngine(t, 8, 8, 20000, 2, 10)
	tsA, _ := startShard(t, engA, ShardOptions{})
	tsB, fB := startShard(t, engB, ShardOptions{})
	gw, err := NewGateway(
		[]string{"alpha=" + tsA.URL, "beta=" + tsB.URL},
		GatewayConfig{
			Client:   fastClient(),
			Relay:    relay.Config{TransferBufferSeconds: 120},
			Registry: reg,
		})
	if err != nil {
		t.Fatalf("gateway: %v", err)
	}
	t.Cleanup(func() { gw.Close() })
	return gw, engA, engB, fB
}

// quotedSpec retries coordinate submissions between the two city
// regions until one quotes a non-empty skyline.
func quotedSpec(t *testing.T, gw *Gateway, from, to string, rng *rand.Rand) *core.ServiceRecord {
	t.Helper()
	gf, err := gw.CityGraph(from)
	if err != nil {
		t.Fatalf("graph %s: %v", from, err)
	}
	gt, err := gw.CityGraph(to)
	if err != nil {
		t.Fatalf("graph %s: %v", to, err)
	}
	for attempt := 0; attempt < 50; attempt++ {
		o := gf.Point(pickVertex(rng, gf.NumVertices()))
		d := gt.Point(pickVertex(rng, gt.NumVertices()))
		rec, err := gw.SubmitRequest(core.SubmitSpec{ByCoords: true, Origin: o, Dest: d, Riders: 1})
		if err != nil {
			t.Fatalf("submit %s->%s: %v", from, to, err)
		}
		if len(rec.Options) > 0 {
			return rec
		}
		_ = gw.Decline(rec.ID)
	}
	t.Fatalf("no %s->%s quote produced options in 50 attempts", from, to)
	return nil
}

func pickVertex(rng *rand.Rand, n int) roadnet.VertexID {
	return roadnet.VertexID(rng.Intn(n))
}

func TestShardClientBasics(t *testing.T) {
	eng := newCityEngine(t, 8, 8, 0, 1, 10)
	ts, _ := startShard(t, eng, ShardOptions{})
	c, err := Dial(ts.URL, fastClient())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	// Dial-time immutable city description matches the engine.
	if g, err := c.CityGraph(""); err != nil || g.NumVertices() != eng.Graph().NumVertices() {
		t.Fatalf("graph: %v, want %d vertices", err, eng.Graph().NumVertices())
	}
	if c.Speed() != eng.Speed() {
		t.Fatalf("speed %v, want %v", c.Speed(), eng.Speed())
	}
	wantWait, wantPickup := eng.LegLimits()
	if gotWait, gotPickup := c.LegLimits(); gotWait != wantWait || gotPickup != wantPickup {
		t.Fatalf("limits (%v,%v), want (%v,%v)", gotWait, gotPickup, wantWait, wantPickup)
	}

	// Quote, re-submit under the same idempotency key, commit, read.
	rec := submitQuotedRemote(t, c)
	replay, err := c.SubmitIdem(rec.S, rec.D, rec.Riders, core.Constraints{}, "")
	if err != nil {
		t.Fatalf("second submit: %v", err)
	}
	if replay.ID == rec.ID {
		t.Fatalf("distinct keys must quote distinct requests, both got %d", rec.ID)
	}
	_ = c.Decline(replay.ID)
	if err := c.Choose(rec.ID, 0); err != nil {
		t.Fatalf("choose: %v", err)
	}
	got, err := c.GetRequest(rec.ID)
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	if got.Status != core.StatusAssigned || got.Chosen != 0 {
		t.Fatalf("after choose: status %v chosen %d", got.Status, got.Chosen)
	}

	// Tick, clock, stats, listings.
	if _, err := c.Advance(5); err != nil {
		t.Fatalf("advance: %v", err)
	}
	if rc := c.Clock(); rc != 5 {
		t.Fatalf("clock after tick %v, want 5", rc)
	}
	if st := c.ServiceStats(); st.Total.Requests == 0 || len(st.Cities) != 1 {
		t.Fatalf("stats %+v", st)
	}
	recs, err := c.Requests("", core.RequestFilter{}, 0)
	if err != nil || len(recs) == 0 {
		t.Fatalf("requests listing: %d, %v", len(recs), err)
	}
	assigned, err := c.Requests("", core.RequestFilter{HasStatus: true, Status: core.StatusAssigned}, 0)
	if err != nil || len(assigned) != 1 {
		t.Fatalf("assigned listing: %d, %v", len(assigned), err)
	}

	views, err := c.Vehicles("", 0)
	cities := c.Cities()
	if err != nil || len(views) != eng.NumVehicles() || len(cities) != 1 || cities[0].Vehicles != eng.NumVehicles() {
		t.Fatalf("vehicles: %d (cities %+v), %v", len(views), cities, err)
	}
	if _, err := c.RelayItinerary(-1); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("relay itinerary on a shard: %v, want ErrNotFound", err)
	}
	if _, err := c.VehicleItinerary("", views[0].ID); err != nil {
		t.Fatalf("vehicle itinerary: %v", err)
	}

	// Params/surge/algorithm and the fetched telemetry families.
	if _, err := c.Params(""); err != nil {
		t.Fatalf("params: %v", err)
	}
	if _, err := c.Surge(""); err != nil {
		t.Fatalf("surge: %v", err)
	}
	if err := c.SetCityAlgorithm("", core.AlgoSingleSide); err != nil {
		t.Fatalf("set algorithm: %v", err)
	}
	if fams := c.MetricFamilies(); len(fams) == 0 {
		t.Fatal("telemetry: no families")
	}
}

// submitQuotedRemote quotes through the client until a vertex pair
// yields options.
func submitQuotedRemote(t *testing.T, c *ShardClient) *core.RequestRecord {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	n := c.graph.NumVertices()
	for attempt := 0; attempt < 50; attempt++ {
		s, d := pickVertex(rng, n), pickVertex(rng, n)
		if s == d {
			continue
		}
		rec, err := c.SubmitIdem(s, d, 1, core.Constraints{}, "")
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		if len(rec.Options) > 0 {
			return rec
		}
		_ = c.Decline(rec.ID)
	}
	t.Fatal("no vertex pair quoted options in 50 attempts")
	return nil
}

func TestShardClientTypedErrors(t *testing.T) {
	eng := newCityEngine(t, 6, 6, 0, 1, 5)
	ts, _ := startShard(t, eng, ShardOptions{})
	c, err := Dial(ts.URL, fastClient())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	if _, err := c.GetRequest(9999); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("unknown request: %v, want ErrNotFound", err)
	}
	if err := c.Choose(9999, 0); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("choose unknown: %v, want ErrNotFound", err)
	}
	rec := submitQuotedRemote(t, c)
	if err := c.Choose(rec.ID, 0); err != nil {
		t.Fatalf("choose: %v", err)
	}
	if err := c.Choose(rec.ID, 0); !errors.Is(err, core.ErrAlreadyChosen) {
		t.Fatalf("double choose: %v, want ErrAlreadyChosen", err)
	}

	// A dead listener is ErrUnavailable, not a decode error.
	ts.Close()
	if _, err := c.GetRequest(rec.ID); !errors.Is(err, core.ErrUnavailable) {
		t.Fatalf("dead shard: %v, want ErrUnavailable", err)
	}
}

// TestSubmitIdempotentAcrossLostResponse proves the retried POST is
// safe: the shard executes the submit, the response is lost, and the
// retry carrying the same generated key replays the original record
// instead of quoting twice.
func TestSubmitIdempotentAcrossLostResponse(t *testing.T) {
	eng := newCityEngine(t, 6, 6, 0, 1, 5)
	inner := NewShardHandler(eng, ShardOptions{})
	var eatReplies atomic.Int32
	mux := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/requests" && eatReplies.Add(-1) >= 0 {
			// Execute the submit for real, then die before replying —
			// the shape of a shard crashing after the journal append.
			inner.ServeHTTP(httptest.NewRecorder(), r)
			panic(http.ErrAbortHandler)
		}
		inner.ServeHTTP(w, r)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	cfg := fastClient()
	cfg.Retries = 2
	c, err := Dial(ts.URL, cfg)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	eatReplies.Store(1)
	rec, err := c.SubmitIdem(2, 20, 1, core.Constraints{}, "")
	if err != nil {
		t.Fatalf("submit through lost response: %v", err)
	}
	recs, err := c.Requests("", core.RequestFilter{}, 0)
	if err != nil {
		t.Fatalf("requests: %v", err)
	}
	if len(recs) != 1 || recs[0].ID != rec.ID {
		t.Fatalf("replayed submit duplicated the request: %d records", len(recs))
	}
}

// TestSubmitCarriesRequestIDToShard pins cross-hop correlation: a
// submit that reaches the gateway's /v1 surface under X-Request-ID
// probe-1 reaches the shard under the same id, so the shard's own
// slow-request line names probe-1 beside the engine's quote and
// register stages. A batch under probe-2 reaches it the same way.
func TestSubmitCarriesRequestIDToShard(t *testing.T) {
	eng := newCityEngine(t, 6, 6, 0, 1, 5)
	logs := testnet.CaptureLog(t)
	ts, _ := startShard(t, eng, ShardOptions{Server: server.Options{SlowRequest: time.Nanosecond}})
	gw, err := NewGateway([]string{"solo=" + ts.URL}, GatewayConfig{Client: fastClient()})
	if err != nil {
		t.Fatalf("gateway: %v", err)
	}
	t.Cleanup(func() { gw.Close() })
	front := httptest.NewServer(server.NewService(gw).Handler())
	t.Cleanup(front.Close)

	for _, tc := range []struct {
		id, body string
		want     []string
	}{
		{"probe-1", `{"city":"solo","s":2,"d":20,"riders":1}`, []string{"quote=", "register="}},
		{"probe-2", `{"requests":[{"city":"solo","s":2,"d":20,"riders":1},{"city":"solo","s":3,"d":21,"riders":1}]}`, nil},
	} {
		req, _ := http.NewRequest(http.MethodPost, front.URL+"/v1/requests", strings.NewReader(tc.body))
		req.Header.Set("X-Request-ID", tc.id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: gateway submit status %d", tc.id, resp.StatusCode)
		}

		// The shard logs after its reply is written; poll briefly.
		var line *testnet.LogLine
		for deadline := time.Now().Add(2 * time.Second); line == nil && time.Now().Before(deadline); {
			for _, l := range logs.Lines() {
				if l.Attrs["request_id"] == tc.id {
					line = &l
				}
			}
			time.Sleep(5 * time.Millisecond)
		}
		if line == nil || line.Attrs["route"] != "/v1/requests" {
			t.Fatalf("no shard slow-request line for %s on /v1/requests (log: %+v)", tc.id, logs.Lines())
		}
		for _, want := range tc.want {
			if st, _ := line.Attrs["stages"].(string); !strings.Contains(st, want) {
				t.Fatalf("shard slow log stages %q miss %q", st, want)
			}
		}
	}
}

// TestSubmitCancelledSendsNoRetry drops the shard's first submit
// exchange and cancels the caller's context with it: the gateway
// answers ErrUnavailable without a retry, so the shard sees exactly one
// POST and the retry counter stays at zero.
func TestSubmitCancelledSendsNoRetry(t *testing.T) {
	eng := newCityEngine(t, 6, 6, 0, 1, 5)
	inner := NewShardHandler(eng, ShardOptions{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var posts atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/requests" && posts.Add(1) == 1 {
			cancel()
			panic(http.ErrAbortHandler)
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()
	reg := telemetry.NewRegistry()
	gw, err := NewGateway([]string{"solo=" + ts.URL}, GatewayConfig{Client: fastClient(), Registry: reg})
	if err != nil {
		t.Fatalf("gateway: %v", err)
	}
	defer gw.Close()

	_, err = gw.SubmitRequest(core.SubmitSpec{City: "solo", S: 2, D: 20, Riders: 1, Ctx: ctx})
	if !errors.Is(err, core.ErrUnavailable) {
		t.Fatalf("cancelled submit: %v, want ErrUnavailable", err)
	}
	if n := posts.Load(); n != 1 {
		t.Fatalf("shard saw %d submit POSTs, want 1", n)
	}
	retries := reg.Counter("cluster_rpc_retries_total", "", telemetry.Label{Name: "shard", Value: ts.URL})
	if n := retries.Value(); n != 0 {
		t.Fatalf("%d retries counted for a caller who had gone", n)
	}
}

// TestChooseAmbiguityResolvedByReadBack pins the client's commit
// discipline: when the shard commits a choose but dies before replying,
// the client re-reads the record, sees the commit landed, and reports
// success instead of surfacing a spurious failure.
func TestChooseAmbiguityResolvedByReadBack(t *testing.T) {
	eng := newCityEngine(t, 6, 6, 0, 1, 5)
	var abortNext atomic.Bool
	ts, _ := startShard(t, eng, ShardOptions{AfterChoose: func() {
		if abortNext.CompareAndSwap(true, false) {
			panic(http.ErrAbortHandler)
		}
	}})
	c, err := Dial(ts.URL, fastClient())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	rec := submitQuotedRemote(t, c)
	abortNext.Store(true)
	if err := c.Choose(rec.ID, 0); err != nil {
		t.Fatalf("ambiguous choose not resolved: %v", err)
	}
	got, err := c.GetRequest(rec.ID)
	if err != nil || got.Status != core.StatusAssigned {
		t.Fatalf("after resolved choose: %+v, %v", got, err)
	}
}

func TestGatewayRoutingAndAggregation(t *testing.T) {
	reg := telemetry.NewRegistry()
	gw, engA, engB, _ := twinGateway(t, reg)

	cities := gw.Cities()
	if len(cities) != 2 || cities[0].Name != "alpha" || cities[1].Name != "beta" || cities[0].Vertices != engA.Graph().NumVertices() || cities[1].Vertices != engB.Graph().NumVertices() {
		t.Fatalf("cities %+v", cities)
	}
	for _, cr := range gw.ReadyCities() {
		if !cr.Ready {
			t.Fatalf("city %s unready: %s", cr.City, cr.Err)
		}
	}

	// Same-city submissions land on their shard and come back in the
	// striped global namespace.
	rng := rand.New(rand.NewSource(3))
	recA := quotedSpec(t, gw, "alpha", "alpha", rng)
	recB := quotedSpec(t, gw, "beta", "beta", rng)
	if recA.City != "alpha" || recB.City != "beta" {
		t.Fatalf("misrouted: %q and %q", recA.City, recB.City)
	}
	if recA.ID%2 != 0 || recB.ID%2 != 1 {
		t.Fatalf("global ids not striped: alpha %d, beta %d", recA.ID, recB.ID)
	}
	if err := gw.Choose(recA.ID, 0); err != nil {
		t.Fatalf("choose: %v", err)
	}
	got, err := gw.GetRequest(recA.ID)
	if err != nil || got.Status != core.StatusAssigned || got.City != "alpha" {
		t.Fatalf("get after choose: %+v, %v", got, err)
	}
	if err := gw.Decline(recB.ID); err != nil {
		t.Fatalf("decline: %v", err)
	}

	// Merged listings are globally sorted; city scoping works.
	all, err := gw.Requests("", core.RequestFilter{}, 0)
	if err != nil || len(all) < 2 {
		t.Fatalf("merged listing: %d, %v", len(all), err)
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].ID >= all[i].ID {
			t.Fatalf("listing unsorted at %d: %d >= %d", i, all[i-1].ID, all[i].ID)
		}
	}
	onlyBeta, err := gw.Requests("beta", core.RequestFilter{}, 0)
	if err != nil {
		t.Fatalf("scoped listing: %v", err)
	}
	for _, r := range onlyBeta {
		if r.City != "beta" {
			t.Fatalf("beta listing leaked %q", r.City)
		}
	}

	// City-scoped verbs route and rename; bad cities are typed errors.
	if p, err := gw.Params("beta"); err != nil || p.City != "beta" {
		t.Fatalf("params: %+v, %v", p, err)
	}
	if v, err := gw.Surge("alpha"); err != nil || v.City != "alpha" {
		t.Fatalf("surge: %v", err)
	}
	if _, err := gw.Vehicles("nowhere", 0); !errors.Is(err, core.ErrUnknownCity) {
		t.Fatalf("unknown city: %v", err)
	}
	if _, err := gw.Params(""); !errors.Is(err, core.ErrInvalidArgument) {
		t.Fatalf("missing city: %v", err)
	}
	if err := gw.SetCityAlgorithm("beta", core.AlgoSingleSide); err != nil {
		t.Fatalf("set algorithm: %v", err)
	}

	// Fan-out tick: both engines move, the clock is the fleet maximum.
	if _, err := gw.Advance(10); err != nil {
		t.Fatalf("advance: %v", err)
	}
	if gw.Clock() != 10 {
		t.Fatalf("clock %v, want 10", gw.Clock())
	}
	if engA.Clock() != 10 || engB.Clock() != 10 {
		t.Fatalf("shard clocks (%v, %v), want lockstep 10", engA.Clock(), engB.Clock())
	}
	if _, err := gw.Advance(-1); !errors.Is(err, core.ErrInvalidArgument) {
		t.Fatalf("negative tick: %v", err)
	}

	// Aggregated statistics fold both panels.
	st := gw.ServiceStats()
	if !st.RelayEnabled || len(st.Cities) != 2 {
		t.Fatalf("stats shape: %+v", st)
	}
	if want := st.Cities["alpha"].Requests + st.Cities["beta"].Requests; st.Total.Requests != want {
		t.Fatalf("total requests %d, want %d", st.Total.Requests, want)
	}

	// Merged telemetry carries the gateway's RPC families and the
	// city-labeled shard families.
	fams := gw.MetricFamilies()
	var sawRPC, sawCityLabel bool
	for _, f := range fams {
		if f.Name == "cluster_rpc_seconds" {
			sawRPC = true
		}
		for _, s := range f.Series {
			for _, l := range s.Labels {
				if l.Name == "city" && (l.Value == "alpha" || l.Value == "beta") {
					sawCityLabel = true
				}
			}
		}
	}
	if !sawRPC || !sawCityLabel {
		t.Fatalf("telemetry merge missing families: rpc=%v cityLabel=%v", sawRPC, sawCityLabel)
	}
}

func TestGatewayBatch(t *testing.T) {
	gw, _, _, _ := twinGateway(t, nil)
	ga, _ := gw.CityGraph("alpha")
	gb, _ := gw.CityGraph("beta")

	// Non-interactive batch: the /v1 shape — one shard-side batch call
	// per city, quotes returned.
	specs := []core.SubmitSpec{
		{ByCoords: true, Origin: ga.Point(2), Dest: ga.Point(40), Riders: 1},
		{ByCoords: true, Origin: gb.Point(3), Dest: gb.Point(30), Riders: 1},
		{ByCoords: true, Origin: ga.Point(5), Dest: ga.Point(50), Riders: 1},
	}
	recs, err := gw.SubmitRequestBatch(specs)
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if len(recs) != 3 || recs[0] == nil || recs[1] == nil || recs[2] == nil {
		t.Fatalf("batch records: %+v", recs)
	}
	if recs[0].City != "alpha" || recs[1].City != "beta" || recs[2].City != "alpha" {
		t.Fatalf("batch routing: %q %q %q", recs[0].City, recs[1].City, recs[2].City)
	}

	// Interactive batch: choice callbacks commit gateway-side.
	committed := 0
	ispecs := []core.SubmitSpec{
		{ByCoords: true, Origin: ga.Point(7), Dest: ga.Point(44), Riders: 1,
			Choose: func(options []core.Option) int {
				if len(options) > 0 {
					committed++
					return 0
				}
				return -1
			}},
	}
	irecs, err := gw.SubmitRequestBatch(ispecs)
	if err != nil {
		t.Fatalf("interactive batch: %v", err)
	}
	if irecs[0] == nil {
		t.Fatal("interactive batch returned no record")
	}
	if committed == 1 && irecs[0].Status != core.StatusAssigned {
		t.Fatalf("chosen batch item not assigned: %v", irecs[0].Status)
	}
	if committed == 0 && irecs[0].Status != core.StatusDeclined {
		t.Fatalf("empty-skyline batch item not declined: %v", irecs[0].Status)
	}
}

// TestGatewayBatchErrorNamesCallerItem: a chooser item splits a
// gateway batch into runs, and a shard numbers a failed item from the
// start of the run it was posted; the gateway's error still names the
// item as the caller's batch counts it, as the engine behind the shard
// does for the same specs.
func TestGatewayBatchErrorNamesCallerItem(t *testing.T) {
	gw, engA, _, _ := twinGateway(t, nil)
	specs := func(city string) []core.SubmitSpec {
		return []core.SubmitSpec{
			{City: city, S: 2, D: 20, Riders: 1, Choose: func([]core.Option) int { return -1 }},
			{City: city, S: 3, D: 21, Riders: 1},
			{City: city, S: 5, D: 5, Riders: 1},
		}
	}
	for name, svc := range map[string]core.Service{"alpha": gw, "": engA} {
		recs, err := svc.SubmitRequestBatch(specs(name))
		var be *core.BatchItemError
		if !errors.As(err, &be) || be.Index != 2 || !strings.Contains(err.Error(), "batch item 2: ") {
			t.Fatalf("city %q: batch error %v, want item 2", name, err)
		}
		if len(recs) != 3 || recs[0] == nil || recs[1] == nil || recs[2] != nil {
			t.Fatalf("city %q: batch records %+v", name, recs)
		}
	}
}

func TestGatewayCrossCityRelay(t *testing.T) {
	gw, engA, engB, _ := twinGateway(t, telemetry.NewRegistry())
	rng := rand.New(rand.NewSource(21))
	rec := quotedSpec(t, gw, "alpha", "beta", rng)
	// The gateway times every leg it quotes, as the in-process router
	// does: one observation per leg the relay panel counts.
	var legHist *telemetry.HistView
	for _, f := range gw.MetricFamilies() {
		if f.Name == "ptrider_relay_leg_quote_duration_seconds" && len(f.Series) == 1 {
			legHist = f.Series[0].Hist
		}
	}
	if legs := gw.ServiceStats().Relay.LegQuotes; legHist == nil || legs == 0 || legHist.Count != legs {
		t.Fatalf("leg quote histogram %+v, want a count equal to the relay panel's %d leg quotes", legHist, legs)
	}

	if rec.ID >= 0 {
		t.Fatalf("relay trip id %d not in the negative namespace", rec.ID)
	}
	if rec.City != "alpha" || rec.Relay == nil || rec.Relay.Dest != "beta" {
		t.Fatalf("relay record misshapen: city %q relay %+v", rec.City, rec.Relay)
	}

	if err := gw.Choose(rec.ID, 0); err != nil {
		t.Fatalf("relay choose over sockets: %v", err)
	}
	got, err := gw.GetRequest(rec.ID)
	if err != nil || got.Status != core.StatusAssigned {
		t.Fatalf("relay trip after choose: %+v, %v", got, err)
	}
	if _, err := gw.RelayItinerary(rec.ID); err != nil {
		t.Fatalf("relay itinerary: %v", err)
	}
	// The two-phase commit booked real legs on both remote engines.
	if engA.Stats().Assigned == 0 {
		t.Fatal("origin engine holds no assigned leg")
	}
	if engB.Stats().Assigned == 0 {
		t.Fatal("destination engine holds no assigned leg")
	}
	st := gw.ServiceStats()
	if st.Relay.Committed == 0 {
		t.Fatalf("relay stats did not count the commit: %+v", st.Relay)
	}
}

// TestGatewayCompensatesDeadShardCommit drives the acceptance
// scenario in-process: the destination shard dies inside the two-phase
// commit window, the gateway defers compensation, and the next Advance
// after the shard returns releases the leaked leg-1 reservation.
func TestGatewayCompensatesDeadShardCommit(t *testing.T) {
	gw, engA, _, betaSwitch := twinGateway(t, nil)
	rng := rand.New(rand.NewSource(5))
	rec := quotedSpec(t, gw, "alpha", "beta", rng)

	baseAssigned := engA.Stats().Assigned
	sched := gw.RelayScheduler()
	sched.SetCommitOverride(func(leg int, eng relay.LegEngine, id core.RequestID, opt int) error {
		if leg == 2 {
			betaSwitch.dead.Store(true) // the shard dies before leg 2 lands
		}
		return eng.Choose(id, opt)
	})
	err := gw.Choose(rec.ID, 0)
	sched.SetCommitOverride(nil)
	if !errors.Is(err, core.ErrUnavailable) {
		t.Fatalf("commit against a dead shard: %v, want ErrUnavailable", err)
	}
	if got := sched.PendingCompensations(); got != 1 {
		t.Fatalf("pending compensations %d, want 1", got)
	}
	if engA.Stats().Assigned != baseAssigned+1 {
		t.Fatalf("leg-1 reservation not held: assigned %d", engA.Stats().Assigned)
	}

	// While the shard is down the tick keeps the trip parked.
	if _, err := gw.Advance(1); !errors.Is(err, core.ErrUnavailable) {
		t.Fatalf("advance with a dead shard: %v", err)
	}
	if got := sched.PendingCompensations(); got != 1 {
		t.Fatalf("pending drained against a dead shard: %d", got)
	}

	// Shard returns; the next tick drains the deferred compensation.
	betaSwitch.dead.Store(false)
	if _, err := gw.Advance(1); err != nil {
		t.Fatalf("advance after recovery: %v", err)
	}
	if got := sched.PendingCompensations(); got != 0 {
		t.Fatalf("pending compensations %d after drain, want 0", got)
	}
	if engA.Stats().Assigned != baseAssigned {
		t.Fatalf("leg-1 reservation leaked: assigned %d, want %d", engA.Stats().Assigned, baseAssigned)
	}
	got, err := gw.GetRequest(rec.ID)
	if err != nil || got.Status != core.StatusDeclined {
		t.Fatalf("trip after compensation: %+v, %v", got, err)
	}
}

func TestGatewaySingleShard(t *testing.T) {
	eng := newCityEngine(t, 6, 6, 0, 1, 5)
	ts, _ := startShard(t, eng, ShardOptions{})
	gw, err := NewGateway([]string{"solo=" + ts.URL}, GatewayConfig{Client: fastClient()})
	if err != nil {
		t.Fatalf("gateway: %v", err)
	}
	defer gw.Close()

	if gw.RelayScheduler() != nil {
		t.Fatal("one-shard gateway built a relay scheduler")
	}
	// Coordinates outside the only region are a typed no-city error.
	far := geo.Point{X: 1e7, Y: 1e7}
	if _, err := gw.SubmitRequest(core.SubmitSpec{ByCoords: true, Origin: far, Dest: far}); !errors.Is(err, core.ErrNoCity) {
		t.Fatalf("out-of-region submit: %v", err)
	}
	// Negative ids have no relay to resolve against.
	if _, err := gw.GetRequest(-1); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("negative id without relay: %v", err)
	}
	if err := gw.Choose(-1, 0); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("negative choose without relay: %v", err)
	}
	st := gw.ServiceStats()
	if st.RelayEnabled {
		t.Fatal("one-shard stats claim relay")
	}
}

// TestGatewayDialFailsClosed pins startup behavior: a gateway with an
// unreachable shard refuses to assemble instead of serving a partial
// cluster.
func TestGatewayDialFailsClosed(t *testing.T) {
	eng := newCityEngine(t, 6, 6, 0, 1, 5)
	ts, _ := startShard(t, eng, ShardOptions{})
	cfg := fastClient()
	cfg.DialTimeout = 300 * time.Millisecond
	_, err := NewGateway([]string{"a=" + ts.URL, "b=127.0.0.1:1"}, GatewayConfig{Client: cfg})
	if err == nil {
		t.Fatal("gateway assembled over an unreachable shard")
	}
	if !strings.Contains(err.Error(), "127.0.0.1:1") {
		t.Fatalf("dial error does not name the shard: %v", err)
	}
	// Duplicate names are a configuration error.
	if _, err := NewGateway([]string{"x=" + ts.URL, "x=" + ts.URL}, GatewayConfig{Client: cfg}); !errors.Is(err, core.ErrInvalidArgument) {
		t.Fatalf("duplicate names: %v", err)
	}
}

// TestRPCOversizedBodyIs413 pins the body limit on the /rpc surface: a
// 2 MiB body is refused with 413 invalid_argument after at most the
// limit has been read by /rpc/cancel, the one /rpc verb with a body.
// The /v1 verbs a shard serves are TestOversizedBodyIs413's.
func TestRPCOversizedBodyIs413(t *testing.T) {
	eng := newCityEngine(t, 6, 6, 0, 1, 5)
	h := NewShardHandler(eng, ShardOptions{})
	body := &spaces{n: 2 * server.MaxBodyBytes}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/rpc/cancel", body))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413 (%s)", rec.Code, rec.Body)
	}
	var out wireEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || out.Error.Code != "invalid_argument" {
		t.Fatalf("envelope %s (%v), want code invalid_argument", rec.Body, err)
	}
	if body.read > server.MaxBodyBytes+64<<10 {
		t.Fatalf("handler read %d bytes of an oversized body, limit %d", body.read, server.MaxBodyBytes)
	}
}

// spaces is a request body of n bytes of JSON whitespace that counts
// what its consumer took.
type spaces struct{ n, read int }

func (s *spaces) Read(p []byte) (int, error) {
	if s.read >= s.n {
		return 0, io.EOF
	}
	k := min(len(p), s.n-s.read)
	for i := range p[:k] {
		p[i] = ' '
	}
	s.read += k
	return k, nil
}

// TestDialPollsReadinessWithBackoff pins the readiness poll: a shard
// that turns ready 30 ms after the first probe is dialled in under the
// 100 ms a fixed-interval poll would sleep, and a shard that never
// turns ready still fails with the DialTimeout error.
func TestDialPollsReadinessWithBackoff(t *testing.T) {
	eng := newCityEngine(t, 6, 6, 0, 1, 5)
	inner := NewShardHandler(eng, ShardOptions{})
	var readyAt atomic.Int64 // unix nanos; 0 = never
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if at := readyAt.Load(); r.URL.Path == "/v1/readyz" && (at == 0 || time.Now().UnixNano() < at) {
			http.Error(w, "warming up", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()

	// The bound is on wall time, so a loaded host gets three tries; a
	// fixed 100 ms sleep can pass none of them.
	best := time.Hour
	for try := 0; try < 3 && best >= 100*time.Millisecond; try++ {
		start := time.Now()
		readyAt.Store(start.Add(30 * time.Millisecond).UnixNano())
		c, err := Dial(ts.URL, fastClient())
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		c.Close()
		best = min(best, time.Since(start))
	}
	if best >= 100*time.Millisecond {
		t.Fatalf("dialling a shard ready after 30 ms took %v, want well under 100 ms", best)
	}

	readyAt.Store(0)
	cfg := fastClient()
	cfg.DialTimeout = 50 * time.Millisecond
	start := time.Now()
	_, err := Dial(ts.URL, cfg)
	if err == nil || !errors.Is(err, core.ErrUnavailable) || !strings.Contains(err.Error(), "not ready") {
		t.Fatalf("dial of a never-ready shard: %v, want an unavailable 'not ready' error", err)
	}
	if waited := time.Since(start); waited < cfg.DialTimeout {
		t.Fatalf("dial gave up after %v, before its %v DialTimeout", waited, cfg.DialTimeout)
	}
}
