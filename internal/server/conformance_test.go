// conformance_test.go pins the /v1 surface — routes, methods, status
// codes and error envelope codes — with one backend-agnostic table
// executed over four backends: a single-city core.Engine, the
// multi-city coordinator as a 2-city multicity.Router with relay on and
// with relay off, and the same coordinator as a cluster.Gateway over
// two shards behind real listeners. The Service interface is the whole
// point of PR 5: the same handler set must behave identically wherever
// the backend allows, and the table is the proof.
package server_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ptrider/internal/cluster"
	"ptrider/internal/core"
	"ptrider/internal/gen"
	"ptrider/internal/multicity"
	"ptrider/internal/relay"
	"ptrider/internal/server"
	"ptrider/internal/telemetry"
	"ptrider/internal/testnet"
)

// v1Backend is one backend under conformance test.
type v1Backend struct {
	name      string
	ts        *httptest.Server
	city      string // a valid city name for scoped endpoints
	numCities int
	relay     bool
}

func singleBackend(t *testing.T) v1Backend {
	t.Helper()
	g := testnet.Lattice(rand.New(rand.NewSource(1)), 8, 8, 100)
	eng, err := core.NewEngine(g, core.Config{
		Capacity:  4,
		Algorithm: core.AlgoDualSide, Seed: 1,
		Telemetry: telemetry.NewRegistry(),
	})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	eng.AddVehiclesUniform(10)
	ts := httptest.NewServer(server.NewService(eng).Handler())
	t.Cleanup(ts.Close)
	return v1Backend{name: "single-city", ts: ts, city: core.DefaultCityName, numCities: 1}
}

// multiBackend is the in-process two-city router, with relay scheduling
// on or off.
func multiBackend(t *testing.T, relayOn bool) v1Backend {
	t.Helper()
	router, err := multicity.BuildFromSpecWithConfig("east:10x10:10,west:8x8:8",
		core.Config{Capacity: 4, Algorithm: core.AlgoDualSide}, 5,
		multicity.RouterConfig{EnableRelay: relayOn, Telemetry: telemetry.NewRegistry()})
	if err != nil {
		t.Fatalf("router: %v", err)
	}
	ts := httptest.NewServer(server.NewService(router).Handler())
	t.Cleanup(ts.Close)
	name := "two-city-plain"
	if relayOn {
		name = "two-city-relay"
	}
	return v1Backend{name: name, ts: ts, city: "east", numCities: 2, relay: relayOn}
}

// remoteBackend assembles the cluster transport: two single-city
// engines behind shard handlers on real listeners, a gateway dialed
// over those sockets, and the /v1 surface served by the gateway — the
// same conformance table must hold when every backend verb crosses a
// wire.
func remoteBackend(t *testing.T) v1Backend {
	t.Helper()
	newShard := func(w, h int, originX float64, seed int64) *httptest.Server {
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
		eng.AddVehiclesUniform(5)
		shard := httptest.NewServer(cluster.NewShardHandler(eng, cluster.ShardOptions{}))
		t.Cleanup(shard.Close)
		return shard
	}
	east := newShard(10, 10, 0, 1)
	west := newShard(8, 8, 20000, 2)
	gw, err := cluster.NewGateway(
		[]string{"east=" + east.URL, "west=" + west.URL},
		cluster.GatewayConfig{
			Client:   cluster.ClientConfig{RetryBackoff: time.Millisecond},
			Relay:    relay.Config{TransferBufferSeconds: 120},
			Registry: telemetry.NewRegistry(),
		})
	if err != nil {
		t.Fatalf("gateway: %v", err)
	}
	t.Cleanup(func() { gw.Close() })
	ts := httptest.NewServer(server.NewService(gw).Handler())
	t.Cleanup(ts.Close)
	return v1Backend{name: "remote-gateway", ts: ts, city: "east", numCities: 2, relay: true}
}

func conformanceBackends(t *testing.T) []v1Backend {
	return []v1Backend{singleBackend(t), multiBackend(t, true), multiBackend(t, false), remoteBackend(t)}
}

// errCode extracts the envelope's error code from a decoded body.
func errCode(t *testing.T, body map[string]json.RawMessage) string {
	t.Helper()
	var e struct {
		Code string `json:"code"`
	}
	if raw, ok := body["error"]; ok {
		json.Unmarshal(raw, &e)
	}
	return e.Code
}

// do issues a request with an explicit method and optional JSON body.
func do(t *testing.T, method, url string, body any) (*http.Response, map[string]json.RawMessage) {
	t.Helper()
	var reader *strings.Reader
	if body != nil {
		b, _ := json.Marshal(body)
		reader = strings.NewReader(string(b))
	} else {
		reader = strings.NewReader("")
	}
	req, err := http.NewRequest(method, url, reader)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	out := map[string]json.RawMessage{}
	json.NewDecoder(resp.Body).Decode(&out)
	return resp, out
}

// submitQuoted posts vertex-addressed requests until one quotes a
// non-empty skyline and returns its id.
func submitQuoted(t *testing.T, b v1Backend) int64 {
	t.Helper()
	pairs := [][2]int{{3, 40}, {5, 44}, {1, 50}, {2, 30}, {7, 42}, {10, 55}}
	for _, p := range pairs {
		resp, out := do(t, http.MethodPost, b.ts.URL+"/v1/requests",
			map[string]any{"city": b.city, "s": p[0], "d": p[1], "riders": 1})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("[%s] submit status %d: %v", b.name, resp.StatusCode, out)
		}
		var id int64
		json.Unmarshal(out["id"], &id)
		var options []json.RawMessage
		json.Unmarshal(out["options"], &options)
		if len(options) > 0 {
			return id
		}
	}
	t.Fatalf("[%s] no vertex pair quoted options", b.name)
	return 0
}

// TestV1Conformance runs the route/method/status/error-code table over
// every backend.
func TestV1Conformance(t *testing.T) {
	for _, b := range conformanceBackends(t) {
		b := b
		t.Run(b.name, func(t *testing.T) {
			cases := []struct {
				name       string
				method     string
				path       string
				body       any
				wantStatus int
				wantCode   string // envelope code ("" = success, no envelope)
				wantAllow  string // non-empty: the Allow header must carry it
			}{
				// Strict method checking: 405 + Allow on every endpoint.
				{"requests wrong method", http.MethodDelete, "/v1/requests", nil, 405, "method_not_allowed", "GET, POST"},
				{"request-by-id wrong method", http.MethodPost, "/v1/requests/1", map[string]any{}, 405, "method_not_allowed", "GET"},
				{"choice wrong method", http.MethodGet, "/v1/requests/1/choice", nil, 405, "method_not_allowed", "POST"},
				{"decline wrong method", http.MethodGet, "/v1/requests/1/decline", nil, 405, "method_not_allowed", "POST"},
				{"ticks wrong method", http.MethodGet, "/v1/ticks", nil, 405, "method_not_allowed", "POST"},
				{"stats wrong method", http.MethodPost, "/v1/stats", map[string]any{}, 405, "method_not_allowed", "GET"},
				{"cities wrong method", http.MethodDelete, "/v1/cities", nil, 405, "method_not_allowed", "GET"},
				{"vehicles wrong method", http.MethodPost, "/v1/vehicles", map[string]any{}, 405, "method_not_allowed", "GET"},
				{"relay wrong method", http.MethodPost, "/v1/relay/1", map[string]any{}, 405, "method_not_allowed", "GET"},
				{"events wrong method", http.MethodPost, "/v1/events", map[string]any{}, 405, "method_not_allowed", "GET"},
				{"params wrong method", http.MethodDelete, "/v1/params", nil, 405, "method_not_allowed", "GET, POST"},
				{"healthz wrong method", http.MethodPost, "/v1/healthz", map[string]any{}, 405, "method_not_allowed", "GET"},
				{"readyz wrong method", http.MethodPost, "/v1/readyz", map[string]any{}, 405, "method_not_allowed", "GET"},
				{"metrics wrong method", http.MethodPost, "/metrics", map[string]any{}, 405, "method_not_allowed", "GET"},

				// Malformed input: 400 invalid_argument.
				{"request unknown field", http.MethodPost, "/v1/requests",
					map[string]any{"s": 1, "d": 2, "riders": 1, "bogus": true}, 400, "invalid_argument", ""},
				{"request no addressing", http.MethodPost, "/v1/requests",
					map[string]any{"riders": 1}, 400, "invalid_argument", ""},
				{"request bad path id", http.MethodGet, "/v1/requests/notanumber", nil, 400, "invalid_argument", ""},
				{"vehicles bad limit", http.MethodGet, "/v1/vehicles?city=" + b.city + "&limit=-1", nil, 400, "invalid_argument", ""},
				{"requests bad limit", http.MethodGet, "/v1/requests?limit=-1", nil, 400, "invalid_argument", ""},
				{"requests bad offset", http.MethodGet, "/v1/requests?offset=-2", nil, 400, "invalid_argument", ""},
				{"requests bad status filter", http.MethodGet, "/v1/requests?status=bogus", nil, 400, "invalid_argument", ""},
				{"tick negative", http.MethodPost, "/v1/ticks",
					map[string]any{"seconds": -1}, 400, "invalid_argument", ""},

				// Unknown resources: 404 with typed codes.
				{"unknown request", http.MethodGet, "/v1/requests/999999", nil, 404, "not_found", ""},
				{"unknown vehicle", http.MethodGet, "/v1/vehicles/999?city=" + b.city, nil, 404, "not_found", ""},
				{"unknown city vehicles", http.MethodGet, "/v1/vehicles?city=atlantis", nil, 404, "unknown_city", ""},
				{"unknown city params", http.MethodGet, "/v1/params?city=atlantis", nil, 404, "unknown_city", ""},
				{"unknown city listing", http.MethodGet, "/v1/requests?city=atlantis", nil, 404, "unknown_city", ""},
				{"unknown relay trip", http.MethodGet, "/v1/relay/999999", nil, 404, "not_found", ""},
				{"choice of unknown id", http.MethodPost, "/v1/requests/999999/choice", map[string]any{"option": 0}, 404, "not_found", ""},
				// Negative ids are the relay namespace; with relay off (or no
				// such trip) they are unknown requests like any other.
				{"choice of unknown negative id", http.MethodPost, "/v1/requests/-1/choice", map[string]any{"option": 0}, 404, "not_found", ""},
				{"decline of unknown negative id", http.MethodPost, "/v1/requests/-1/decline", nil, 404, "not_found", ""},

				// Business rules: 422.
				{"degenerate endpoints", http.MethodPost, "/v1/requests",
					map[string]any{"city": b.city, "s": 1, "d": 1, "riders": 1}, 422, "unprocessable", ""},
				{"bogus algorithm", http.MethodPost, "/v1/params",
					map[string]any{"city": b.city, "algorithm": "bogus"}, 422, "unprocessable", ""},

				// Happy paths.
				{"cities", http.MethodGet, "/v1/cities", nil, 200, "", ""},
				{"stats", http.MethodGet, "/v1/stats", nil, 200, "", ""},
				{"vehicles", http.MethodGet, "/v1/vehicles?city=" + b.city, nil, 200, "", ""},
				{"vehicle itinerary", http.MethodGet, "/v1/vehicles/0?city=" + b.city, nil, 200, "", ""},
				{"params", http.MethodGet, "/v1/params?city=" + b.city, nil, 200, "", ""},
				{"tick", http.MethodPost, "/v1/ticks", map[string]any{"seconds": 0.5}, 200, "", ""},
				{"request listing", http.MethodGet, "/v1/requests", nil, 200, "", ""},
				{"healthz", http.MethodGet, "/v1/healthz", nil, 200, "", ""},
				{"readyz", http.MethodGet, "/v1/readyz", nil, 200, "", ""},
			}
			for _, tc := range cases {
				t.Run(tc.name, func(t *testing.T) {
					resp, out := do(t, tc.method, b.ts.URL+tc.path, tc.body)
					if resp.StatusCode != tc.wantStatus {
						t.Fatalf("status = %d, want %d (%v)", resp.StatusCode, tc.wantStatus, out)
					}
					if got := errCode(t, out); got != tc.wantCode {
						t.Fatalf("error code = %q, want %q (%v)", got, tc.wantCode, out)
					}
					if tc.wantAllow != "" {
						if got := resp.Header.Get("Allow"); got != tc.wantAllow {
							t.Fatalf("Allow = %q, want %q", got, tc.wantAllow)
						}
					}
				})
			}
		})
	}
}

// TestV1RequestLifecycle pins the resource flow — submit, fetch,
// choose, 409 on double-choose, decline — over both backends.
func TestV1RequestLifecycle(t *testing.T) {
	for _, b := range conformanceBackends(t) {
		b := b
		t.Run(b.name, func(t *testing.T) {
			id := submitQuoted(t, b)

			// The record is addressable and city-tagged.
			resp, out := do(t, http.MethodGet, fmt.Sprintf("%s/v1/requests/%d", b.ts.URL, id), nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("get status %d", resp.StatusCode)
			}
			var city, status string
			json.Unmarshal(out["city"], &city)
			json.Unmarshal(out["status"], &status)
			if city != b.city || status != "quoted" {
				t.Fatalf("record city/status = %q/%q", city, status)
			}

			// Commit, then double-commit: 200 then 409 already_chosen.
			resp, out = do(t, http.MethodPost, fmt.Sprintf("%s/v1/requests/%d/choice", b.ts.URL, id),
				map[string]any{"option": 0})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("choice status %d: %v", resp.StatusCode, out)
			}
			resp, out = do(t, http.MethodPost, fmt.Sprintf("%s/v1/requests/%d/choice", b.ts.URL, id),
				map[string]any{"option": 0})
			if resp.StatusCode != http.StatusConflict || errCode(t, out) != "already_chosen" {
				t.Fatalf("double choice = %d %q, want 409 already_chosen", resp.StatusCode, errCode(t, out))
			}

			// Declining a committed request is a business error, not 404.
			resp, _ = do(t, http.MethodPost, fmt.Sprintf("%s/v1/requests/%d/decline", b.ts.URL, id), nil)
			if resp.StatusCode != http.StatusUnprocessableEntity {
				t.Fatalf("decline after choice status %d, want 422", resp.StatusCode)
			}

			// A fresh request declines cleanly.
			id2 := submitQuoted(t, b)
			resp, _ = do(t, http.MethodPost, fmt.Sprintf("%s/v1/requests/%d/decline", b.ts.URL, id2), nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("decline status %d", resp.StatusCode)
			}
			if st, err := requestStatus(b, id2); err != nil || st != "declined" {
				t.Fatalf("declined record = %q, %v", st, err)
			}
		})
	}
}

func requestStatus(b v1Backend, id int64) (string, error) {
	resp, err := http.Get(fmt.Sprintf("%s/v1/requests/%d", b.ts.URL, id))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var out struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return "", err
	}
	return out.Status, nil
}

// TestV1BatchSubmit pins the batch form of POST /v1/requests on both
// backends: one view per item, in order.
func TestV1BatchSubmit(t *testing.T) {
	for _, b := range conformanceBackends(t) {
		b := b
		t.Run(b.name, func(t *testing.T) {
			resp, out := do(t, http.MethodPost, b.ts.URL+"/v1/requests", map[string]any{
				"requests": []map[string]any{
					{"city": b.city, "s": 3, "d": 40, "riders": 1},
					{"city": b.city, "s": 5, "d": 44, "riders": 2},
				},
			})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("batch status %d: %v", resp.StatusCode, out)
			}
			var views []map[string]any
			json.Unmarshal(out["requests"], &views)
			if len(views) != 2 {
				t.Fatalf("batch answered %d views, want 2", len(views))
			}
			ids := map[float64]bool{}
			for i, v := range views {
				if v == nil {
					t.Fatalf("batch item %d failed", i)
				}
				if v["city"] != b.city {
					t.Fatalf("batch item %d city = %v", i, v["city"])
				}
				ids[v["id"].(float64)] = true
			}
			if len(ids) != 2 {
				t.Fatalf("batch ids not distinct: %v", ids)
			}
			// A batch with one bad item still answers the good ones and
			// carries the first error.
			resp, out = do(t, http.MethodPost, b.ts.URL+"/v1/requests", map[string]any{
				"requests": []map[string]any{
					{"city": b.city, "s": 3, "d": 40, "riders": 1},
					{"city": b.city, "s": 2, "d": 2, "riders": 1},
				},
			})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("mixed batch status %d", resp.StatusCode)
			}
			json.Unmarshal(out["requests"], &views)
			if views[0] == nil || views[1] != nil {
				t.Fatalf("mixed batch views = %v", views)
			}
			if _, ok := out["error"]; !ok {
				t.Fatal("mixed batch carries no error envelope")
			}
		})
	}
}

// TestV1BatchErrorNamesCallerItem pins a batch error's item index as
// the caller counts it on every backend, in its message and its "item"
// field. On two cities:
//   - [west ok, east ok, west s == d]: west's sub-batch holds the
//     failing item at index 1, and the answer names item 2 — through the
//     coordinator's per-city mapping, and on the gateway through the
//     shard's batch error too;
//   - [west s == d, east s == d]: both cities' sub-batches fail, and the
//     answer names item 0, the least failed one, as one engine would,
//     not east's item 1 because east comes first in city order.
func TestV1BatchErrorNamesCallerItem(t *testing.T) {
	for _, b := range conformanceBackends(t) {
		b := b
		t.Run(b.name, func(t *testing.T) {
			other := b.city
			if b.numCities > 1 {
				other = "west"
			}
			for _, tc := range []struct {
				items []map[string]any
				want  int
			}{
				{[]map[string]any{
					{"city": other, "s": 3, "d": 40, "riders": 1},
					{"city": b.city, "s": 5, "d": 44, "riders": 1},
					{"city": other, "s": 2, "d": 2, "riders": 1},
				}, 2},
				{[]map[string]any{
					{"city": other, "s": 2, "d": 2, "riders": 1},
					{"city": b.city, "s": 4, "d": 4, "riders": 1},
				}, 0},
			} {
				resp, out := do(t, http.MethodPost, b.ts.URL+"/v1/requests", map[string]any{"requests": tc.items})
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("batch status %d: %v", resp.StatusCode, out)
				}
				var env core.ErrorPayload
				if err := json.Unmarshal(out["error"], &env); err != nil {
					t.Fatalf("batch error %s: %v", out["error"], err)
				}
				if env.Item == nil || *env.Item != tc.want || !strings.Contains(env.Message, fmt.Sprintf("batch item %d: ", tc.want)) {
					t.Fatalf("batch error %s, want item %d", out["error"], tc.want)
				}
			}
		})
	}
}

// TestV1StatsShape pins the uniform composite stats payload (total +
// per-city panels with their sharded-tick TickStats sub-panels, relay
// only when enabled).
func TestV1StatsShape(t *testing.T) {
	for _, b := range conformanceBackends(t) {
		b := b
		t.Run(b.name, func(t *testing.T) {
			// Tick once so the TickStats panel has something to report.
			if resp, out := do(t, http.MethodPost, b.ts.URL+"/v1/ticks",
				map[string]any{"seconds": 1}); resp.StatusCode != http.StatusOK {
				t.Fatalf("tick status %d: %v", resp.StatusCode, out)
			}

			_, out := do(t, http.MethodGet, b.ts.URL+"/v1/stats", nil)
			var cities map[string]core.EngineStats
			if err := json.Unmarshal(out["cities"], &cities); err != nil {
				t.Fatalf("no cities panel: %v", err)
			}
			if len(cities) != b.numCities {
				t.Fatalf("cities panel has %d entries, want %d", len(cities), b.numCities)
			}
			if _, ok := cities[b.city]; !ok {
				t.Fatalf("cities panel misses %q: %v", b.city, cities)
			}
			if _, ok := out["total"]; !ok {
				t.Fatal("no total panel")
			}
			if _, hasRelay := out["relay"]; hasRelay != b.relay {
				t.Fatalf("relay panel presence = %v, want %v", hasRelay, b.relay)
			}

			// The sharded-tick panel: every city reports a resolved
			// shard width and the tick we just drove; the total carries
			// the cross-city aggregate (worker widths sum).
			var total core.EngineStats
			if err := json.Unmarshal(out["total"], &total); err != nil {
				t.Fatalf("total panel: %v", err)
			}
			workerSum := 0
			for name, st := range cities {
				if st.Tick.Workers < 1 {
					t.Fatalf("city %q Tick.Workers = %d, want >= 1", name, st.Tick.Workers)
				}
				if st.Tick.Ticks < 1 {
					t.Fatalf("city %q Tick.Ticks = %d after a tick", name, st.Tick.Ticks)
				}
				workerSum += st.Tick.Workers
			}
			if total.Tick.Workers != workerSum {
				t.Fatalf("total Tick.Workers = %d, want city sum %d", total.Tick.Workers, workerSum)
			}
			if total.Tick.Ticks < 1 {
				t.Fatalf("total Tick.Ticks = %d after a tick", total.Tick.Ticks)
			}

			var citiesList []map[string]any
			resp, err := http.Get(b.ts.URL + "/v1/cities")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if err := json.NewDecoder(resp.Body).Decode(&citiesList); err != nil {
				t.Fatalf("cities decode: %v", err)
			}
			if len(citiesList) != b.numCities || citiesList[0]["name"] == "" {
				t.Fatalf("cities list = %v", citiesList)
			}
		})
	}
}

// TestV1RelayFlow drives a cross-city trip through /v1 on the relay
// backend: coordinate submission, the relay section, the itinerary
// resource, two-phase choice and the 409 on a double-choice.
func TestV1RelayFlow(t *testing.T) {
	router, err := multicity.BuildFromSpecWithConfig("east:10x10:10,west:8x8:8",
		core.Config{Capacity: 4, Algorithm: core.AlgoDualSide}, 5,
		multicity.RouterConfig{EnableRelay: true})
	if err != nil {
		t.Fatalf("router: %v", err)
	}
	ts := httptest.NewServer(server.NewService(router).Handler())
	t.Cleanup(ts.Close)

	engE, _ := router.Engine("east")
	engW, _ := router.Engine("west")
	var id int64
	var out map[string]json.RawMessage
	for attempt := 0; attempt < 50; attempt++ {
		o := engE.Graph().Point(engE.RandomVertex())
		d := engW.Graph().Point(engW.RandomVertex())
		var resp *http.Response
		resp, out = do(t, http.MethodPost, ts.URL+"/v1/requests", map[string]any{
			"ox": o.X, "oy": o.Y, "dx": d.X, "dy": d.Y, "riders": 1,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("relay submit status %d: %v", resp.StatusCode, out)
		}
		var options []json.RawMessage
		json.Unmarshal(out["options"], &options)
		json.Unmarshal(out["id"], &id)
		if len(options) > 0 {
			break
		}
		do(t, http.MethodPost, fmt.Sprintf("%s/v1/requests/%d/decline", ts.URL, id), nil)
		id = 0
	}
	if id >= 0 {
		t.Fatalf("no relay quote produced options (last id %d)", id)
	}
	var rv struct {
		Origin string `json:"origin"`
		Dest   string `json:"dest"`
		State  string `json:"state"`
	}
	if err := json.Unmarshal(out["relay"], &rv); err != nil {
		t.Fatalf("no relay section: %v", err)
	}
	if rv.Origin != "east" || rv.Dest != "west" || rv.State != "quoted" {
		t.Fatalf("relay section = %+v", rv)
	}

	// The itinerary is a /v1 resource of its own.
	resp, out := do(t, http.MethodGet, fmt.Sprintf("%s/v1/relay/%d", ts.URL, id), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("relay resource status %d", resp.StatusCode)
	}

	// Two-phase commit through the ordinary choice verb, then 409.
	resp, out = do(t, http.MethodPost, fmt.Sprintf("%s/v1/requests/%d/choice", ts.URL, id),
		map[string]any{"option": 0})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("relay choice status %d: %v", resp.StatusCode, out)
	}
	resp, out = do(t, http.MethodPost, fmt.Sprintf("%s/v1/requests/%d/choice", ts.URL, id),
		map[string]any{"option": 0})
	if resp.StatusCode != http.StatusConflict || errCode(t, out) != "already_chosen" {
		t.Fatalf("relay double choice = %d %q, want 409 already_chosen", resp.StatusCode, errCode(t, out))
	}
	resp, out = do(t, http.MethodGet, fmt.Sprintf("%s/v1/relay/%d", ts.URL, id), nil)
	var st struct {
		State string `json:"state"`
		Leg1  int64  `json:"leg1"`
		Leg2  int64  `json:"leg2"`
	}
	raw, _ := json.Marshal(out)
	json.Unmarshal(raw, &st)
	if st.State != "leg1-committed" || st.Leg1 == 0 || st.Leg2 == 0 {
		t.Fatalf("relay trip after commit = %+v", st)
	}
}

// TestV1EventsStream pins GET /v1/events: a subscriber receives the
// pickups produced by POST /v1/ticks as typed SSE messages.
func TestV1EventsStream(t *testing.T) {
	b := singleBackend(t)
	id := submitQuoted(t, b)
	resp, out := do(t, http.MethodPost, fmt.Sprintf("%s/v1/requests/%d/choice", b.ts.URL, id),
		map[string]any{"option": 0})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("choice status %d: %v", resp.StatusCode, out)
	}

	stream, err := http.Get(b.ts.URL + "/v1/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if ct := stream.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		t.Fatalf("stream content type %q", ct)
	}
	lines := make(chan string, 64)
	go func() {
		sc := bufio.NewScanner(stream.Body)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()

	// The opening comment confirms the subscription is live before any
	// tick fires.
	select {
	case l := <-lines:
		if !strings.HasPrefix(l, ":") {
			t.Fatalf("first stream line %q is not the open comment", l)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no stream preamble")
	}

	// Tick until the committed pickup fires, watching the stream.
	done := make(chan error, 1)
	go func() {
		deadline := time.After(20 * time.Second)
		var sawEvent, sawData bool
		for {
			select {
			case l, ok := <-lines:
				if !ok {
					done <- fmt.Errorf("stream closed early")
					return
				}
				if l == "event: pickup" {
					sawEvent = true
				}
				if sawEvent && strings.HasPrefix(l, "data: ") && strings.Contains(l, `"kind":"pickup"`) {
					sawData = true
				}
				if sawEvent && sawData {
					done <- nil
					return
				}
			case <-deadline:
				done <- fmt.Errorf("no pickup event on the stream")
				return
			}
		}
	}()
	for i := 0; i < 600; i++ {
		if resp, _ := do(t, http.MethodPost, b.ts.URL+"/v1/ticks", map[string]any{"seconds": 5}); resp.StatusCode != http.StatusOK {
			t.Fatalf("tick status %d", resp.StatusCode)
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			return
		default:
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
