// golden_test.go pins the /v1 response bodies byte for byte: one fixed
// script of calls runs over the four conformance backends and every
// body is compared with a checked-in file under testdata/v1golden. The
// bodies are the contract — a refactor of the types behind them must
// leave these files untouched. Regenerate deliberately with
//
//	go test ./internal/server -run TestV1GoldenBodies -update
package server_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ptrider/internal/cluster"
	"ptrider/internal/core"
	"ptrider/internal/gen"
	"ptrider/internal/multicity"
	"ptrider/internal/pricing/surge"
	"ptrider/internal/relay"
	"ptrider/internal/server"
	"ptrider/internal/telemetry"
	"ptrider/internal/testnet"
)

var update = flag.Bool("update", false, "rewrite the /v1 golden bodies under testdata/v1golden")

// goldenConfig is the engine configuration every golden backend runs:
// hair-trigger surge tiers — any demand doubles a cell's fares after the
// next 10 s epoch — so the params and surge bodies carry their optional
// fields and a surged cell.
func goldenConfig(seed int64) core.Config {
	return core.Config{
		Capacity: 4, Algorithm: core.AlgoDualSide, Seed: seed,
		SurgeEnabled: true, SurgeEpochSeconds: 10, SurgeAlpha: 1,
		SurgeTiers: []surge.Tier{{MinRatio: 0.0001, Multiplier: 2}},
	}
}

// goldenRelay runs at the default gateway count: each city quotes its
// legs in gateway order, so leg ids — and the bodies — are reproducible.
var goldenRelay = relay.Config{TransferBufferSeconds: 120}

// goldenBackends are the conformance backends rebuilt under the golden
// configuration.
func goldenBackends(t *testing.T) []v1Backend {
	t.Helper()
	serve := func(svc core.Service) *httptest.Server {
		ts := httptest.NewServer(server.NewServiceWithOptions(svc, server.Options{DisableMetrics: true}).Handler())
		t.Cleanup(ts.Close)
		return ts
	}

	g := testnet.Lattice(rand.New(rand.NewSource(1)), 8, 8, 100)
	cfg := goldenConfig(1)
	eng, err := core.NewEngine(g, cfg)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	eng.AddVehiclesUniform(10)
	out := []v1Backend{{name: "single-city", ts: serve(eng), city: core.DefaultCityName, numCities: 1}}

	for _, relayOn := range []bool{true, false} {
		router, err := multicity.BuildFromSpecWithConfig("east:10x10:10,west:8x8:8", goldenConfig(0), 5,
			multicity.RouterConfig{EnableRelay: relayOn, Relay: goldenRelay})
		if err != nil {
			t.Fatalf("router: %v", err)
		}
		name := "two-city-plain"
		if relayOn {
			name = "two-city-relay"
		}
		out = append(out, v1Backend{name: name, ts: serve(router), city: "east", numCities: 2, relay: relayOn})
	}

	newShard := func(w, h int, originX float64, seed int64) string {
		g, err := gen.GenerateNetwork(gen.CityConfig{Width: w, Height: h, OriginX: originX, Seed: seed})
		if err != nil {
			t.Fatalf("gen: %v", err)
		}
		eng, err := core.NewEngine(g, goldenConfig(seed))
		if err != nil {
			t.Fatalf("engine: %v", err)
		}
		eng.AddVehiclesUniform(5)
		shard := httptest.NewServer(cluster.NewShardHandler(eng, cluster.ShardOptions{}))
		t.Cleanup(shard.Close)
		return shard.URL
	}
	east, west := newShard(10, 10, 0, 1), newShard(8, 8, 20000, 2)
	// The params cache never expires mid-script, so whether a GET is
	// served from it does not depend on how fast the script runs.
	gw, err := cluster.NewGateway([]string{"east=" + east, "west=" + west}, cluster.GatewayConfig{
		Client:   cluster.ClientConfig{RetryBackoff: time.Millisecond, CacheTTL: time.Hour},
		Relay:    goldenRelay,
		Registry: telemetry.NewRegistry(),
	})
	if err != nil {
		t.Fatalf("gateway: %v", err)
	}
	t.Cleanup(func() { gw.Close() })
	return append(out, v1Backend{name: "remote-gateway", ts: serve(gw), city: "east", numCities: 2, relay: true})
}

// goldenRun records the bodies of one backend's script run.
type goldenRun struct {
	t      *testing.T
	b      v1Backend
	bodies map[string][]byte
}

// call issues one request and records its body under name. Any 5xx
// fails the run: a golden body must be an answer, not an outage.
func (g *goldenRun) call(name, method, path, body string) []byte {
	g.t.Helper()
	req, err := http.NewRequest(method, g.b.ts.URL+path, strings.NewReader(body))
	if err != nil {
		g.t.Fatalf("%s: %v", name, err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		g.t.Fatalf("%s: %v", name, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		g.t.Fatalf("%s: read: %v", name, err)
	}
	if resp.StatusCode >= 500 {
		g.t.Fatalf("%s: status %d: %s", name, resp.StatusCode, out)
	}
	g.bodies[name] = out
	return out
}

// field decodes one top-level field of a recorded JSON body.
func (g *goldenRun) field(body []byte, key string, v any) {
	g.t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(body, &m); err != nil {
		g.t.Fatalf("decode %q: %v (%s)", key, err, body)
	}
	if err := json.Unmarshal(m[key], v); err != nil {
		g.t.Fatalf("decode %q: %v (%s)", key, err, body)
	}
}

// script drives the fixed call sequence: submit / batch / get / choice /
// decline / listing, the chosen vehicle's schedules, cities, params,
// surge, a cross-city trip (relay section, itinerary, two-phase choice —
// or the typed rejection), surge and params once an epoch has passed,
// ticks with the SSE line they publish, and the default map.
func (g *goldenRun) script() {
	t, city := g.t, g.b.city
	scope := "?city=" + city

	stream, err := http.Get(g.b.ts.URL + "/v1/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	// Sized past every line the script's ticks can publish, so the
	// reader never blocks before the script reads the first message.
	lines := make(chan string, 1024)
	go func() {
		sc := bufio.NewScanner(stream.Body)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	if l := <-lines; !strings.HasPrefix(l, ":") {
		t.Fatalf("stream preamble %q", l)
	}

	sub := g.call("submit", http.MethodPost, "/v1/requests",
		fmt.Sprintf(`{"city":%q,"s":3,"d":40,"riders":1}`, city))
	var id int64
	g.field(sub, "id", &id)
	g.call("batch", http.MethodPost, "/v1/requests", fmt.Sprintf(
		`{"requests":[{"city":%q,"s":5,"d":44,"riders":2},{"city":%q,"s":2,"d":2,"riders":1}]}`, city, city))
	g.call("get_quoted", http.MethodGet, fmt.Sprintf("/v1/requests/%d", id), "")
	g.call("choice", http.MethodPost, fmt.Sprintf("/v1/requests/%d/choice", id), `{"option":0}`)
	assigned := g.call("get_assigned", http.MethodGet, fmt.Sprintf("/v1/requests/%d", id), "")
	var vehicle int32
	g.field(assigned, "vehicle", &vehicle)

	other := g.call("submit_other", http.MethodPost, "/v1/requests",
		fmt.Sprintf(`{"city":%q,"s":1,"d":50,"riders":1,"wait_seconds":200,"sigma":0.5}`, city))
	var otherID int64
	g.field(other, "id", &otherID)
	g.call("decline", http.MethodPost, fmt.Sprintf("/v1/requests/%d/decline", otherID), "")
	g.call("list", http.MethodGet, "/v1/requests", "")
	g.call("list_page", http.MethodGet, "/v1/requests?status=declined&limit=1&offset=1", "")

	g.call("vehicle", http.MethodGet, fmt.Sprintf("/v1/vehicles/%d%s", vehicle, scope), "")
	g.call("vehicles", http.MethodGet, "/v1/vehicles"+scope+"&limit=3", "")
	cities := g.call("cities", http.MethodGet, "/v1/cities", "")
	g.call("params", http.MethodGet, "/v1/params"+scope, "")
	g.call("params_post", http.MethodPost, "/v1/params", fmt.Sprintf(`{"city":%q,"algorithm":"single-side"}`, city))
	g.call("params_after", http.MethodGet, "/v1/params"+scope, "")
	g.call("surge", http.MethodGet, "/v1/surge"+scope, "")

	if g.b.numCities == 2 {
		var cs []struct {
			MinX float64 `json:"min_x"`
			MinY float64 `json:"min_y"`
			MaxX float64 `json:"max_x"`
			MaxY float64 `json:"max_y"`
		}
		if err := json.Unmarshal(cities, &cs); err != nil {
			t.Fatalf("cities: %v", err)
		}
		// A point 30% into the first city to one 70% into the second.
		at := func(i int, f float64) (x, y float64) {
			return cs[i].MinX + f*(cs[i].MaxX-cs[i].MinX), cs[i].MinY + f*(cs[i].MaxY-cs[i].MinY)
		}
		ox, oy := at(0, 0.3)
		dx, dy := at(1, 0.7)
		cross := g.call("relay_submit", http.MethodPost, "/v1/requests",
			fmt.Sprintf(`{"ox":%g,"oy":%g,"dx":%g,"dy":%g,"riders":1}`, ox, oy, dx, dy))
		if g.b.relay {
			var rid int64
			g.field(cross, "id", &rid)
			g.call("relay", http.MethodGet, fmt.Sprintf("/v1/relay/%d", rid), "")
			g.call("relay_choice", http.MethodPost, fmt.Sprintf("/v1/requests/%d/choice", rid), `{"option":0}`)
			g.call("relay_committed", http.MethodGet, fmt.Sprintf("/v1/relay/%d", rid), "")
			g.call("relay_get", http.MethodGet, fmt.Sprintf("/v1/requests/%d", rid), "")
		}
	}

	// One surge epoch: the demand submitted above surges its cells.
	g.call("tick_first", http.MethodPost, "/v1/ticks", `{"seconds":10}`)
	g.call("surge_ticked", http.MethodGet, "/v1/surge"+scope, "")
	g.call("params_ticked", http.MethodGet, "/v1/params"+scope, "")
	for i := 0; ; i++ {
		if i == 200 {
			t.Fatal("no movement event in 200 ticks")
		}
		body := g.call("tick_events", http.MethodPost, "/v1/ticks", `{"seconds":10}`)
		var events []json.RawMessage
		g.field(body, "events", &events)
		if len(events) > 0 {
			break
		}
	}
	var msg []string
	for len(msg) == 0 || !strings.HasPrefix(msg[len(msg)-1], "data: ") {
		select {
		case l, ok := <-lines:
			if !ok {
				t.Fatal("stream closed before an event")
			}
			if l != "" {
				msg = append(msg, l)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("no event on the stream")
		}
	}
	g.bodies["sse"] = []byte(strings.Join(msg, "\n") + "\n")

	mapPath := "/v1/map"
	if g.b.numCities == 2 {
		mapPath += scope
	}
	g.call("map", http.MethodGet, mapPath, "")
}

// TestV1GoldenBodies runs the script on every backend and compares each
// body with its golden file (or rewrites the files under -update).
func TestV1GoldenBodies(t *testing.T) {
	for _, b := range goldenBackends(t) {
		t.Run(b.name, func(t *testing.T) {
			g := &goldenRun{t: t, b: b, bodies: map[string][]byte{}}
			g.script()
			dir := filepath.Join("testdata", "v1golden", b.name)
			if *update {
				if err := os.MkdirAll(dir, 0o755); err != nil {
					t.Fatal(err)
				}
			}
			for name, body := range g.bodies {
				path := filepath.Join(dir, name)
				if *update {
					if err := os.WriteFile(path, body, 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Errorf("%s: %v (run with -update to create it)", name, err)
					continue
				}
				if !bytes.Equal(body, want) {
					t.Errorf("%s body changed:\n got %s\nwant %s", name, body, want)
				}
			}
		})
	}
}
