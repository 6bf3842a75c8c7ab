// surge_api_test.go pins the PR-8 /v1 additions: vehicle pagination
// (?limit=&offset=), the per-city SSE filter on /v1/events, the
// /v1/surge cell view and the surge fields on /v1/params.
package server_test

import (
	"bufio"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ptrider/internal/core"
	"ptrider/internal/pricing/surge"
	"ptrider/internal/server"
	"ptrider/internal/testnet"
)

// surgeBackend is a single-city backend with hair-trigger surge tiers:
// any demand doubles a cell's fares after the next 10 s epoch.
func surgeBackend(t *testing.T) (v1Backend, *core.Engine) {
	t.Helper()
	g := testnet.Lattice(rand.New(rand.NewSource(1)), 8, 8, 100)
	eng, err := core.NewEngine(g, core.Config{
		Capacity:  4,
		Algorithm: core.AlgoDualSide, Seed: 1,
		SurgeEnabled: true, SurgeEpochSeconds: 10, SurgeAlpha: 1,
		SurgeTiers: []surge.Tier{{MinRatio: 0.0001, Multiplier: 2}},
	})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	eng.AddVehiclesUniform(10)
	ts := httptest.NewServer(server.NewService(eng).Handler())
	t.Cleanup(ts.Close)
	return v1Backend{name: "single-city-surge", ts: ts, city: core.DefaultCityName, numCities: 1}, eng
}

// TestV1VehiclesPagination walks the fleet page by page and checks the
// pages tile the full listing without overlap.
func TestV1VehiclesPagination(t *testing.T) {
	for _, b := range conformanceBackends(t) {
		b := b
		t.Run(b.name, func(t *testing.T) {
			type page struct {
				City     string `json:"city"`
				Offset   int    `json:"offset"`
				Count    int    `json:"count"`
				Vehicles []struct {
					ID int32 `json:"id"`
				} `json:"vehicles"`
			}
			var full page
			getJSON(t, b.ts.URL+"/v1/vehicles?city="+b.city, &full)
			if full.Count == 0 || full.Count != len(full.Vehicles) {
				t.Fatalf("full listing count %d over %d vehicles", full.Count, len(full.Vehicles))
			}

			var paged []int32
			pageSize := 4
			for off := 0; off < full.Count; off += pageSize {
				var p page
				url := fmt.Sprintf("%s/v1/vehicles?city=%s&limit=%d&offset=%d", b.ts.URL, b.city, pageSize, off)
				if resp := getJSON(t, url, &p); resp.StatusCode != http.StatusOK {
					t.Fatalf("page at %d: status %d", off, resp.StatusCode)
				}
				if p.Offset != off || p.Count != len(p.Vehicles) {
					t.Fatalf("page at %d: offset %d count %d over %d vehicles", off, p.Offset, p.Count, len(p.Vehicles))
				}
				if p.Count > pageSize {
					t.Fatalf("page at %d overflows the limit: %d", off, p.Count)
				}
				for _, v := range p.Vehicles {
					paged = append(paged, v.ID)
				}
			}
			if len(paged) != full.Count {
				t.Fatalf("pages tiled %d vehicles, full listing has %d", len(paged), full.Count)
			}
			for i, v := range full.Vehicles {
				if paged[i] != v.ID {
					t.Fatalf("page order diverges at %d: %d != %d", i, paged[i], v.ID)
				}
			}

			// Past-the-end offsets produce an empty page, not an error —
			// and the vehicles field stays a JSON array.
			resp, out := do(t, http.MethodGet,
				fmt.Sprintf("%s/v1/vehicles?city=%s&offset=%d", b.ts.URL, b.city, full.Count+50), nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("past-the-end offset: status %d", resp.StatusCode)
			}
			if string(out["vehicles"]) != "[]" {
				t.Fatalf("past-the-end vehicles = %s, want []", out["vehicles"])
			}

			// Negative offsets are rejected like negative limits.
			resp, out = do(t, http.MethodGet, b.ts.URL+"/v1/vehicles?city="+b.city+"&offset=-1", nil)
			if resp.StatusCode != http.StatusBadRequest || errCode(t, out) != "invalid_argument" {
				t.Fatalf("negative offset: status %d code %q", resp.StatusCode, errCode(t, out))
			}
		})
	}
}

// TestV1SurgeEndpoint drives demand over HTTP, crosses an epoch via
// /v1/ticks, and reads the surge state back through /v1/surge and
// /v1/params.
func TestV1SurgeEndpoint(t *testing.T) {
	b, eng := surgeBackend(t)

	// Demand out of vertex 0's cell.
	for i := 0; i < 6; i++ {
		resp, out := do(t, http.MethodPost, b.ts.URL+"/v1/requests",
			map[string]any{"s": 0, "d": 60, "riders": 1})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("submit status %d: %v", resp.StatusCode, out)
		}
	}
	if resp, _ := do(t, http.MethodPost, b.ts.URL+"/v1/ticks", map[string]any{"seconds": 10}); resp.StatusCode != http.StatusOK {
		t.Fatalf("tick status %d", resp.StatusCode)
	}

	var sv struct {
		City         string  `json:"city"`
		Enabled      bool    `json:"enabled"`
		Epoch        uint64  `json:"epoch"`
		EpochSeconds float64 `json:"epoch_seconds"`
		Cols         int     `json:"cols"`
		Rows         int     `json:"rows"`
		Cells        []struct {
			Cell       int     `json:"cell"`
			Multiplier float64 `json:"multiplier"`
			Ratio      float64 `json:"ratio"`
		} `json:"cells"`
	}
	if resp := getJSON(t, b.ts.URL+"/v1/surge", &sv); resp.StatusCode != http.StatusOK {
		t.Fatalf("surge status %d", resp.StatusCode)
	}
	if !sv.Enabled || sv.Epoch != 1 || sv.Cols != 16 || sv.Rows != 16 || sv.EpochSeconds != 10 {
		t.Fatalf("surge view = %+v", sv)
	}
	hotCell := int(eng.Grid().CellOf(0))
	found := false
	for _, c := range sv.Cells {
		if c.Cell == hotCell {
			found = true
			if c.Multiplier != 2 || c.Ratio <= 0 {
				t.Fatalf("hot cell view = %+v", c)
			}
		}
	}
	if !found {
		t.Fatalf("hot cell %d missing from %d surge cells", hotCell, len(sv.Cells))
	}

	var pv struct {
		SurgeEnabled       bool    `json:"surge_enabled"`
		SurgeEpochSeconds  float64 `json:"surge_epoch_seconds"`
		SurgeEpoch         uint64  `json:"surge_epoch"`
		SurgeActiveCells   int     `json:"surge_active_cells"`
		SurgeMaxMultiplier float64 `json:"surge_max_multiplier"`
	}
	getJSON(t, b.ts.URL+"/v1/params", &pv)
	if !pv.SurgeEnabled || pv.SurgeEpoch != 1 || pv.SurgeActiveCells < 1 || pv.SurgeMaxMultiplier != 2 {
		t.Fatalf("params surge fields = %+v", pv)
	}

	// A surge-off backend reports disabled — and /v1/surge still
	// answers rather than 404ing.
	off := singleBackend(t)
	var offView struct {
		Enabled bool `json:"enabled"`
	}
	if resp := getJSON(t, off.ts.URL+"/v1/surge", &offView); resp.StatusCode != http.StatusOK || offView.Enabled {
		t.Fatalf("surge-off backend: status %d view %+v", resp.StatusCode, offView)
	}

	// Wrong method keeps the conformance envelope.
	resp, out := do(t, http.MethodPost, b.ts.URL+"/v1/surge", map[string]any{})
	if resp.StatusCode != http.StatusMethodNotAllowed || errCode(t, out) != "method_not_allowed" {
		t.Fatalf("POST surge: status %d code %q", resp.StatusCode, errCode(t, out))
	}
}

// TestV1EventsCityFilter subscribes two filtered streams to a two-city
// backend, commits a ride in one city, and checks the event reaches
// only that city's stream.
func TestV1EventsCityFilter(t *testing.T) {
	b := multiBackend(t, true)
	id := submitQuoted(t, b) // quoted in b.city ("east")
	if resp, out := do(t, http.MethodPost, fmt.Sprintf("%s/v1/requests/%d/choice", b.ts.URL, id),
		map[string]any{"option": 0}); resp.StatusCode != http.StatusOK {
		t.Fatalf("choice status %d: %v", resp.StatusCode, out)
	}

	subscribe := func(city string) (chan string, *http.Response) {
		stream, err := http.Get(b.ts.URL + "/v1/events?city=" + city)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { stream.Body.Close() })
		lines := make(chan string, 256)
		go func() {
			sc := bufio.NewScanner(stream.Body)
			for sc.Scan() {
				lines <- sc.Text()
			}
			close(lines)
		}()
		// Wait out the open comment so the subscription is live before
		// any tick fires.
		select {
		case l := <-lines:
			if !strings.HasPrefix(l, ":") {
				t.Fatalf("first %s stream line %q is not the open comment", city, l)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("no %s stream preamble", city)
		}
		return lines, stream
	}
	east, _ := subscribe("east")
	west, _ := subscribe("west")

	// Tick until east's committed pickup lands on the east stream.
	deadline := time.After(20 * time.Second)
	sawEast := false
	for !sawEast {
		if resp, _ := do(t, http.MethodPost, b.ts.URL+"/v1/ticks", map[string]any{"seconds": 5}); resp.StatusCode != http.StatusOK {
			t.Fatalf("tick status %d", resp.StatusCode)
		}
	drain:
		for {
			select {
			case l, ok := <-east:
				if !ok {
					t.Fatal("east stream closed early")
				}
				if strings.HasPrefix(l, "data: ") && strings.Contains(l, `"city":"east"`) {
					sawEast = true
				}
				if strings.HasPrefix(l, "data: ") && strings.Contains(l, `"city":"west"`) {
					t.Fatalf("west event leaked onto the east stream: %q", l)
				}
			case <-deadline:
				t.Fatal("no east pickup on the filtered stream")
			default:
				break drain
			}
		}
	}

	// The west stream must have seen nothing but keepalive comments: no
	// ride exists in west, and east's events are filtered out.
	for {
		select {
		case l := <-west:
			if strings.HasPrefix(l, "event: ") || strings.HasPrefix(l, "data: ") {
				t.Fatalf("event leaked onto the west stream: %q", l)
			}
		default:
			return
		}
	}
}
