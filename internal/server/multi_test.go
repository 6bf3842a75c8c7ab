package server_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ptrider/internal/core"
	"ptrider/internal/multicity"
	"ptrider/internal/server"
)

// newMultiServer spins up a two-city router behind the multi-city HTTP
// layer.
func newMultiServer(t *testing.T) (*httptest.Server, *multicity.Router) {
	t.Helper()
	router, err := multicity.BuildFromSpec("east:8x8:6,west:6x6:4",
		core.Config{Capacity: 4, Algorithm: core.AlgoDualSide}, 5)
	if err != nil {
		t.Fatalf("router: %v", err)
	}
	ts := httptest.NewServer(server.NewService(router).Handler())
	t.Cleanup(ts.Close)
	return ts, router
}

func TestMultiCitiesEndpoint(t *testing.T) {
	ts, _ := newMultiServer(t)
	var cities []map[string]any
	resp := getJSON(t, ts.URL+"/v1/cities", &cities)
	if resp.StatusCode != http.StatusOK || len(cities) != 2 {
		t.Fatalf("cities = %d: %v", resp.StatusCode, cities)
	}
	if cities[0]["name"] != "east" || cities[1]["name"] != "west" {
		t.Fatalf("city names = %v", cities)
	}
	if cities[0]["vehicles"].(float64) != 6 || cities[1]["vehicles"].(float64) != 4 {
		t.Fatalf("city fleets = %v", cities)
	}
}

func TestMultiRequestByCityAndVertex(t *testing.T) {
	ts, router := newMultiServer(t)
	resp, out, id := submitV1(t, ts, map[string]any{
		"city": "west", "s": 3, "d": 30, "riders": 1,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request status %d: %v", resp.StatusCode, out)
	}
	var city string
	json.Unmarshal(out["city"], &city)
	if city != "west" {
		t.Fatalf("record city = %q", city)
	}
	if id == 0 {
		t.Fatal("no id in response")
	}

	// The id is global: the router resolves it back to west's record.
	rec, err := router.GetRequest(core.RequestID(id))
	if err != nil || rec.City != "west" {
		t.Fatalf("router record: %+v, %v", rec, err)
	}

	// GET the record back over HTTP, choose or decline.
	var got map[string]json.RawMessage
	getJSON(t, fmt.Sprintf("%s/v1/requests/%d", ts.URL, id), &got)
	var options []map[string]any
	json.Unmarshal(got["options"], &options)
	if len(options) > 0 {
		if resp, _ := chooseV1(t, ts, id, 0); resp.StatusCode != http.StatusOK {
			t.Fatalf("choose status %d", resp.StatusCode)
		}
	} else {
		if resp, _ := do(t, http.MethodPost, fmt.Sprintf("%s/v1/requests/%d/decline", ts.URL, id), nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("decline status %d", resp.StatusCode)
		}
	}
}

func TestMultiRequestByCoordinatesAndCrossCity(t *testing.T) {
	ts, router := newMultiServer(t)
	east, _ := router.Engine("east")
	west, _ := router.Engine("west")
	eo := east.Graph().Point(2)
	ed := east.Graph().Point(50)
	wo := west.Graph().Point(1)

	resp, out := postJSON(t, ts.URL+"/v1/requests", map[string]any{
		"ox": eo.X, "oy": eo.Y, "dx": ed.X, "dy": ed.Y, "riders": 1,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("coord request status %d: %v", resp.StatusCode, out)
	}
	var city string
	json.Unmarshal(out["city"], &city)
	if city != "east" {
		t.Fatalf("coord request city = %q, want east", city)
	}

	// Cross-city pair: typed rejection surfaces as 422 with the city
	// pair in the structured error envelope.
	resp, out = postJSON(t, ts.URL+"/v1/requests", map[string]any{
		"ox": eo.X, "oy": eo.Y, "dx": wo.X, "dy": wo.Y, "riders": 1,
	})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("cross-city status = %d, want 422", resp.StatusCode)
	}
	var envelope struct {
		Code    string `json:"code"`
		Message string `json:"message"`
		Origin  string `json:"origin"`
		Dest    string `json:"dest"`
	}
	json.Unmarshal(out["error"], &envelope)
	if envelope.Code != "cross_city" || envelope.Origin != "east" || envelope.Dest != "west" {
		t.Fatalf("cross-city envelope %+v lacks detail", envelope)
	}
	if !strings.Contains(envelope.Message, "cross-city") {
		t.Fatalf("cross-city message %q lacks detail", envelope.Message)
	}

	// Underspecified body: neither addressing mode.
	resp, _ = postJSON(t, ts.URL+"/v1/requests", map[string]any{"riders": 1})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("underspecified request status = %d, want 400", resp.StatusCode)
	}
}

func TestMultiStatsHasCityDimension(t *testing.T) {
	ts, router := newMultiServer(t)
	// Traffic in east only: the west panel must stay clean.
	if _, err := router.SubmitRequest(core.SubmitSpec{City: "east", S: 1, D: 40, Riders: 1, Constraints: core.DefaultConstraints()}); err != nil {
		t.Fatalf("submit east: %v", err)
	}

	var out map[string]json.RawMessage
	getJSON(t, ts.URL+"/v1/stats", &out)
	var total core.EngineStats
	var cities map[string]core.EngineStats
	json.Unmarshal(out["total"], &total)
	json.Unmarshal(out["cities"], &cities)
	if cities["east"].Requests != 1 || cities["west"].Requests != 0 {
		t.Fatalf("per-city requests = %d/%d", cities["east"].Requests, cities["west"].Requests)
	}
	if total.Requests != 1 {
		t.Fatalf("total requests = %d", total.Requests)
	}
	if total.ActiveVehicles != 10 {
		t.Fatalf("total vehicles = %d, want 10", total.ActiveVehicles)
	}
}

func TestMultiTickAdvancesAllCities(t *testing.T) {
	ts, router := newMultiServer(t)
	resp, out := postJSON(t, ts.URL+"/v1/ticks", map[string]any{"seconds": 4})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tick status %d: %v", resp.StatusCode, out)
	}
	var clock float64
	json.Unmarshal(out["clock"], &clock)
	if clock != 4 {
		t.Fatalf("clock = %v", clock)
	}
	st := router.ServiceStats()
	if st.Cities["east"].Clock != 4 || st.Cities["west"].Clock != 4 {
		t.Fatalf("city clocks = %v / %v", st.Cities["east"].Clock, st.Cities["west"].Clock)
	}

	// Caller error classification carries over: negative seconds is 400.
	resp, _ = postJSON(t, ts.URL+"/v1/ticks", map[string]any{"seconds": -2})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative tick status = %d, want 400", resp.StatusCode)
	}
	if st := router.ServiceStats(); st.Total.Clock != 4 {
		t.Fatalf("negative tick moved clock to %v", st.Total.Clock)
	}
}

func TestMultiCityScopedViews(t *testing.T) {
	ts, _ := newMultiServer(t)

	// vehicles needs a city.
	r, err := http.Get(ts.URL + "/v1/vehicles")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing city status = %d, want 400", r.StatusCode)
	}

	var out map[string]json.RawMessage
	resp := getJSON(t, ts.URL+"/v1/vehicles?city=east", &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("vehicles status %d", resp.StatusCode)
	}
	var vehicles []map[string]any
	json.Unmarshal(out["vehicles"], &vehicles)
	if len(vehicles) != 6 {
		t.Fatalf("east vehicles = %d, want 6", len(vehicles))
	}

	// Unknown city is 404.
	r, err = http.Get(ts.URL + "/v1/vehicles?city=atlantis")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown city status = %d, want 404", r.StatusCode)
	}

	// taxi and params are city-scoped too.
	var taxi map[string]any
	resp = getJSON(t, ts.URL+"/v1/vehicles/0?city=west", &taxi)
	if resp.StatusCode != http.StatusOK || taxi["city"] != "west" {
		t.Fatalf("taxi view = %d %v", resp.StatusCode, taxi)
	}
	var params map[string]any
	resp = getJSON(t, ts.URL+"/v1/params?city=west", &params)
	if resp.StatusCode != http.StatusOK || params["city"] != "west" {
		t.Fatalf("params view = %d %v", resp.StatusCode, params)
	}

	// Per-city algorithm switch touches only that city.
	resp, _ = postJSON(t, ts.URL+"/v1/params", map[string]any{"city": "west", "algorithm": "naive"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("params post status %d", resp.StatusCode)
	}
	var eastParams map[string]any
	getJSON(t, ts.URL+"/v1/params?city=east", &eastParams)
	if eastParams["algorithm"] != "dual-side" {
		t.Fatalf("east algorithm changed to %v", eastParams["algorithm"])
	}

	// The map renders per city.
	r, err = http.Get(ts.URL + "/v1/map?city=east&width=40&height=20")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("map status %d", r.StatusCode)
	}
	if ct := r.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("map content type %q", ct)
	}
}

// newRelayMultiServer spins a relay-enabled two-city router behind the
// multi-city HTTP layer.
func newRelayMultiServer(t *testing.T) (*httptest.Server, *multicity.Router) {
	t.Helper()
	router, err := multicity.BuildFromSpecWithConfig("east:10x10:10,west:8x8:8",
		core.Config{Capacity: 4, Algorithm: core.AlgoDualSide}, 5,
		multicity.RouterConfig{EnableRelay: true})
	if err != nil {
		t.Fatalf("router: %v", err)
	}
	ts := httptest.NewServer(server.NewService(router).Handler())
	t.Cleanup(ts.Close)
	return ts, router
}

// relayRequestHTTP posts cross-city coordinate requests until one
// quotes a non-empty joint skyline, returning its decoded body.
func relayRequestHTTP(t *testing.T, ts *httptest.Server, router *multicity.Router) map[string]json.RawMessage {
	t.Helper()
	engE, _ := router.Engine("east")
	engW, _ := router.Engine("west")
	ge, gw := engE.Graph(), engW.Graph()
	for attempt := 0; attempt < 50; attempt++ {
		o := ge.Point(engE.RandomVertex())
		d := gw.Point(engW.RandomVertex())
		resp, out := postJSON(t, ts.URL+"/v1/requests", map[string]any{
			"ox": o.X, "oy": o.Y, "dx": d.X, "dy": d.Y, "riders": 1,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("relay request status %d: %v", resp.StatusCode, out)
		}
		var options []map[string]any
		json.Unmarshal(out["options"], &options)
		if len(options) > 0 {
			return out
		}
		var id int64
		json.Unmarshal(out["id"], &id)
		do(t, http.MethodPost, fmt.Sprintf("%s/v1/requests/%d/decline", ts.URL, id), nil)
	}
	t.Fatal("no relay quote produced options in 50 attempts")
	return nil
}

func TestMultiRelayRequestChooseAndStatus(t *testing.T) {
	ts, router := newRelayMultiServer(t)
	out := relayRequestHTTP(t, ts, router)

	var id int64
	json.Unmarshal(out["id"], &id)
	if id >= 0 {
		t.Fatalf("relay record id %d not negative", id)
	}
	var rv struct {
		Origin  string `json:"origin"`
		Dest    string `json:"dest"`
		State   string `json:"state"`
		Options []struct {
			Fare      float64 `json:"fare"`
			Leg1Price float64 `json:"leg1_price"`
			Leg2Price float64 `json:"leg2_price"`
		} `json:"options"`
	}
	if err := json.Unmarshal(out["relay"], &rv); err != nil {
		t.Fatalf("no relay section: %v (%s)", err, out["relay"])
	}
	if rv.Origin != "east" || rv.Dest != "west" || rv.State != "quoted" {
		t.Fatalf("relay section = %+v", rv)
	}
	for i, o := range rv.Options {
		if o.Fare != o.Leg1Price+o.Leg2Price {
			t.Fatalf("option %d fare %v != leg sum", i, o.Fare)
		}
	}

	// Choose commits both legs through the ordinary choose endpoint.
	resp, body := chooseV1(t, ts, id, 0)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("choose status %d: %v", resp.StatusCode, body)
	}

	// The relay status endpoint reports the committed trip.
	var st struct {
		State string `json:"state"`
		Leg1  int64  `json:"leg1"`
		Leg2  int64  `json:"leg2"`
	}
	resp = getJSON(t, fmt.Sprintf("%s/v1/relay/%d", ts.URL, id), &st)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("relay status %d", resp.StatusCode)
	}
	if st.State != "leg1-committed" || st.Leg1 == 0 || st.Leg2 == 0 {
		t.Fatalf("relay trip status = %+v", st)
	}
	// The itinerary has one address: the query form is not a route.
	q, err := http.Get(fmt.Sprintf("%s/v1/relay?id=%d", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	q.Body.Close()
	if q.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /v1/relay?id=%d = %d, want 404", id, q.StatusCode)
	}

	// The stats panel carries the relay section.
	var stats map[string]json.RawMessage
	getJSON(t, ts.URL+"/v1/stats", &stats)
	var rstats struct {
		Quoted    int64 `json:"Quoted"`
		Committed int64 `json:"Committed"`
	}
	if err := json.Unmarshal(stats["relay"], &rstats); err != nil {
		t.Fatalf("stats relay section: %v", err)
	}
	if rstats.Quoted == 0 || rstats.Committed != 1 {
		t.Fatalf("relay stats = %+v", rstats)
	}

	// Ticking advances the trip's ledger alongside the fleets.
	resp, body = postJSON(t, ts.URL+"/v1/ticks", map[string]any{"seconds": 5})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tick status %d: %v", resp.StatusCode, body)
	}
}

func TestMultiRelayDisabled(t *testing.T) {
	ts, _ := newMultiServer(t)
	r, err := http.Get(ts.URL + "/v1/relay/-1")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("relay endpoint without relay = %d, want 404", r.StatusCode)
	}
}
