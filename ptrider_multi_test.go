package ptrider_test

import (
	"errors"
	"net/http/httptest"
	"testing"

	"ptrider"
	"ptrider/internal/core"
)

// newMultiSystem builds a relay-enabled two-city system over the public
// surface.
func newMultiSystem(t *testing.T) *ptrider.System {
	t.Helper()
	sys, err := ptrider.NewMulti("east:10x10:10,west:8x8:8", ptrider.MultiConfig{
		Config:                ptrider.Config{Capacity: 4, Seed: 5},
		EnableRelay:           true,
		TransferBufferSeconds: 60,
	})
	if err != nil {
		t.Fatalf("NewMulti: %v", err)
	}
	return sys
}

func TestNewMultiCitiesAndVerbs(t *testing.T) {
	sys := newMultiSystem(t)
	cities := sys.Cities()
	if len(cities) != 2 || cities[0].Name != "east" || cities[1].Name != "west" {
		t.Fatalf("cities = %+v", cities)
	}
	if sys.NumVehicles() != 18 {
		t.Fatalf("vehicles = %d, want 18", sys.NumVehicles())
	}

	// Same-city request through the same verbs a single-city caller
	// uses, addressed by city.
	req, err := sys.RequestIn("east", 3, 40, 1)
	if err != nil {
		t.Fatalf("RequestIn: %v", err)
	}
	if req.City != "east" || req.Relay != nil {
		t.Fatalf("east request = city %q relay %v", req.City, req.Relay)
	}
	if len(req.Options) > 0 {
		if err := sys.Choose(req.ID, 0); err != nil {
			t.Fatalf("Choose: %v", err)
		}
		if st, _ := sys.RequestStatus(req.ID); st != "assigned" {
			t.Fatalf("status = %q", st)
		}
	} else if err := sys.Decline(req.ID); err != nil {
		t.Fatalf("Decline: %v", err)
	}

	// The aggregate and per-city panels line up.
	if sys.Stats().Requests == 0 {
		t.Fatal("no requests counted")
	}
	cs := sys.CityStats()
	if cs["east"].Requests == 0 || cs["west"].Requests != 0 {
		t.Fatalf("per-city requests = %d/%d", cs["east"].Requests, cs["west"].Requests)
	}

	// Ticks advance every city.
	if _, err := sys.Tick(3); err != nil {
		t.Fatalf("Tick: %v", err)
	}
	cs = sys.CityStats()
	if cs["east"].ClockSeconds != 3 || cs["west"].ClockSeconds != 3 {
		t.Fatalf("city clocks = %v/%v", cs["east"].ClockSeconds, cs["west"].ClockSeconds)
	}
}

// TestNewMultiRelayItinerary drives a cross-city trip end to end over
// the public surface: RequestAt quotes the two-leg itinerary, Choose
// commits both legs, RelayItinerary reports the lifecycle.
func TestNewMultiRelayItinerary(t *testing.T) {
	sys := newMultiSystem(t)
	east, west := sys.Cities()[0], sys.Cities()[1]
	ecx, ecy := (east.MinX+east.MaxX)/2, (east.MinY+east.MaxY)/2
	wcx, wcy := (west.MinX+west.MaxX)/2, (west.MinY+west.MaxY)/2

	// Scan coordinate pairs until a relay quote carries options: the
	// origin walks the east region, the destination the west one, so
	// every attempt crosses cities.
	var req ptrider.Request
	found := false
	for attempt := int64(0); attempt < 50 && !found; attempt++ {
		r, err := sys.RequestAt(
			ecx+50*float64(attempt%10), ecy+40*float64(attempt%7),
			wcx-60*float64(attempt%5), wcy+30*float64(attempt%3), 1)
		if err != nil {
			t.Fatalf("RequestAt: %v", err)
		}
		if r.Relay == nil {
			t.Fatalf("cross request has no relay itinerary: %+v", r)
		}
		if len(r.Options) > 0 {
			req, found = r, true
		} else if err := sys.Decline(r.ID); err != nil {
			t.Fatalf("Decline empty relay quote: %v", err)
		}
	}
	if !found {
		t.Skip("no relay quote produced options on this layout")
	}
	if req.ID >= 0 {
		t.Fatalf("relay request id %d not negative", req.ID)
	}
	if req.Relay.Origin != "east" || req.Relay.Dest != "west" || req.Relay.State != "quoted" {
		t.Fatalf("relay itinerary = %+v", req.Relay)
	}
	for i, o := range req.Relay.Options {
		if o.Fare != o.Leg1Price+o.Leg2Price {
			t.Fatalf("option %d fare %v != leg sum", i, o.Fare)
		}
		if req.Options[i].Price != o.Fare {
			t.Fatalf("option %d public price %v != fare %v", i, req.Options[i].Price, o.Fare)
		}
	}

	if err := sys.Choose(req.ID, 0); err != nil {
		t.Fatalf("Choose relay: %v", err)
	}
	it, err := sys.RelayItinerary(req.ID)
	if err != nil {
		t.Fatalf("RelayItinerary: %v", err)
	}
	if it.State != "leg1-committed" || it.Chosen != 0 {
		t.Fatalf("committed itinerary = %+v", it)
	}
	if rs, ok := sys.RelayStats(); !ok || rs.Committed != 1 {
		t.Fatalf("relay stats = %+v ok=%v", rs, ok)
	}
}

// TestMultiHTTPHandlerServesV1 pins that a multi-city System's
// HTTPHandler speaks the same /v1 surface as a single-city one.
func TestMultiHTTPHandlerServesV1(t *testing.T) {
	sys := newMultiSystem(t)
	ts := httptest.NewServer(sys.HTTPHandler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/v1/cities")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("v1 cities status %d", resp.StatusCode)
	}
	resp, err = ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("v1 stats status %d", resp.StatusCode)
	}
}

// TestSingleCityGuards pins the seams between the two kinds of system.
// Both replay through the one loop, so what a system cannot serve is
// refused by its Service with a typed error — not by the facade
// checking which constructor built it — and what it can serve works:
// a single-city system is a one-city Service, so coordinate workloads
// generate and replay on it too.
func TestSingleCityGuards(t *testing.T) {
	sys := newMultiSystem(t)
	// Vertex-addressed trips name no city; the multi-city Service
	// refuses the first of them.
	_, err := sys.RunWorkload([]ptrider.Trip{{ID: 1, S: 3, D: 40, Riders: 1}}, ptrider.SimOptions{})
	if !errors.Is(err, core.ErrInvalidArgument) {
		t.Fatalf("RunWorkload on a multi-city system: %v, want ErrInvalidArgument", err)
	}
	// No multi-city backend can remove vehicles.
	if _, err := sys.RunMultiWorkload(nil, ptrider.SimOptions{FailuresPerHour: 1}); err == nil {
		t.Fatal("failure injection on a multi-city system should fail")
	}

	net, err := ptrider.GenerateCity(ptrider.CityConfig{Width: 8, Height: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	single, err := ptrider.New(net, ptrider.Config{NumTaxis: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// One city has no border to cross.
	if _, err := single.GenerateMultiWorkload(ptrider.MultiWorkloadConfig{NumTrips: 10, CrossFrac: 0.5}); err == nil {
		t.Fatal("cross-city trips on a single-city system should fail")
	}
	trips, err := single.GenerateMultiWorkload(ptrider.MultiWorkloadConfig{NumTrips: 10, DaySeconds: 300, Seed: 1})
	if err != nil || len(trips) != 10 {
		t.Fatalf("GenerateMultiWorkload on a single-city system: %d trips, %v", len(trips), err)
	}
	res, err := single.RunMultiWorkload(trips, ptrider.SimOptions{TickSeconds: 2, Seed: 1})
	if err != nil {
		t.Fatalf("RunMultiWorkload on a single-city system: %v", err)
	}
	if res.Submitted != 10 || res.Accepted+res.Declined+res.NoOption != 10 || res.PerCity["default"].Submitted != 10 {
		t.Fatalf("coordinate replay on one city = %+v", res)
	}
	// A single-city system reports its one implicit city.
	if cities := single.Cities(); len(cities) != 1 || cities[0].Vehicles != 3 {
		t.Fatalf("single cities = %+v", cities)
	}
}
