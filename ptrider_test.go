package ptrider_test

import (
	"encoding/json"
	"net/http/httptest"
	"testing"

	"ptrider"
)

func testCity(t *testing.T) *ptrider.Network {
	t.Helper()
	net, err := ptrider.GenerateCity(ptrider.CityConfig{Width: 12, Height: 12, Seed: 1})
	if err != nil {
		t.Fatalf("GenerateCity: %v", err)
	}
	return net
}

// TestSystemRandomVertexAndDecline covers the two facade verbs the
// examples lean on: RandomVertex draws ids inside a single city's
// network (and answers 0 on a multi-city system, whose vertex ids are
// per city), and Decline closes a quoted request for good.
func TestSystemRandomVertexAndDecline(t *testing.T) {
	net := testCity(t)
	sys, err := ptrider.New(net, ptrider.Config{NumTaxis: 15, Seed: 3})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	seen := map[ptrider.VertexID]bool{}
	for i := 0; i < 100; i++ {
		v := sys.RandomVertex()
		if v < 0 || int(v) >= net.NumVertices() {
			t.Fatalf("RandomVertex = %d outside [0, %d)", v, net.NumVertices())
		}
		seen[v] = true
	}
	if len(seen) < 10 {
		t.Fatalf("100 draws hit only %d vertices", len(seen))
	}

	req, err := sys.Request(5, 100, 1)
	if err != nil || len(req.Options) == 0 {
		t.Fatalf("Request: %v (%d options)", err, len(req.Options))
	}
	if err := sys.Decline(req.ID); err != nil {
		t.Fatalf("Decline: %v", err)
	}
	if status, err := sys.RequestStatus(req.ID); err != nil || status != "declined" {
		t.Fatalf("status = %q, %v", status, err)
	}
	if err := sys.Decline(req.ID); err == nil {
		t.Fatal("second Decline accepted")
	}
	if err := sys.Choose(req.ID, 0); err == nil {
		t.Fatal("Choose after Decline accepted")
	}
	if err := sys.Decline(req.ID + 1000); err == nil {
		t.Fatal("Decline of an unknown request accepted")
	}

	multi, err := ptrider.NewMulti("a:6x6:2,b:6x6:2", ptrider.MultiConfig{})
	if err != nil {
		t.Fatalf("NewMulti: %v", err)
	}
	if v := multi.RandomVertex(); v != 0 {
		t.Fatalf("multi-city RandomVertex = %d, want 0", v)
	}
}

func TestNewNetworkValidation(t *testing.T) {
	pts := []ptrider.Point{{0, 0}, {100, 0}, {200, 0}}
	if _, err := ptrider.NewNetwork(pts, []ptrider.Edge{{U: 0, V: 1, Weight: 100}}); err == nil {
		t.Error("disconnected network accepted")
	}
	if _, err := ptrider.NewNetwork(pts, []ptrider.Edge{{U: 0, V: 9, Weight: 1}}); err == nil {
		t.Error("edge to unknown vertex accepted")
	}
	net, err := ptrider.NewNetwork(pts, []ptrider.Edge{
		{U: 0, V: 1, Weight: 100}, {U: 1, V: 2, Weight: 100},
	})
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	if net.NumVertices() != 3 || net.NumRoads() != 2 {
		t.Fatalf("network shape: %d vertices %d roads", net.NumVertices(), net.NumRoads())
	}
	if p := net.VertexPoint(1); p.X != 100 || p.Y != 0 {
		t.Fatalf("VertexPoint = %+v", p)
	}
}

func TestSystemRequestChooseTick(t *testing.T) {
	sys, err := ptrider.New(testCity(t), ptrider.Config{NumTaxis: 15, Seed: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if sys.NumVehicles() != 15 {
		t.Fatalf("NumVehicles = %d", sys.NumVehicles())
	}
	req, err := sys.Request(5, 100, 2)
	if err != nil {
		t.Fatalf("Request: %v", err)
	}
	if len(req.Options) == 0 {
		t.Fatal("no options")
	}
	for i, o := range req.Options {
		if o.Index != i {
			t.Fatalf("option %d has Index %d", i, o.Index)
		}
		if o.PickupSeconds < 0 || o.Price <= 0 {
			t.Fatalf("implausible option %+v", o)
		}
		if i > 0 && o.PickupSeconds < req.Options[i-1].PickupSeconds {
			t.Fatal("options not time-sorted")
		}
	}
	if err := sys.Choose(req.ID, 0); err != nil {
		t.Fatalf("Choose: %v", err)
	}
	status, err := sys.RequestStatus(req.ID)
	if err != nil || status != "assigned" {
		t.Fatalf("status = %q, %v", status, err)
	}

	completed := false
	for i := 0; i < 2000 && !completed; i++ {
		events, err := sys.Tick(1)
		if err != nil {
			t.Fatalf("Tick: %v", err)
		}
		for _, e := range events {
			if e.Kind == "dropoff" && e.Request == req.ID {
				completed = true
			}
		}
	}
	if !completed {
		t.Fatal("request never completed")
	}
	st := sys.Stats()
	if st.Completed != 1 || st.Requests != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestVehicleSchedulesAndAlgorithmSwitch(t *testing.T) {
	sys, err := ptrider.New(testCity(t), ptrider.Config{NumTaxis: 5, Algorithm: "single-side", Seed: 3})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	req, err := sys.Request(3, 97, 1)
	if err != nil || len(req.Options) == 0 {
		t.Fatalf("Request: %v (%d options)", err, len(req.Options))
	}
	if err := sys.Choose(req.ID, 0); err != nil {
		t.Fatalf("Choose: %v", err)
	}
	veh := req.Options[0].Vehicle
	loc, schedules, err := sys.VehicleSchedules(veh)
	if err != nil {
		t.Fatalf("VehicleSchedules: %v", err)
	}
	if len(schedules) == 0 {
		t.Fatal("no schedules after assignment")
	}
	_ = loc
	if err := sys.SetAlgorithm("dual-side"); err != nil {
		t.Fatalf("SetAlgorithm: %v", err)
	}
	if err := sys.SetAlgorithm("bogus"); err == nil {
		t.Fatal("bogus algorithm accepted")
	}
	if _, err := ptrider.New(testCity(t), ptrider.Config{Algorithm: "bogus"}); err == nil {
		t.Fatal("bogus algorithm accepted at construction")
	}
}

func TestGenerateWorkloadAndRun(t *testing.T) {
	net := testCity(t)
	trips, err := ptrider.GenerateWorkload(net, ptrider.WorkloadConfig{
		NumTrips: 50, DaySeconds: 400, Seed: 4,
	})
	if err != nil {
		t.Fatalf("GenerateWorkload: %v", err)
	}
	if len(trips) != 50 {
		t.Fatalf("trips = %d", len(trips))
	}
	sys, err := ptrider.New(net, ptrider.Config{NumTaxis: 12, Seed: 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := sys.RunWorkload(trips, ptrider.SimOptions{TickSeconds: 2, Choice: "cheapest", Seed: 4})
	if err != nil {
		t.Fatalf("RunWorkload: %v", err)
	}
	if res.Submitted != 50 || res.Accepted == 0 {
		t.Fatalf("result = %+v", res)
	}
	if res.Stats.Completed == 0 {
		t.Fatal("nothing completed")
	}
	if _, err := sys.RunWorkload(trips, ptrider.SimOptions{Choice: "bogus"}); err == nil {
		t.Fatal("bogus choice model accepted")
	}
}

func TestHTTPHandler(t *testing.T) {
	sys, err := ptrider.New(testCity(t), ptrider.Config{NumTaxis: 5, Seed: 5})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(sys.HTTPHandler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatalf("GET stats: %v", err)
	}
	defer resp.Body.Close()
	var st struct {
		Total map[string]any `json:"total"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if _, ok := st.Total["ActiveVehicles"]; !ok {
		t.Fatalf("stats = %v", st)
	}
}
