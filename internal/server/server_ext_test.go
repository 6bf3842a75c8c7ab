package server_test

import "testing"

func TestVehiclesEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	var page struct {
		City     string `json:"city"`
		Vehicles []struct {
			ID       int32   `json:"id"`
			Location int32   `json:"location"`
			X        float64 `json:"x"`
			Y        float64 `json:"y"`
			Onboard  int     `json:"onboard"`
			Pending  int     `json:"pending_requests"`
		} `json:"vehicles"`
	}
	getJSON(t, ts.URL+"/v1/vehicles", &page)
	if page.City != "default" || len(page.Vehicles) != 10 {
		t.Fatalf("vehicles = %d in %q, want 10 in the default city", len(page.Vehicles), page.City)
	}
	for _, v := range page.Vehicles {
		if v.Onboard != 0 || v.Pending != 0 {
			t.Fatalf("fresh vehicle with load: %+v", v)
		}
	}
}

func TestRequestWithConstraintOverrides(t *testing.T) {
	ts, eng := newTestServer(t)
	// σ = 0: no detour allowed for this rider.
	zero := 0.0
	_, out, id := submitV1(t, ts, map[string]any{
		"s": 3, "d": 40, "riders": 1, "wait_seconds": 60, "sigma": zero,
	})
	if id == 0 {
		t.Fatalf("no id in %v", out)
	}
	rec, err := eng.GetRequest(1)
	if err != nil {
		t.Fatalf("engine record: %v", err)
	}
	if rec.WaitSeconds != 60 || rec.Sigma != 0 {
		t.Fatalf("constraints not applied: wait=%v sigma=%v", rec.WaitSeconds, rec.Sigma)
	}

	// Omitted sigma keeps the global.
	submitV1(t, ts, map[string]any{"s": 5, "d": 44, "riders": 1})
	rec, err = eng.GetRequest(2)
	if err != nil {
		t.Fatalf("engine record 2: %v", err)
	}
	if rec.Sigma != eng.Config().Sigma {
		t.Fatalf("global sigma not applied: %v", rec.Sigma)
	}
}
