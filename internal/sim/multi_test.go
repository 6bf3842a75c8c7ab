package sim_test

import (
	"testing"

	"ptrider/internal/core"
	"ptrider/internal/gen"
	"ptrider/internal/geo"
	"ptrider/internal/multicity"
	"ptrider/internal/sim"
)

func twinRouter(t *testing.T) *multicity.Router {
	t.Helper()
	r, err := multicity.BuildFromSpecWithConfig("east:8x8:8,west:6x6:6",
		core.Config{Capacity: 4, Algorithm: core.AlgoDualSide}, 17, multicity.RouterConfig{})
	if err != nil {
		t.Fatalf("router: %v", err)
	}
	return r
}

// locate names the city whose service region contains p.
func locate(svc core.Service, p geo.Point) (string, error) {
	for _, c := range svc.Cities() {
		if (geo.Rect{Min: geo.Point{X: c.MinX, Y: c.MinY}, Max: geo.Point{X: c.MaxX, Y: c.MaxY}}).Contains(p) {
			return c.Name, nil
		}
	}
	return "", core.ErrNoCity
}

func TestGenerateMultiWorkloadSkewAndCross(t *testing.T) {
	r := twinRouter(t)
	trips, err := sim.GenerateMultiWorkload(r, gen.TripConfig{NumTrips: 200, DaySeconds: 3600, Seed: 17}, map[string]float64{"east": 3, "west": 1}, 0.2)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	if len(trips) != 200 {
		t.Fatalf("trip count = %d, want 200", len(trips))
	}

	perCity := map[string]int{}
	cross := 0
	for i, tr := range trips {
		if i > 0 && tr.Time < trips[i-1].Time {
			t.Fatalf("trips not sorted at %d", i)
		}
		perCity[tr.City]++
		origin, err := locate(r, tr.O)
		if err != nil || origin != tr.City {
			t.Fatalf("trip %d origin locates to %q (%v), labelled %q", i, origin, err, tr.City)
		}
		dest, err := locate(r, tr.D)
		if err != nil {
			t.Fatalf("trip %d destination outside all cities: %v", i, err)
		}
		if tr.Cross {
			cross++
			if dest == tr.City {
				t.Fatalf("trip %d marked cross but stays in %q", i, tr.City)
			}
		} else if dest != tr.City {
			t.Fatalf("trip %d not marked cross but leaves %q for %q", i, tr.City, dest)
		}
	}
	// 3:1 skew on 200 trips: east gets 150 by construction.
	if perCity["east"] != 150 || perCity["west"] != 50 {
		t.Fatalf("skew = %v, want east 150 / west 50", perCity)
	}
	// CrossFrac 0.2 over 200 trips: expect a healthy band around 40.
	if cross < 15 || cross > 80 {
		t.Fatalf("cross trips = %d, outside sane band for frac 0.2", cross)
	}

	// Validation paths.
	if _, err := sim.GenerateMultiWorkload(r, gen.TripConfig{NumTrips: 0}, nil, 0); err == nil {
		t.Error("zero trips accepted")
	}
	if _, err := sim.GenerateMultiWorkload(r, gen.TripConfig{NumTrips: 10}, nil, 1); err == nil {
		t.Error("CrossFrac 1 accepted")
	}
	if _, err := sim.GenerateMultiWorkload(r, gen.TripConfig{NumTrips: 10}, map[string]float64{"east": 0, "west": 0}, 0); err == nil {
		t.Error("all-zero weights accepted")
	}
	if _, err := sim.GenerateMultiWorkload(r, gen.TripConfig{NumTrips: 10}, map[string]float64{"esat": 3}, 0); err == nil {
		t.Error("weight for unknown city accepted")
	}
	if _, err := sim.Run(r, nil, sim.Config{FailuresPerHour: 2}); err == nil {
		t.Error("unsupported failure injection accepted")
	}

	// A zero-weight city must receive no trips, including the rounding
	// remainder.
	zeroed, err := sim.GenerateMultiWorkload(r, gen.TripConfig{NumTrips: 101, DaySeconds: 600, Seed: 19}, map[string]float64{"east": 1, "west": 0}, 0)
	if err != nil {
		t.Fatalf("zero-weight generate: %v", err)
	}
	if len(zeroed) != 101 {
		t.Fatalf("zero-weight trip count = %d, want 101", len(zeroed))
	}
	for i, tr := range zeroed {
		if tr.City == "west" {
			t.Fatalf("trip %d landed in zero-weight west", i)
		}
	}
}

func TestRunMultiServesTwoCitiesWithIsolatedStats(t *testing.T) {
	r := twinRouter(t)
	trips, err := sim.GenerateMultiWorkload(r, gen.TripConfig{NumTrips: 120, DaySeconds: 900, Seed: 18}, map[string]float64{"east": 2, "west": 1}, 0.15)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	res, err := sim.Run(r, sim.CoordTrips(trips), sim.Config{TickSeconds: 2, Seed: 18})
	if err != nil {
		t.Fatalf("run: %v", err)
	}

	if res.Submitted != 120 {
		t.Fatalf("submitted = %d", res.Submitted)
	}
	if res.CrossRejected == 0 {
		t.Fatal("no cross-city rejections despite CrossFrac")
	}
	if res.NoCity != 0 {
		t.Fatalf("generated trips fell outside all cities: %d", res.NoCity)
	}
	served := res.Accepted + res.Declined + res.NoOption
	if served+res.CrossRejected != res.Submitted {
		t.Fatalf("accounting: %d served + %d rejected != %d submitted", served, res.CrossRejected, res.Submitted)
	}
	if res.PerCity["east"].Submitted == 0 || res.PerCity["west"].Submitted == 0 {
		t.Fatalf("a city saw no traffic: %+v", res.PerCity)
	}

	// Per-city engine panels agree with the per-city accounting, and
	// the aggregate is their sum — the isolation the router promises.
	for _, name := range []string{"east", "west"} {
		if got := res.Stats.Cities[name].Requests; got != int64(res.PerCity[name].Submitted) {
			t.Fatalf("%s: engine requests %d != sim submitted %d", name, got, res.PerCity[name].Submitted)
		}
	}
	if res.Stats.Total.Requests != res.Stats.Cities["east"].Requests+res.Stats.Cities["west"].Requests {
		t.Fatalf("total requests %d not the sum of cities", res.Stats.Total.Requests)
	}
	if res.Accepted == 0 || res.Stats.Total.Completed == 0 {
		t.Fatalf("run served nothing: %+v", res)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatalf("post-run invariants: %v", err)
	}
}

// TestRunMultiServesCrossViaRelay replays a cross-heavy workload
// against a relay-enabled router: the cross fraction must be served
// (classified relayed + accepted/declined/no-option), not counted as
// rejection traffic, and the relay panel must reflect the outcomes.
func TestRunMultiServesCrossViaRelay(t *testing.T) {
	r, err := multicity.BuildFromSpecWithConfig("east:8x8:10,west:6x6:8",
		core.Config{Capacity: 4, Algorithm: core.AlgoDualSide, CommitSlack: 0.3}, 17,
		multicity.RouterConfig{EnableRelay: true})
	if err != nil {
		t.Fatalf("router: %v", err)
	}
	trips, err := sim.GenerateMultiWorkload(r, gen.TripConfig{NumTrips: 150, DaySeconds: 900, Seed: 18}, nil, 0.25)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	cross := 0
	for _, tr := range trips {
		if tr.Cross {
			cross++
		}
	}
	if cross == 0 {
		t.Fatal("workload has no cross trips")
	}

	res, err := sim.Run(r, sim.CoordTrips(trips), sim.Config{TickSeconds: 2, Seed: 18, DrainSeconds: 600})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.CrossRejected != 0 {
		t.Fatalf("relay-enabled run rejected %d cross trips", res.CrossRejected)
	}
	if res.Relayed != cross {
		t.Fatalf("relayed %d != cross trips %d", res.Relayed, cross)
	}
	if res.Accepted+res.Declined+res.NoOption != res.Submitted {
		t.Fatalf("classification leaks: %d + %d + %d != %d submitted",
			res.Accepted, res.Declined, res.NoOption, res.Submitted)
	}
	perCityRelayed := 0
	for _, pc := range res.PerCity {
		perCityRelayed += pc.Relayed
	}
	if perCityRelayed != res.Relayed {
		t.Fatalf("per-city relayed %d != total %d", perCityRelayed, res.Relayed)
	}
	rs := res.Stats.Relay
	if !res.Stats.RelayEnabled || rs.Quoted != int64(cross) {
		t.Fatalf("relay panel quoted %d, want %d", rs.Quoted, cross)
	}
	if rs.Committed == 0 {
		t.Fatal("no relay trip committed; workload too sparse to exercise relay")
	}
	if rs.Completed == 0 {
		t.Fatal("no relay trip completed within the drain window")
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRunMultiStillRejectsWithoutRelay pins the opt-in: the same
// workload against a plain router keeps the typed rejection counts.
func TestRunMultiStillRejectsWithoutRelay(t *testing.T) {
	r := twinRouter(t)
	trips, err := sim.GenerateMultiWorkload(r, gen.TripConfig{NumTrips: 60, DaySeconds: 300, Seed: 19}, nil, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	cross := 0
	for _, tr := range trips {
		if tr.Cross {
			cross++
		}
	}
	res, err := sim.Run(r, sim.CoordTrips(trips), sim.Config{TickSeconds: 2, Seed: 19, DrainSeconds: 300})
	if err != nil {
		t.Fatal(err)
	}
	if res.CrossRejected != cross || res.Relayed != 0 {
		t.Fatalf("plain router: rejected %d (want %d), relayed %d", res.CrossRejected, cross, res.Relayed)
	}
}
