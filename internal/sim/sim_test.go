package sim_test

import (
	"math/rand"
	"testing"

	"ptrider/internal/core"
	"ptrider/internal/gen"
	"ptrider/internal/sim"
	"ptrider/internal/trace"
)

func smallWorld(t *testing.T, seed int64, vehicles, trips int) (*core.Engine, []trace.Trip) {
	t.Helper()
	g, err := gen.GenerateNetwork(gen.CityConfig{Width: 12, Height: 12, Seed: seed})
	if err != nil {
		t.Fatalf("network: %v", err)
	}
	e, err := core.NewEngine(g, core.Config{
		Capacity: 4, Algorithm: core.AlgoDualSide,
		MaxWaitSeconds: 600, Sigma: 0.6, Seed: seed,
	})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	e.AddVehiclesUniform(vehicles)
	tr, err := gen.GenerateTrips(g, gen.TripConfig{
		NumTrips: trips, DaySeconds: 600, Seed: seed, MinTripMeters: 400,
	})
	if err != nil {
		t.Fatalf("trips: %v", err)
	}
	return e, tr
}

// assertAcceptedAssigned pins that every acceptance the replay tallied
// is an assignment the engine made, so a broken Choose cannot hide
// behind "declined".
func assertAcceptedAssigned(t *testing.T, res *sim.Result) {
	t.Helper()
	if got := res.Stats.Total.Assigned; int64(res.Accepted+res.Orphaned) != got {
		t.Fatalf("accepted %d + orphaned %d != engine assigned %d", res.Accepted, res.Orphaned, got)
	}
}

func TestChoiceModels(t *testing.T) {
	opts := []core.Option{
		{PickupDist: 100, Price: 9},
		{PickupDist: 500, Price: 5},
		{PickupDist: 900, Price: 2},
	}
	rng := rand.New(rand.NewSource(1))
	if got := (sim.EarliestPickup{}).Choose(opts, rng); got != 0 {
		t.Errorf("EarliestPickup = %d", got)
	}
	if got := (sim.Cheapest{}).Choose(opts, rng); got != 2 {
		t.Errorf("Cheapest = %d", got)
	}
	if got := (sim.UniformChoice{}).Choose(nil, rng); got != -1 {
		t.Errorf("UniformChoice on empty = %d", got)
	}
	if got := (sim.EarliestPickup{}).Choose(nil, rng); got != -1 {
		t.Errorf("EarliestPickup on empty = %d", got)
	}
	counts := map[int]int{}
	for i := 0; i < 300; i++ {
		counts[(sim.UniformChoice{}).Choose(opts, rng)]++
	}
	for i := 0; i < 3; i++ {
		if counts[i] == 0 {
			t.Errorf("UniformChoice never picked %d: %v", i, counts)
		}
	}
	counts = map[int]int{}
	for i := 0; i < 500; i++ {
		pick := (sim.UtilityChoice{}).Choose(opts, rng)
		if pick < 0 || pick > 2 {
			t.Fatalf("UtilityChoice out of range: %d", pick)
		}
		counts[pick]++
	}
	// Heterogeneous preferences must spread over the extremes.
	if counts[0] == 0 || counts[2] == 0 {
		t.Errorf("UtilityChoice degenerate: %v", counts)
	}
}

func TestRunCompletesTrips(t *testing.T) {
	e, trips := smallWorld(t, 1, 20, 60)
	res, err := sim.Run(e, sim.TraceTrips(trips), sim.Config{TickSeconds: 2, Seed: 1})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Submitted != 60 {
		t.Fatalf("Submitted = %d", res.Submitted)
	}
	if res.Accepted == 0 {
		t.Fatal("nothing accepted")
	}
	if res.Accepted+res.Declined+res.NoOption != res.Submitted {
		t.Fatalf("accounting mismatch: %+v", res)
	}
	assertAcceptedAssigned(t, res)
	if res.Stats.Total.Completed == 0 {
		t.Fatal("nothing completed")
	}
	if res.Stats.Total.Completed > int64(res.Accepted) {
		t.Fatalf("completed %d > accepted %d", res.Stats.Total.Completed, res.Accepted)
	}
	if res.OptionsPerRequest.Count() != int64(res.Submitted) {
		t.Fatalf("options observed %d times", res.OptionsPerRequest.Count())
	}
	if res.Stats.Total.AvgResponseMs <= 0 {
		t.Fatal("no response time recorded")
	}
}

func TestRunRejectsUnsortedTrips(t *testing.T) {
	e, trips := smallWorld(t, 2, 3, 10)
	trips[0], trips[1] = trips[1], trips[0]
	trips[0].Time, trips[1].Time = trips[1].Time+100, trips[0].Time
	if _, err := sim.Run(e, sim.TraceTrips(trips), sim.Config{}); err == nil {
		t.Fatal("unsorted trips accepted")
	}
	if _, err := sim.Run(e, nil, sim.Config{TickSeconds: -1}); err == nil {
		t.Fatal("negative tick accepted")
	}
	if st := e.Stats(); st.Requests != 0 || st.Clock != 0 {
		t.Fatalf("a refused run touched the engine: %+v", st)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() *sim.Result {
		e, trips := smallWorld(t, 3, 10, 40)
		res, err := sim.Run(e, sim.TraceTrips(trips), sim.Config{TickSeconds: 2, Seed: 3})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		assertAcceptedAssigned(t, res)
		return res
	}
	a, b := run(), run()
	if a.Accepted != b.Accepted || a.NoOption != b.NoOption ||
		a.Stats.Total.Completed != b.Stats.Total.Completed ||
		a.Prices.Mean() != b.Prices.Mean() {
		t.Fatalf("runs diverged:\n%+v\n%+v", a, b)
	}
}

func TestFailureInjection(t *testing.T) {
	e, trips := smallWorld(t, 4, 15, 40)
	res, err := sim.Run(e, sim.TraceTrips(trips), sim.Config{
		TickSeconds: 2, Seed: 4,
		FailuresPerHour: 120, // two per minute over a 10-minute day
	})
	if err != nil {
		t.Fatalf("Run with failures: %v", err)
	}
	if res.FailuresInjected == 0 {
		t.Fatal("no failures injected")
	}
	if res.Stats.Total.ActiveVehicles >= 15 {
		t.Fatalf("active vehicles = %d, want < 15", res.Stats.Total.ActiveVehicles)
	}
	// The run must stay consistent despite removals.
	if res.Stats.Total.Completed < 0 || res.Accepted < 0 {
		t.Fatalf("corrupted result: %+v", res)
	}
	assertAcceptedAssigned(t, res)
}

// TestFailuresDrawFromLiveFleet pins the victim draw: with a budget of
// 30 failures over a 40-taxi fleet exactly 10 stay in service, and the
// removed set reaches the high ids. (Drawing an id below the in-service
// count, as the engine-only simulator did, could never remove the k
// highest ids after k failures and gave up short of its budget.)
func TestFailuresDrawFromLiveFleet(t *testing.T) {
	e, trips := smallWorld(t, 9, 40, 60)
	// 225/h at a 1 s tick is exactly 1/16 per tick: 30 failures in 480 s.
	const end = 480
	if last := trips[len(trips)-1].Time; last <= end {
		t.Fatalf("workload ends at %.0fs; it must outlast the %ds window", last, end)
	}
	res, err := sim.Run(e, sim.TraceTrips(trips), sim.Config{
		TickSeconds: 1, Seed: 9, FailuresPerHour: 225, EndSeconds: end,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.FailuresInjected != 30 {
		t.Fatalf("injected %d failures, want 30", res.FailuresInjected)
	}
	live := e.VehicleViews(0)
	if len(live) != 10 || res.Stats.Total.ActiveVehicles != 10 {
		t.Fatalf("%d vehicles listed, %d active; want 10", len(live), res.Stats.Total.ActiveVehicles)
	}
	highLive := 0
	for _, v := range live {
		if v.ID >= 30 {
			highLive++
		}
	}
	if highLive == 10 {
		t.Fatal("no vehicle with id >= 30 was ever removed")
	}
	assertAcceptedAssigned(t, res)
}

// TestFailureRunTalliesSumAndDrains pins the orphan accounting: every
// offer — first or re-offer — ends in exactly one tally, an orphaned
// acceptance leaves Accepted, and so the drain rule still fires once
// the standing acceptances complete.
func TestFailureRunTalliesSumAndDrains(t *testing.T) {
	e, trips := smallWorld(t, 4, 30, 200)
	res, err := sim.Run(e, sim.TraceTrips(trips), sim.Config{TickSeconds: 1, Seed: 4, FailuresPerHour: 20})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Orphaned == 0 {
		t.Fatal("no acceptance was orphaned; the workload does not exercise resubmission")
	}
	offered := res.Submitted + res.Resubmitted
	ended := res.Accepted + res.Declined + res.NoOption + res.Orphaned + res.CrossRejected + res.NoCity
	if offered != ended {
		t.Fatalf("%d offers but %d outcomes: %+v", offered, ended, res)
	}
	if res.OptionsPerRequest.Count() != int64(offered) {
		t.Fatalf("skylines observed %d times for %d offers", res.OptionsPerRequest.Count(), offered)
	}
	hourly := 0
	for _, h := range res.Hourly {
		hourly += h.Submitted
	}
	if hourly != offered {
		t.Fatalf("hourly buckets hold %d offers, want %d", hourly, offered)
	}
	assertAcceptedAssigned(t, res)
	if res.Stats.Total.Completed != int64(res.Accepted) {
		t.Fatalf("completed %d != standing acceptances %d", res.Stats.Total.Completed, res.Accepted)
	}
	if limit := trips[len(trips)-1].Time + 3600; res.Stats.Total.Clock >= limit {
		t.Fatalf("clock %.0f ran the whole drain window (to %.0f) with no rider pending", res.Stats.Total.Clock, limit)
	}
}

func TestSharingHappensUnderLoad(t *testing.T) {
	// Few vehicles, many overlapping trips in a short window: the
	// sharing rate must be positive (the demo's headline statistic).
	g, err := gen.GenerateNetwork(gen.CityConfig{Width: 10, Height: 10, Seed: 5})
	if err != nil {
		t.Fatalf("network: %v", err)
	}
	e, err := core.NewEngine(g, core.Config{
		Capacity:       4,
		MaxWaitSeconds: 1200, Sigma: 1.0, Algorithm: core.AlgoDualSide, Seed: 5,
	})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	e.AddVehiclesUniform(3)
	trips, err := gen.GenerateTrips(g, gen.TripConfig{NumTrips: 60, DaySeconds: 300, Seed: 5, MinTripMeters: 400})
	if err != nil {
		t.Fatalf("trips: %v", err)
	}
	res, err := sim.Run(e, sim.TraceTrips(trips), sim.Config{TickSeconds: 2, Seed: 5, Choice: sim.Cheapest{}, DrainSeconds: 7200})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Stats.Total.Completed == 0 {
		t.Fatal("nothing completed")
	}
	if res.Stats.Total.SharingRate == 0 {
		t.Fatalf("sharing rate 0 under heavy load: %+v", res.Stats.Total)
	}
	assertAcceptedAssigned(t, res)
}

func TestHourlyBreakdown(t *testing.T) {
	e, trips := smallWorld(t, 7, 10, 50)
	res, err := sim.Run(e, sim.TraceTrips(trips), sim.Config{TickSeconds: 2, Seed: 7})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Hourly) == 0 {
		t.Fatal("no hourly buckets")
	}
	totalSub, totalAcc, totalNo := 0, 0, 0
	for _, h := range res.Hourly {
		if h.Hour < 0 || h.Hour > 23 {
			t.Fatalf("bucket hour %d out of range", h.Hour)
		}
		if h.Accepted > h.Submitted || h.NoOption > h.Submitted {
			t.Fatalf("inconsistent bucket %+v", h)
		}
		if h.Submitted > 0 && (h.AvgOptions < 0 || h.AvgOptions > 50) {
			t.Fatalf("implausible AvgOptions %v", h.AvgOptions)
		}
		totalSub += h.Submitted
		totalAcc += h.Accepted
		totalNo += h.NoOption
	}
	if totalSub != res.Submitted || totalAcc != res.Accepted || totalNo != res.NoOption {
		t.Fatalf("hourly totals %d/%d/%d do not match result %d/%d/%d",
			totalSub, totalAcc, totalNo, res.Submitted, res.Accepted, res.NoOption)
	}
	assertAcceptedAssigned(t, res)
}

func TestEndSecondsStopsEarly(t *testing.T) {
	e, trips := smallWorld(t, 6, 5, 50)
	res, err := sim.Run(e, sim.TraceTrips(trips), sim.Config{TickSeconds: 5, Seed: 6, EndSeconds: 60})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Stats.Total.Clock > 65 {
		t.Fatalf("clock = %v, want ≤ 65", res.Stats.Total.Clock)
	}
	if res.Submitted == 50 {
		t.Fatal("early stop should leave trips unsubmitted")
	}
	assertAcceptedAssigned(t, res)
}
