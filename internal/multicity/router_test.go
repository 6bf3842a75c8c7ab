package multicity_test

import (
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"ptrider/internal/core"
	"ptrider/internal/gen"
	"ptrider/internal/geo"
	"ptrider/internal/multicity"
	"ptrider/internal/roadnet"
	"ptrider/internal/testnet"
)

// twinRouter builds a two-city router ("alpha" at the origin, "beta"
// offset to the east) over small synthetic cities.
func twinRouter(t *testing.T, cfg core.Config, taxisA, taxisB int) *multicity.Router {
	t.Helper()
	ga, err := gen.GenerateNetwork(gen.CityConfig{Width: 10, Height: 10, Seed: 1})
	if err != nil {
		t.Fatalf("gen alpha: %v", err)
	}
	gb, err := gen.GenerateNetwork(gen.CityConfig{Width: 8, Height: 8, OriginX: 20000, Seed: 2})
	if err != nil {
		t.Fatalf("gen beta: %v", err)
	}
	cfgA, cfgB := cfg, cfg
	cfgA.Seed, cfgB.Seed = 1, 2
	r, err := multicity.NewWithConfig([]multicity.CitySpec{
		{Name: "alpha", Graph: ga, Config: cfgA, Vehicles: taxisA},
		{Name: "beta", Graph: gb, Config: cfgB, Vehicles: taxisB},
	}, multicity.RouterConfig{})
	if err != nil {
		t.Fatalf("router: %v", err)
	}
	return r
}

// submit quotes one coordinate-addressed request under the default
// constraints.
func submit(r *multicity.Router, o, d geo.Point, riders int) (*core.ServiceRecord, error) {
	return r.SubmitRequest(coordSpec(o, d, riders, nil))
}

// submitIn quotes one request addressed by city name and city-local
// vertex ids — the zero-translation path.
func submitIn(r *multicity.Router, city string, s, d roadnet.VertexID, riders int) (*core.ServiceRecord, error) {
	return r.SubmitRequest(core.SubmitSpec{City: city, S: s, D: d, Riders: riders, Constraints: core.DefaultConstraints()})
}

// coordSpec is one coordinate-addressed spec, with an optional batch
// chooser.
func coordSpec(o, d geo.Point, riders int, choose func([]core.Option) int) core.SubmitSpec {
	return core.SubmitSpec{
		ByCoords: true, Origin: o, Dest: d, Riders: riders,
		Constraints: core.DefaultConstraints(), Choose: choose,
	}
}

// cityPoints returns the coordinates of two distinct random vertices of
// a city.
func cityPoints(t *testing.T, r *multicity.Router, name string, rng *rand.Rand) (geo.Point, geo.Point) {
	t.Helper()
	eng, err := r.Engine(name)
	if err != nil {
		t.Fatalf("engine %s: %v", name, err)
	}
	g := eng.Graph()
	for {
		s := roadnet.VertexID(rng.Intn(g.NumVertices()))
		d := roadnet.VertexID(rng.Intn(g.NumVertices()))
		if s != d {
			return g.Point(s), g.Point(d)
		}
	}
}

func TestRouterAssignsByOriginCoordinate(t *testing.T) {
	r := twinRouter(t, core.Config{Capacity: 4}, 8, 8)
	rng := rand.New(rand.NewSource(10))

	o, d := cityPoints(t, r, "alpha", rng)
	rec, err := submit(r, o, d, 1)
	if err != nil {
		t.Fatalf("submit alpha: %v", err)
	}
	if rec.City != "alpha" {
		t.Fatalf("record city = %q, want alpha", rec.City)
	}

	o, d = cityPoints(t, r, "beta", rng)
	rec, err = submit(r, o, d, 1)
	if err != nil {
		t.Fatalf("submit beta: %v", err)
	}
	if rec.City != "beta" {
		t.Fatalf("record city = %q, want beta", rec.City)
	}
}

func TestRouterRejectsCrossCityTrips(t *testing.T) {
	r := twinRouter(t, core.Config{Capacity: 4}, 5, 5)
	rng := rand.New(rand.NewSource(11))
	oa, _ := cityPoints(t, r, "alpha", rng)
	ob, _ := cityPoints(t, r, "beta", rng)

	_, err := submit(r, oa, ob, 1)
	if err == nil {
		t.Fatal("cross-city trip accepted")
	}
	if !errors.Is(err, core.ErrCrossCity) {
		t.Fatalf("cross-city error %v does not match ErrCrossCity", err)
	}
	var cce *core.CrossCityError
	if !errors.As(err, &cce) {
		t.Fatalf("cross-city error %v is not a *CrossCityError", err)
	}
	if cce.Origin != "alpha" || cce.Dest != "beta" {
		t.Fatalf("cross-city error cities = %q → %q", cce.Origin, cce.Dest)
	}

	// A coordinate in the sea between the cities belongs to no one.
	sea := geo.Point{X: 12000, Y: 0}
	if _, err := submit(r, sea, ob, 1); !errors.Is(err, core.ErrNoCity) {
		t.Fatalf("no-city origin error = %v, want ErrNoCity", err)
	}

	// The typed rejection also surfaces per item in batches, without
	// poisoning the other items.
	ga, da := cityPoints(t, r, "alpha", rng)
	recs, err := r.SubmitRequestBatch([]core.SubmitSpec{
		coordSpec(ga, da, 1, nil),
		coordSpec(oa, ob, 1, nil),
	})
	if !errors.Is(err, core.ErrCrossCity) {
		t.Fatalf("batch error = %v, want ErrCrossCity", err)
	}
	if recs[0] == nil || recs[0].City != "alpha" {
		t.Fatalf("in-city batch item did not survive: %+v", recs[0])
	}
	if recs[1] != nil {
		t.Fatalf("cross-city batch item produced a record: %+v", recs[1])
	}
}

func TestRouterGlobalIDsRoundTrip(t *testing.T) {
	r := twinRouter(t, core.Config{Capacity: 4}, 10, 10)
	rng := rand.New(rand.NewSource(12))

	seen := map[core.RequestID]string{}
	for i := 0; i < 20; i++ {
		name := "alpha"
		if i%2 == 1 {
			name = "beta"
		}
		o, d := cityPoints(t, r, name, rng)
		rec, err := submit(r, o, d, 1)
		if err != nil {
			t.Fatalf("submit %s: %v", name, err)
		}
		if prev, dup := seen[rec.ID]; dup {
			t.Fatalf("global id %d reused across %s and %s", rec.ID, prev, name)
		}
		seen[rec.ID] = name

		got, err := r.GetRequest(rec.ID)
		if err != nil {
			t.Fatalf("request %d: %v", rec.ID, err)
		}
		if got.City != name || got.ID != rec.ID {
			t.Fatalf("round trip: got city %q id %d, want %q %d", got.City, got.ID, name, rec.ID)
		}

		if len(rec.Options) > 0 && i%4 == 0 {
			if err := r.Choose(rec.ID, 0); err != nil {
				t.Fatalf("choose %d: %v", rec.ID, err)
			}
			if got, _ := r.GetRequest(rec.ID); got.Status != core.StatusAssigned {
				t.Fatalf("after choose: status %v", got.Status)
			}
		} else {
			if err := r.Decline(rec.ID); err != nil {
				t.Fatalf("decline %d: %v", rec.ID, err)
			}
		}
	}
	if _, err := r.GetRequest(core.RequestID(1)); err == nil {
		// id 1 < numCities is outside the striped namespace.
		t.Fatal("sub-stride id accepted")
	}
}

// TestRouterStatsIsolation pins per-city isolation under concurrent
// submit/tick: city A's counters reflect only city A's traffic, and the
// aggregate is the sum of the cities.
func TestRouterStatsIsolation(t *testing.T) {
	r := twinRouter(t, core.Config{Capacity: 4}, 8, 8)

	const perCity = 12
	var wg sync.WaitGroup
	for w, name := range []string{"alpha", "beta"} {
		wg.Add(1)
		go func(seed int64, name string) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perCity; i++ {
				o, d := cityPoints(t, r, name, rng)
				rec, err := submit(r, o, d, 1)
				if err != nil {
					t.Errorf("submit %s: %v", name, err)
					return
				}
				if len(rec.Options) > 0 && i%2 == 0 {
					_ = r.Choose(rec.ID, 0)
				} else {
					_ = r.Decline(rec.ID)
				}
				if i%3 == 0 {
					if _, err := r.Advance(1); err != nil {
						t.Errorf("tick: %v", err)
						return
					}
				}
			}
		}(int64(20+w), name)
	}
	wg.Wait()

	st := r.ServiceStats()
	a, b := st.Cities["alpha"], st.Cities["beta"]
	if a.Requests != perCity || b.Requests != perCity {
		t.Fatalf("per-city requests = %d / %d, want %d each", a.Requests, b.Requests, perCity)
	}
	if st.Total.Requests != a.Requests+b.Requests {
		t.Fatalf("total requests %d != %d + %d", st.Total.Requests, a.Requests, b.Requests)
	}
	if st.Total.Assigned != a.Assigned+b.Assigned || st.Total.Completed != a.Completed+b.Completed {
		t.Fatalf("total lifecycle counters not the sum of cities: %+v vs %+v / %+v", st.Total, a, b)
	}
	if a.Clock != b.Clock {
		t.Fatalf("city clocks diverged under shared ticks: %v vs %v", a.Clock, b.Clock)
	}
	if st.Total.Clock != a.Clock {
		t.Fatalf("total clock %v != city clock %v", st.Total.Clock, a.Clock)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

// TestRouterConcurrentStress is the multi-city race stress in the style
// of core's TestConcurrentStress: goroutines mixing coordinate submits,
// direct submits, batches, chooses, declines, router ticks and stats
// reads across two cities, with invariants checked during and after.
func TestRouterConcurrentStress(t *testing.T) {
	r := twinRouter(t, core.Config{Capacity: 3, CommitSlack: 0.2}, 10, 10)

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			name := "alpha"
			if seed%2 == 0 {
				name = "beta"
			}
			other := "beta"
			if name == "beta" {
				other = "alpha"
			}
			for i := 0; i < 40; i++ {
				switch rng.Intn(10) {
				case 0, 1, 2, 3:
					o, d := cityPoints(t, r, name, rng)
					rec, err := submit(r, o, d, 1+rng.Intn(2))
					if err != nil {
						errs <- err
						return
					}
					if len(rec.Options) > 0 && rng.Intn(3) > 0 {
						// Stale-candidate failures under concurrent ticks
						// are expected behaviour.
						_ = r.Choose(rec.ID, rng.Intn(len(rec.Options)))
					} else {
						_ = r.Decline(rec.ID)
					}
				case 4:
					// Cross-city attempts must fail typed, never crash.
					o, _ := cityPoints(t, r, name, rng)
					_, d := cityPoints(t, r, other, rng)
					if _, err := submit(r, o, d, 1); !errors.Is(err, core.ErrCrossCity) {
						errs <- err
						return
					}
				case 5, 6:
					if _, err := r.Advance(0.5 + rng.Float64()); err != nil {
						errs <- err
						return
					}
				case 7:
					st := r.ServiceStats()
					if st.Total.Assigned > st.Total.Requests {
						errs <- errors.New("total assigned > requests")
						return
					}
					if _, err := r.Vehicles(name, 5); err != nil {
						errs <- err
						return
					}
				case 8:
					o1, d1 := cityPoints(t, r, name, rng)
					o2, d2 := cityPoints(t, r, other, rng)
					_, _ = r.SubmitRequestBatch([]core.SubmitSpec{
						coordSpec(o1, d1, 1, func(opts []core.Option) int {
							if len(opts) == 0 {
								return -1
							}
							return 0
						}),
						coordSpec(o2, d2, 1, nil),
					})
				case 9:
					o, d := cityPoints(t, r, other, rng)
					rec, err := submit(r, o, d, 1)
					if err != nil {
						errs <- err
						return
					}
					_ = r.Decline(rec.ID)
				}
				if i%16 == 0 {
					if err := r.CheckInvariants(); err != nil {
						errs <- err
						return
					}
				}
			}
		}(int64(100 + w))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("stress worker: %v", err)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatalf("post-storm invariants: %v", err)
	}
	st := r.ServiceStats()
	if st.Cities["alpha"].Requests == 0 || st.Cities["beta"].Requests == 0 {
		t.Fatalf("storm left a city idle: %+v", st.Total)
	}

	// Drain: both fleets must still finish every onboard rider.
	for i := 0; i < 4000 && st.Total.Completed < st.Total.Assigned; i++ {
		if _, err := r.Advance(1); err != nil {
			t.Fatalf("drain tick: %v", err)
		}
		st = r.ServiceStats()
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatalf("post-drain invariants: %v", err)
	}
}

func TestRouterConstructionValidation(t *testing.T) {
	g, err := gen.GenerateNetwork(gen.CityConfig{Width: 5, Height: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := multicity.NewWithConfig(nil, multicity.RouterConfig{}); err == nil {
		t.Error("empty city list accepted")
	}
	if _, err := multicity.NewWithConfig([]multicity.CitySpec{{Name: "", Graph: g}}, multicity.RouterConfig{}); err == nil {
		t.Error("unnamed city accepted")
	}
	if _, err := multicity.NewWithConfig([]multicity.CitySpec{
		{Name: "a", Graph: g}, {Name: "a", Graph: g},
	}, multicity.RouterConfig{}); err == nil {
		t.Error("duplicate city name accepted")
	}
	// Two cities over the same graph occupy the same region.
	if _, err := multicity.NewWithConfig([]multicity.CitySpec{
		{Name: "a", Graph: g}, {Name: "b", Graph: g},
	}, multicity.RouterConfig{}); err == nil {
		t.Error("overlapping regions accepted")
	}
	if _, err := multicity.NewWithConfig([]multicity.CitySpec{{Name: "a", Graph: nil}}, multicity.RouterConfig{}); err == nil {
		t.Error("nil graph accepted")
	}

	r, err := multicity.NewWithConfig([]multicity.CitySpec{{Name: "a", Graph: g, Vehicles: 2}}, multicity.RouterConfig{})
	if err != nil {
		t.Fatalf("single city: %v", err)
	}
	if _, err := r.Engine("nope"); !errors.Is(err, core.ErrUnknownCity) {
		t.Errorf("unknown city error = %v", err)
	}
	if _, err := r.Vehicles("nope", 0); !errors.Is(err, core.ErrUnknownCity) {
		t.Errorf("unknown city views error = %v", err)
	}
}

func TestRouterTickClassifiesAndIsolatesFailures(t *testing.T) {
	r := twinRouter(t, core.Config{Capacity: 2}, 2, 2)
	if _, err := r.Advance(-1); !errors.Is(err, core.ErrInvalidArgument) {
		t.Fatalf("negative tick error = %v, want ErrInvalidArgument", err)
	}
	st := r.ServiceStats()
	if st.Total.Clock != 0 {
		t.Fatalf("negative tick moved a clock: %v", st.Total.Clock)
	}
	if _, err := r.Advance(2); err != nil {
		t.Fatalf("tick: %v", err)
	}
	if st := r.ServiceStats(); st.Cities["alpha"].Clock != 2 || st.Cities["beta"].Clock != 2 {
		t.Fatalf("clocks after tick: %+v", st)
	}
}

func TestBuildFromSpec(t *testing.T) {
	r, err := multicity.BuildFromSpecWithConfig("east:6x6:4,west:5x5:3", core.Config{Capacity: 4}, 9, multicity.RouterConfig{})
	if err != nil {
		t.Fatalf("BuildFromSpec: %v", err)
	}
	if got := r.Cities(); len(got) != 2 || got[0].Name != "east" || got[1].Name != "west" {
		t.Fatalf("cities = %v", got)
	}
	east, _ := r.Engine("east")
	west, _ := r.Engine("west")
	if east.NumVehicles() != 4 || west.NumVehicles() != 3 {
		t.Fatalf("vehicles = %d / %d", east.NumVehicles(), west.NumVehicles())
	}
	if c := r.Cities(); c[0].MaxX >= c[1].MinX && c[1].MaxX >= c[0].MinX && c[0].MaxY >= c[1].MinY && c[1].MaxY >= c[0].MinY {
		t.Fatalf("spec regions overlap: %+v %+v", c[0], c[1])
	}
	for _, bad := range []string{"", "east", "east:6:4", "east:axb:4", "east:6x6:x"} {
		if _, err := multicity.BuildFromSpecWithConfig(bad, core.Config{}, 1, multicity.RouterConfig{}); err == nil {
			t.Errorf("bad spec %q accepted", bad)
		}
	}
}

// TestVertexAddressedSpecIgnoresRegion pins what a CitySpec.Region
// narrower than the graph means: the region decides which coordinates
// the city serves, nothing else. A vertex-addressed spec names its city,
// so a destination vertex outside the region is quoted the same by
// SubmitRequest and SubmitRequestBatch.
func TestVertexAddressedSpecIgnoresRegion(t *testing.T) {
	g, err := gen.GenerateNetwork(gen.CityConfig{Width: 10, Height: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	west := g.Bounds()
	west.Max.X = west.Center().X
	r, err := multicity.NewWithConfig([]multicity.CitySpec{
		{Name: "solo", Graph: g, Region: west, Config: core.Config{Capacity: 4, Seed: 1}, Vehicles: 12},
	}, multicity.RouterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	s, d := roadnet.VertexID(-1), roadnet.VertexID(-1)
	for v := 0; v < g.NumVertices(); v++ {
		if in := west.Contains(g.Point(roadnet.VertexID(v))); in && s < 0 {
			s = roadnet.VertexID(v)
		} else if !in {
			d = roadnet.VertexID(v) // the last one: far from s
		}
	}
	if s < 0 || d < 0 {
		t.Fatalf("no vertex pair straddles the region: s=%d d=%d", s, d)
	}

	spec := core.SubmitSpec{City: "solo", S: s, D: d, Riders: 1, Constraints: core.DefaultConstraints()}
	one, err := r.SubmitRequest(spec)
	if err != nil {
		t.Fatalf("SubmitRequest: %v", err)
	}
	batch, err := r.SubmitRequestBatch([]core.SubmitSpec{spec})
	if err != nil || batch[0] == nil {
		t.Fatalf("SubmitRequestBatch: %+v, %v", batch[0], err)
	}
	got := batch[0]
	if got.City != one.City || got.S != one.S || got.D != one.D || got.Riders != one.Riders || len(got.Options) != len(one.Options) {
		t.Fatalf("batch record %+v differs from single record %+v", got.RequestRecord, one.RequestRecord)
	}
	if len(one.Options) == 0 {
		t.Fatal("the pair quoted no options; the comparison is vacuous")
	}
	for i, o := range one.Options {
		if b := got.Options[i]; b.Vehicle != o.Vehicle || b.Price != o.Price || b.PickupDist != o.PickupDist {
			t.Fatalf("option %d: batch %+v, single %+v", i, b, o)
		}
	}

	// Coordinates outside the region are still nobody's.
	if _, err := submit(r, g.Point(s), g.Point(d), 1); !errors.Is(err, core.ErrNoCity) {
		t.Fatalf("coordinate outside the narrowed region: %v, want ErrNoCity", err)
	}
}

// closeFailing is an engine backend whose Close fails.
type closeFailing struct{ *core.Engine }

func (closeFailing) Close() error { return errors.New("disk gone") }

// TestCoordinatorLogsStateTransitions: a hot algorithm switch logs one
// info line naming the city and the algorithm, a refused one logs
// nothing, and Close logs one error line for each backend that fails to
// close — only for those.
func TestCoordinatorLogsStateTransitions(t *testing.T) {
	cities := make([]multicity.City, 2)
	for i, name := range []string{"alpha", "beta"} {
		g, err := gen.GenerateNetwork(gen.CityConfig{Width: 6, Height: 6, OriginX: 20000 * float64(i), Seed: int64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		e, err := core.NewEngine(g, core.Config{Capacity: 4, Seed: int64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		cities[i] = multicity.City{Name: name, Region: g.Bounds(), Backend: e}
	}
	cities[0].Backend = closeFailing{cities[0].Backend.(*core.Engine)}
	c, err := multicity.NewCoordinator(cities, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	logs := testnet.CaptureLog(t)

	if err := c.SetCityAlgorithm("beta", core.AlgoSingleSide); err != nil {
		t.Fatal(err)
	}
	if err := c.SetCityAlgorithm("gamma", core.AlgoSingleSide); err == nil {
		t.Fatal("an unknown city's algorithm was set")
	}
	if err := c.Close(); err == nil || !strings.Contains(err.Error(), "disk gone") {
		t.Fatalf("Close: %v, want alpha's failure", err)
	}
	lines := logs.Lines()
	if len(lines) != 2 {
		t.Fatalf("logged %d lines, want 2: %+v", len(lines), lines)
	}
	set, closed := lines[0], lines[1]
	if set.Level != slog.LevelInfo || set.Message != "multicity: algorithm set" ||
		set.Attrs["city"] != "beta" || set.Attrs["algorithm"] != core.AlgoSingleSide.String() {
		t.Fatalf("algorithm line: %+v", set)
	}
	if closed.Level != slog.LevelError || closed.Message != "multicity: close failed" ||
		closed.Attrs["city"] != "alpha" || fmt.Sprint(closed.Attrs["err"]) != "disk gone" {
		t.Fatalf("close line: %+v", closed)
	}
}
