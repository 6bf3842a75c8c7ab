package sim_test

import (
	"net/http/httptest"
	"reflect"
	"testing"

	"ptrider/internal/cluster"
	"ptrider/internal/core"
	"ptrider/internal/gen"
	"ptrider/internal/multicity"
	"ptrider/internal/roadnet"
	"ptrider/internal/sim"
)

// TestReplayIdenticalAcrossBackends replays one seeded coordinate
// workload through the one loop against the three Service backends — a
// bare engine, a one-city router, a gateway over one shard — each over
// an identically seeded engine. The tallies, the hourly rows and the
// lifecycle counters must agree exactly: the replay may not answer
// differently depending on which backend it asked. It runs twice: under
// the default rider model, and under PriceAware, which reads each
// record's direct distance to judge the fare and so declines only where
// the backend hands that distance back.
func TestReplayIdenticalAcrossBackends(t *testing.T) {
	g, err := gen.GenerateNetwork(gen.CityConfig{Width: 12, Height: 12, Seed: 21})
	if err != nil {
		t.Fatalf("network: %v", err)
	}
	cfg := core.Config{
		Capacity: 4, Algorithm: core.AlgoDualSide,
		MaxWaitSeconds: 600, Sigma: 0.6, Seed: 21,
	}
	const vehicles = 15
	engine := func(g *roadnet.Graph) *core.Engine {
		e, err := core.NewEngine(g, cfg)
		if err != nil {
			t.Fatalf("engine: %v", err)
		}
		e.AddVehiclesUniform(vehicles)
		return e
	}
	type backend struct {
		name string
		svc  core.Service
	}
	gateway := func(t *testing.T) *cluster.Gateway {
		shard := httptest.NewServer(cluster.NewShardHandler(engine(g), cluster.ShardOptions{}))
		t.Cleanup(shard.Close)
		gw, err := cluster.NewGateway([]string{"solo=" + shard.URL}, cluster.GatewayConfig{})
		if err != nil {
			t.Fatalf("gateway: %v", err)
		}
		t.Cleanup(func() { gw.Close() })
		return gw
	}
	backends := func(t *testing.T) []backend {
		router, err := multicity.NewWithConfig([]multicity.CitySpec{{Name: "solo", Graph: g, Config: cfg, Vehicles: vehicles}}, multicity.RouterConfig{})
		if err != nil {
			t.Fatalf("router: %v", err)
		}
		return []backend{{"engine", engine(g)}, {"router", router}, {"gateway", gateway(t)}}
	}

	// The gateway is the backend the workload generator could not be
	// handed before it took a Service.
	workload, err := sim.GenerateMultiWorkload(gateway(t),
		gen.TripConfig{NumTrips: 300, DaySeconds: 7200, Seed: 21, MinTripMeters: 400}, nil, 0)
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	trips := sim.CoordTrips(workload)

	type summary struct {
		Submitted, Accepted, Declined, NoOption        int
		Hourly                                         []sim.HourBucket
		Requests, Assigned, Completed, SharedCompleted int64
	}
	for _, pass := range []struct {
		name   string
		choice sim.ChoiceModel
	}{{"utility", nil}, {"priceaware", sim.PriceAware{}}} {
		t.Run(pass.name, func(t *testing.T) {
			var want summary
			for i, b := range backends(t) {
				res, err := sim.Run(b.svc, trips, sim.Config{TickSeconds: 2, Seed: 21, Choice: pass.choice})
				if err != nil {
					t.Fatalf("%s: %v", b.name, err)
				}
				tot := res.Stats.Total
				got := summary{
					res.Submitted, res.Accepted, res.Declined, res.NoOption, res.Hourly,
					tot.Requests, tot.Assigned, tot.Completed, tot.SharedCompleted,
				}
				if i == 0 {
					want = got
					if got.Submitted != 300 || got.Accepted == 0 || got.Completed == 0 || len(got.Hourly) < 2 {
						t.Fatalf("engine replay too thin to compare: %+v", got)
					}
					if got.Assigned != int64(got.Accepted) {
						t.Fatalf("accepted %d != assigned %d", got.Accepted, got.Assigned)
					}
					if pass.choice != nil && got.Declined == 0 {
						t.Fatalf("%s declined nothing on the engine: %+v", pass.name, got)
					}
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s diverged from engine:\n got %+v\nwant %+v", b.name, got, want)
				}
			}
		})
	}
}
