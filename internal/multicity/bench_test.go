package multicity_test

import (
	"math/rand"
	"sync"
	"testing"

	"ptrider/internal/core"
	"ptrider/internal/gen"
	"ptrider/internal/geo"
	"ptrider/internal/multicity"
	"ptrider/internal/roadnet"
)

// The router-overhead benchmark compares a bare engine against a
// single-city router over the same graph, config and seed. Each
// sub-benchmark builds its own fresh engine/router pair state so that
// ledger growth and GC pressure from an earlier sub-benchmark can't
// bleed into a later one's numbers — only the graph, the probe set and
// their coordinates are shared (all immutable).
var (
	routerBenchOnce   sync.Once
	routerBenchGraph  *roadnet.Graph
	routerBenchProbes [][2]roadnet.VertexID
	routerBenchPoints [][2]geo.Point
)

func routerBenchCfg() core.Config {
	return core.Config{Capacity: 4, Algorithm: core.AlgoDualSide, Seed: 31}
}

func routerBenchSetup(b *testing.B) {
	b.Helper()
	routerBenchOnce.Do(func() {
		g, err := gen.GenerateNetwork(gen.CityConfig{Width: 24, Height: 24, RemoveFrac: 0.15, Seed: 31})
		if err != nil {
			panic(err)
		}
		rng := rand.New(rand.NewSource(32))
		n := g.NumVertices()
		for len(routerBenchProbes) < 256 {
			s := roadnet.VertexID(rng.Intn(n))
			d := roadnet.VertexID(rng.Intn(n))
			if s == d {
				continue
			}
			routerBenchProbes = append(routerBenchProbes, [2]roadnet.VertexID{s, d})
			routerBenchPoints = append(routerBenchPoints, [2]geo.Point{g.Point(s), g.Point(d)})
		}
		routerBenchGraph = g
	})
}

// warmEngine pre-answers every probe once so no sub-benchmark pays the
// cold distance memo.
func warmEngine(b *testing.B, eng *core.Engine) {
	b.Helper()
	for _, p := range routerBenchProbes {
		if _, _, err := eng.MatchOnce(core.AlgoDualSide, p[0], p[1], 1); err != nil {
			b.Fatal(err)
		}
	}
}

func newBareEngine(b *testing.B) *core.Engine {
	b.Helper()
	eng, err := core.NewEngine(routerBenchGraph, routerBenchCfg())
	if err != nil {
		b.Fatal(err)
	}
	eng.AddVehiclesUniform(100)
	warmEngine(b, eng)
	return eng
}

func newSoloRouter(b *testing.B) *multicity.Router {
	b.Helper()
	router, err := multicity.NewWithConfig([]multicity.CitySpec{
		{Name: "solo", Graph: routerBenchGraph, Config: routerBenchCfg(), Vehicles: 100},
	}, multicity.RouterConfig{})
	if err != nil {
		b.Fatal(err)
	}
	solo, err := router.Engine("solo")
	if err != nil {
		b.Fatal(err)
	}
	warmEngine(b, solo)
	return router
}

// BenchmarkRouterSubmit measures the multi-city router's overhead on
// single-city traffic against a bare engine (acceptance target: the
// "router" variant within 5% of "bare"). "router" addresses requests by
// city + vertex (the replay path: id striding and dispatch only);
// "router-coords" goes through the full coordinate front door (city
// lookup + nearest-vertex snap).
func BenchmarkRouterSubmit(b *testing.B) {
	routerBenchSetup(b)
	b.Run("bare", func(b *testing.B) {
		eng := newBareEngine(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := routerBenchProbes[i%len(routerBenchProbes)]
			rec, err := eng.Submit(p[0], p[1], 1)
			if err != nil {
				b.Fatal(err)
			}
			if err := eng.Decline(rec.ID); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("router", func(b *testing.B) {
		router := newSoloRouter(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := routerBenchProbes[i%len(routerBenchProbes)]
			rec, err := submitIn(router, "solo", p[0], p[1], 1)
			if err != nil {
				b.Fatal(err)
			}
			if err := router.Decline(rec.ID); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("router-coords", func(b *testing.B) {
		router := newSoloRouter(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := routerBenchPoints[i%len(routerBenchPoints)]
			rec, err := submit(router, p[0], p[1], 1)
			if err != nil {
				b.Fatal(err)
			}
			if err := router.Decline(rec.ID); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Relay-bench world: the router-bench city plus a second city across
// the gap, with probe pairs for same-city (city A) and cross-city
// traffic. Shared immutable state only; each sub-benchmark builds its
// own router.
var (
	relayBenchOnce   sync.Once
	relayBenchGraphB *roadnet.Graph
	relayBenchCross  [][2]geo.Point
)

func relayBenchSetup(b *testing.B) {
	b.Helper()
	routerBenchSetup(b)
	relayBenchOnce.Do(func() {
		gb, err := gen.GenerateNetwork(gen.CityConfig{Width: 16, Height: 16, RemoveFrac: 0.15, OriginX: 30000, Seed: 33})
		if err != nil {
			panic(err)
		}
		relayBenchGraphB = gb
		rng := rand.New(rand.NewSource(34))
		for len(relayBenchCross) < 128 {
			o := routerBenchGraph.Point(roadnet.VertexID(rng.Intn(routerBenchGraph.NumVertices())))
			d := gb.Point(roadnet.VertexID(rng.Intn(gb.NumVertices())))
			relayBenchCross = append(relayBenchCross, [2]geo.Point{o, d})
		}
	})
}

func newTwinRouter(b *testing.B, enableRelay bool) *multicity.Router {
	b.Helper()
	cfgB := routerBenchCfg()
	cfgB.Seed = 33
	router, err := multicity.NewWithConfig([]multicity.CitySpec{
		{Name: "solo", Graph: routerBenchGraph, Config: routerBenchCfg(), Vehicles: 100},
		{Name: "far", Graph: relayBenchGraphB, Config: cfgB, Vehicles: 60},
	}, multicity.RouterConfig{EnableRelay: enableRelay})
	if err != nil {
		b.Fatal(err)
	}
	solo, err := router.Engine("solo")
	if err != nil {
		b.Fatal(err)
	}
	warmEngine(b, solo)
	return router
}

// BenchmarkRelaySubmit measures what relay scheduling costs traffic
// that never crosses a city border (acceptance target: "relay-enabled"
// within 2% of "plain" — the relay path adds only nil checks to
// same-city routing) and, for scale, what a full cross-city relay
// quote costs ("cross": two engine quotes per gateway, three gateways, plus skyline
// composition per call).
func BenchmarkRelaySubmit(b *testing.B) {
	relayBenchSetup(b)
	sameCity := func(b *testing.B, router *multicity.Router) {
		b.Helper()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := routerBenchProbes[i%len(routerBenchProbes)]
			rec, err := submitIn(router, "solo", p[0], p[1], 1)
			if err != nil {
				b.Fatal(err)
			}
			if err := router.Decline(rec.ID); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("plain", func(b *testing.B) {
		sameCity(b, newTwinRouter(b, false))
	})
	b.Run("relay-enabled", func(b *testing.B) {
		sameCity(b, newTwinRouter(b, true))
	})
	b.Run("cross", func(b *testing.B) {
		router := newTwinRouter(b, true)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := relayBenchCross[i%len(relayBenchCross)]
			rec, err := submit(router, p[0], p[1], 1)
			if err != nil {
				b.Fatal(err)
			}
			if err := router.Decline(rec.ID); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRouterTick measures the parallel per-city tick fan-out on a
// two-city router.
func BenchmarkRouterTick(b *testing.B) {
	r, err := multicity.BuildFromSpecWithConfig("east:16x16:200,west:16x16:200", core.Config{Capacity: 4}, 41, multicity.RouterConfig{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Advance(1); err != nil {
			b.Fatal(err)
		}
	}
}
