// Benchmarks regenerating the paper's quantitative artefacts. Run with:
//
//	go test -bench=. -benchmem
//
// Absolute numbers depend on the host (the demo used an i7 3.6 GHz PC);
// the reproduction targets are the orderings: naive ≫ single-side ≳
// dual-side on uniform load, dual-side winning on the adversarial
// near-s/far-d workload, and sub-millisecond matching at city scale.
package ptrider_test

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"ptrider/internal/core"
	"ptrider/internal/gen"
	"ptrider/internal/gridindex"
	"ptrider/internal/kinetic"
	"ptrider/internal/roadnet"
	"ptrider/internal/sim"
	"ptrider/internal/skyline"
)

// benchWorld is the shared loaded system: a 32x32 city, 200 taxis
// warmed with a quarter hour of accepted trips.
type benchWorld struct {
	g      *roadnet.Graph
	eng    *core.Engine
	probes [][2]roadnet.VertexID
}

var (
	worldOnce sync.Once
	world     *benchWorld
)

func loadedWorld(b *testing.B) *benchWorld {
	b.Helper()
	worldOnce.Do(func() {
		g, err := gen.GenerateNetwork(gen.CityConfig{Width: 32, Height: 32, RemoveFrac: 0.15, Seed: 1})
		if err != nil {
			panic(err)
		}
		eng, err := core.NewEngine(g, core.Config{
			Capacity:       4,
			MaxWaitSeconds: 300, Sigma: 0.4, Seed: 1,
			Algorithm: core.AlgoDualSide,
		})
		if err != nil {
			panic(err)
		}
		eng.AddVehiclesUniform(200)
		trips, err := gen.GenerateTrips(g, gen.TripConfig{NumTrips: 250, DaySeconds: 900, Seed: 2})
		if err != nil {
			panic(err)
		}
		if _, err := sim.Run(eng, sim.TraceTrips(trips), sim.Config{TickSeconds: 2, Seed: 2, EndSeconds: 900}); err != nil {
			panic(err)
		}
		rng := rand.New(rand.NewSource(3))
		probes := make([][2]roadnet.VertexID, 0, 1024)
		for len(probes) < 1024 {
			s := roadnet.VertexID(rng.Intn(g.NumVertices()))
			d := roadnet.VertexID(rng.Intn(g.NumVertices()))
			if s != d {
				probes = append(probes, [2]roadnet.VertexID{s, d})
			}
		}
		// Warm the shared distance memo over every probe once, so the
		// benchmark that happens to run first doesn't pay the cold
		// cache for the others (the serial/parallel submit pair must
		// measure matching, not memo warming).
		for _, p := range probes {
			if _, _, err := eng.MatchOnce(core.AlgoDualSide, p[0], p[1], 1); err != nil {
				panic(err)
			}
		}
		world = &benchWorld{g: g, eng: eng, probes: probes}
	})
	return world
}

// BenchmarkMatch — E3: one matching per op, per algorithm, on the
// loaded 200-taxi city.
func BenchmarkMatch(b *testing.B) {
	w := loadedWorld(b)
	for _, algo := range []core.Algorithm{core.AlgoNaive, core.AlgoSingleSide, core.AlgoDualSide} {
		b.Run(algo.String(), func(b *testing.B) {
			b.ReportAllocs()
			var calls int64
			var settled int
			for i := 0; i < b.N; i++ {
				p := w.probes[i%len(w.probes)]
				_, ms, err := w.eng.MatchOnce(algo, p[0], p[1], 1)
				if err != nil {
					b.Fatal(err)
				}
				calls += ms.DistCalls
				settled += ms.Settled
			}
			b.ReportMetric(float64(calls)/float64(b.N), "dist_calls/op")
			b.ReportMetric(float64(settled)/float64(b.N), "settled/op")
		})
	}
}

// BenchmarkEndToEndRequest — E2: the full request lifecycle the demo
// measures as "response time": submit, read options, choose or decline.
func BenchmarkEndToEndRequest(b *testing.B) {
	w := loadedWorld(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := w.probes[i%len(w.probes)]
		rec, err := w.eng.Submit(p[0], p[1], 1)
		if err != nil {
			b.Fatal(err)
		}
		// Decline so the fleet state stays comparable across iterations.
		if err := w.eng.Decline(rec.ID); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSubmitSerial is the single-client request-answering
// baseline: one goroutine submits and declines against the loaded
// city. Pair it with BenchmarkSubmitParallel to measure multi-core
// scaling of the sharded engine on a host that has the cores.
func BenchmarkSubmitSerial(b *testing.B) {
	w := loadedWorld(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := w.probes[i%len(w.probes)]
		rec, err := w.eng.Submit(p[0], p[1], 1)
		if err != nil {
			b.Fatal(err)
		}
		if err := w.eng.Decline(rec.ID); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSubmitParallel issues the same workload from GOMAXPROCS
// client goroutines at once. The engine holds no global lock during
// matching — the routing substrate is immutable, the distance memo is
// sharded, and vehicles are probed under per-vehicle locks — so
// throughput (ops/s, the inverse of ns/op here) should scale with
// cores; on a ≥4-core host expect >1.5× BenchmarkSubmitSerial.
func BenchmarkSubmitParallel(b *testing.B) {
	w := loadedWorld(b)
	var next atomic.Int64
	var firstErr atomic.Pointer[error]
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := int(next.Add(1) - 1)
			p := w.probes[i%len(w.probes)]
			rec, err := w.eng.Submit(p[0], p[1], 1)
			if err == nil {
				err = w.eng.Decline(rec.ID)
			}
			if err != nil {
				// b.Fatal must not run on RunParallel workers; record
				// and fail from the benchmark goroutine below.
				firstErr.CompareAndSwap(nil, &err)
				return
			}
		}
	})
	if errp := firstErr.Load(); errp != nil {
		b.Fatal(*errp)
	}
}

// batchBenchWorld is the batch benchmark world: the loaded
// city re-used from loadedWorld plus a precomputed hot cell (the most
// populated grid cell) and item sets for the batch workloads.
type batchBenchWorld struct {
	*benchWorld
	hotcell   []core.BatchItem // origins all in one cell
	scattered []core.BatchItem // origins spread over the city
}

var (
	batchOnce  sync.Once
	batchState *batchBenchWorld
)

const batchBenchSize = 16

func batchWorld(b *testing.B) *batchBenchWorld {
	b.Helper()
	w := loadedWorld(b)
	batchOnce.Do(func() {
		grid := w.eng.Grid()
		best := gridindex.CellID(0)
		for c := 0; c < grid.NumCells(); c++ {
			if len(grid.Cell(gridindex.CellID(c)).Vertices) > len(grid.Cell(best).Vertices) {
				best = gridindex.CellID(c)
			}
		}
		verts := grid.Cell(best).Vertices
		rng := rand.New(rand.NewSource(21))
		n := w.g.NumVertices()
		var hot, scat []core.BatchItem
		for len(hot) < batchBenchSize {
			s := verts[rng.Intn(len(verts))]
			d := roadnet.VertexID(rng.Intn(n))
			if s == d {
				continue
			}
			hot = append(hot, core.BatchItem{S: s, D: d, Riders: 1, Constraints: core.DefaultConstraints()})
		}
		for len(scat) < batchBenchSize {
			s := roadnet.VertexID(rng.Intn(n))
			d := roadnet.VertexID(rng.Intn(n))
			if s == d {
				continue
			}
			scat = append(scat, core.BatchItem{S: s, D: d, Riders: 1, Constraints: core.DefaultConstraints()})
		}
		batchState = &batchBenchWorld{benchWorld: w, hotcell: hot, scattered: scat}
	})
	return batchState
}

// BenchmarkSubmitBatch measures SubmitBatch on the loaded city under
// its dual-side matcher. Each op
// processes one 16-item quote-only batch against a cold distance memo,
// so the exact-search counts are comparable across sub-benchmarks;
// dist_calls/op and settled/op report them. "hotcell" puts every
// origin in one grid cell; "cold" scatters the origins over the city;
// "hotcell-perrequest" issues the hot-cell items through per-request
// Submit — a batch quotes its waves in parallel through the same
// matcher, so "hotcell" must cost no more than this, in time and in
// dist_calls/op.
func BenchmarkSubmitBatch(b *testing.B) {
	w := batchWorld(b)
	// coldOp times op against a distance memo wiped before every
	// iteration (harness set-up, not op cost) and reports what the op
	// made the engine compute: dist_calls/op, the paper's exact-search
	// count, and settled/op, the vertices its batch-fill searches
	// settled — neither depends on the host.
	coldOp := func(b *testing.B, op func() error) {
		b.Helper()
		b.ReportAllocs()
		var calls, settled int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			w.eng.ResetDistCache()
			calls0, settled0 := w.eng.DistCalls(), w.eng.Settled()
			b.StartTimer()
			if err := op(); err != nil {
				b.Fatal(err)
			}
			calls += w.eng.DistCalls() - calls0
			settled += w.eng.Settled() - settled0
		}
		b.StopTimer()
		b.ReportMetric(float64(calls)/float64(b.N), "dist_calls/op")
		b.ReportMetric(float64(settled)/float64(b.N), "settled/op")
	}
	batch := func(items []core.BatchItem) func() error {
		return func() error {
			_, err := w.eng.SubmitBatch(items)
			return err
		}
	}
	b.Run("cold", func(b *testing.B) { coldOp(b, batch(w.scattered)) })
	b.Run("hotcell", func(b *testing.B) { coldOp(b, batch(w.hotcell)) })
	b.Run("hotcell-perrequest", func(b *testing.B) {
		coldOp(b, func() error {
			for _, it := range w.hotcell {
				rec, err := w.eng.Submit(it.S, it.D, it.Riders)
				if err != nil {
					return err
				}
				if err := w.eng.Decline(rec.ID); err != nil {
					return err
				}
			}
			return nil
		})
	})
}

// metroBenchWorld is the metro-scale world: a 160×160 city (25,600
// vertices, 16×16 grid cells like every engine's) with 5,000 roaming
// taxis under the dual-side matcher, warmed by 300 seeded requests of
// which every other one is accepted. retainedMB is the live heap the
// world holds once warm.
type metroBenchWorld struct {
	eng        *core.Engine
	probes     [][2]roadnet.VertexID
	retainedMB float64
}

var (
	metroOnce  sync.Once
	metroState *metroBenchWorld
)

func metroWorld(b *testing.B) *metroBenchWorld {
	b.Helper()
	metroOnce.Do(func() {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		g, err := gen.GenerateNetwork(gen.CityConfig{Width: 160, Height: 160, Seed: 1})
		if err != nil {
			panic(err)
		}
		eng, err := core.NewEngine(g, core.Config{Capacity: 4, Algorithm: core.AlgoDualSide, Seed: 1})
		if err != nil {
			panic(err)
		}
		eng.AddVehiclesUniform(5000)
		rng := rand.New(rand.NewSource(2))
		pair := func() (s, d roadnet.VertexID) {
			for s == d {
				s = roadnet.VertexID(rng.Intn(g.NumVertices()))
				d = roadnet.VertexID(rng.Intn(g.NumVertices()))
			}
			return s, d
		}
		for i := 0; i < 300; i++ {
			s, d := pair()
			rec, err := eng.Submit(s, d, 1)
			if err != nil {
				panic(err)
			}
			if i%2 == 0 && len(rec.Options) > 0 {
				err = eng.Choose(rec.ID, 0)
			} else {
				err = eng.Decline(rec.ID)
			}
			if err != nil {
				panic(err)
			}
		}
		probes := make([][2]roadnet.VertexID, 1024)
		for i := range probes {
			probes[i][0], probes[i][1] = pair()
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		metroState = &metroBenchWorld{
			eng:        eng,
			probes:     probes,
			retainedMB: (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / (1 << 20),
		}
	})
	return metroState
}

// BenchmarkMetroQuote — quoting at metro scale: each op submits one
// seeded request to the warmed 160×160, 5,000-taxi city and declines
// it, so the fleet is the same for every op. Besides ms/op it reports
// the host-independent work per quote — settled/op (vertices the
// batch-fill searches settled; at most 2·|V| = 51,200), verified/op
// (vehicles whose kinetic tree was consulted) and dist_calls/op — and
// retained_MB, the live heap of the warmed world.
func BenchmarkMetroQuote(b *testing.B) {
	w := metroWorld(b)
	st0 := w.eng.Stats()
	calls0, settled0 := w.eng.DistCalls(), w.eng.Settled()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := w.probes[i%len(w.probes)]
		rec, err := w.eng.Submit(p[0], p[1], 1)
		if err != nil {
			b.Fatal(err)
		}
		if err := w.eng.Decline(rec.ID); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := w.eng.Stats()
	verified := st.AvgVerified*float64(st.Requests) - st0.AvgVerified*float64(st0.Requests)
	n := float64(b.N)
	b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/n, "ms/op")
	b.ReportMetric(float64(w.eng.Settled()-settled0)/n, "settled/op")
	b.ReportMetric(verified/n, "verified/op")
	b.ReportMetric(float64(w.eng.DistCalls()-calls0)/n, "dist_calls/op")
	b.ReportMetric(w.retainedMB, "retained_MB")
}

// BenchmarkGridBuild — E6: index construction across resolutions.
func BenchmarkGridBuild(b *testing.B) {
	g, err := gen.GenerateNetwork(gen.CityConfig{Width: 32, Height: 32, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	for _, res := range []int{8, 16, 32} {
		b.Run(map[int]string{8: "8x8", 16: "16x16", 32: "32x32"}[res], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := gridindex.Build(g, gridindex.Config{Cols: res, Rows: res}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGridBounds — E6: LB point queries.
func BenchmarkGridBounds(b *testing.B) {
	g, err := gen.GenerateNetwork(gen.CityConfig{Width: 32, Height: 32, Seed: 8})
	if err != nil {
		b.Fatal(err)
	}
	grid, err := gridindex.Build(g, gridindex.Config{Cols: 16, Rows: 16})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	n := g.NumVertices()
	b.Run("LB", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			grid.LB(roadnet.VertexID(rng.Intn(n)), roadnet.VertexID(rng.Intn(n)))
		}
	})
}

// BenchmarkVehicleListUpdate — E6: the dynamic list updates behind the
// demo's location/pickup/dropoff update workload.
func BenchmarkVehicleListUpdate(b *testing.B) {
	lists := gridindex.NewVehicleLists(256)
	rng := rand.New(rand.NewSource(10))
	cells := make([]gridindex.CellID, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		id := gridindex.VehicleID(i % 4096)
		if i%2 == 0 {
			lists.PlaceEmpty(id, gridindex.CellID(rng.Intn(256)))
		} else {
			for j := range cells {
				cells[j] = gridindex.CellID(rng.Intn(256))
			}
			lists.PlaceNonEmpty(id, cells)
		}
	}
}

// BenchmarkFleetTick — E2/E6: moving the whole roaming fleet one second
// (the demo's periodic location updates).
func BenchmarkFleetTick(b *testing.B) {
	g, err := gen.GenerateNetwork(gen.CityConfig{Width: 32, Height: 32, Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	eng, err := core.NewEngine(g, core.Config{Capacity: 4, Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	eng.AddVehiclesUniform(1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Tick(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKineticQuote — §3.3: inserting a request into a loaded
// kinetic tree with lazy bound evaluation.
func BenchmarkKineticQuote(b *testing.B) {
	w := loadedWorld(b)
	s := roadnet.NewSearcher(w.g)
	oracleM := searcherMetric{s: s}
	tree := kinetic.New(oracleM, 4, 8, 0, 0)
	rng := rand.New(rand.NewSource(12))
	reqID := kinetic.RequestID(1)
	for tree.NumRequests() < 2 {
		sv := roadnet.VertexID(rng.Intn(w.g.NumVertices()))
		dv := roadnet.VertexID(rng.Intn(w.g.NumVertices()))
		if sv == dv {
			continue
		}
		sd := s.Dist(sv, dv)
		req := kinetic.Request{ID: reqID, S: sv, D: dv, Riders: 1, SD: sd, ServiceLimit: 1.6 * sd, WaitBudget: 1e6}
		if cands := tree.Quote(req); len(cands) > 0 {
			if err := tree.Commit(req, cands[0]); err != nil {
				b.Fatal(err)
			}
			reqID++
		}
	}
	probe := kinetic.Request{ID: 999, S: 5, D: 800, Riders: 1, SD: s.Dist(5, 800), ServiceLimit: 1.6 * s.Dist(5, 800), WaitBudget: 1e6}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Quote(probe)
	}
}

type searcherMetric struct{ s *roadnet.Searcher }

func (m searcherMetric) Dist(u, v roadnet.VertexID) float64 { return m.s.Dist(u, v) }
func (m searcherMetric) LB(u, v roadnet.VertexID) float64   { return 0 }

// BenchmarkShortestPath — substrate: point-to-point queries on the city.
func BenchmarkShortestPath(b *testing.B) {
	g, err := gen.GenerateNetwork(gen.CityConfig{Width: 48, Height: 48, Seed: 13})
	if err != nil {
		b.Fatal(err)
	}
	s := roadnet.NewSearcher(g)
	rng := rand.New(rand.NewSource(14))
	n := g.NumVertices()
	b.Run("astar", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.Dist(roadnet.VertexID(rng.Intn(n)), roadnet.VertexID(rng.Intn(n)))
		}
	})
}

// BenchmarkSkyline — Definition 4 maintenance under churn.
func BenchmarkSkyline(b *testing.B) {
	rng := rand.New(rand.NewSource(15))
	b.ReportAllocs()
	var sky skyline.Skyline[int]
	for i := 0; i < b.N; i++ {
		if i%64 == 0 {
			sky.Reset()
		}
		sky.Add(rng.Float64()*1000, rng.Float64()*100, i)
	}
}

// BenchmarkDayThroughput — E2 at benchmark scale: a whole mini-day per
// iteration (requests + choices + movement), reporting wall time per
// simulated day.
func BenchmarkDayThroughput(b *testing.B) {
	g, err := gen.GenerateNetwork(gen.CityConfig{Width: 24, Height: 24, Seed: 16})
	if err != nil {
		b.Fatal(err)
	}
	trace, err := gen.GenerateTrips(g, gen.TripConfig{NumTrips: 300, DaySeconds: 900, Seed: 16})
	if err != nil {
		b.Fatal(err)
	}
	trips := sim.TraceTrips(trace)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := core.NewEngine(g, core.Config{Capacity: 4, Seed: 16})
		if err != nil {
			b.Fatal(err)
		}
		eng.AddVehiclesUniform(80)
		if _, err := sim.Run(eng, trips, sim.Config{TickSeconds: 2, Seed: 16}); err != nil {
			b.Fatal(err)
		}
	}
}
