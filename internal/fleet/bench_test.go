package fleet_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"ptrider/internal/fleet"
	"ptrider/internal/gridindex"
	"ptrider/internal/kinetic"
	"ptrider/internal/roadnet"
	"ptrider/internal/testnet"
)

// lockedMetric is the searcher+grid metric the engine uses, with the
// single Searcher behind a mutex so parallel tick shards can share it:
// serving a stop re-enumerates the kinetic tree, which reads distances,
// so at a width above one the fleet calls the metric concurrently. The
// engine uses its concurrent distance memo for this; the fleet tests pay
// one mutex instead. Grid lower bounds are immutable and need no lock.
type lockedMetric struct {
	mu   sync.Mutex
	s    *roadnet.Searcher
	grid *gridindex.Grid
}

func (m *lockedMetric) Dist(u, v roadnet.VertexID) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.s.Dist(u, v)
}

func (m *lockedMetric) LB(u, v roadnet.VertexID) float64 { return m.grid.LB(u, v) }

// benchFleet builds a fleet of nv vehicles on a 48x48 lattice with the
// given shard width (the GOMAXPROCS it is built at) and commits one
// request onto every 5th vehicle so the step mixes schedule-driven
// driving (with pickup/dropoff events) into the roaming baseline.
func benchFleet(b testing.TB, nv, workers int) *fleet.Fleet {
	b.Helper()
	rng := rand.New(rand.NewSource(9))
	g := testnet.Lattice(rng, 48, 48, 100)
	grid, err := gridindex.Build(g, gridindex.Config{Cols: 8, Rows: 8})
	if err != nil {
		b.Fatalf("grid: %v", err)
	}
	lists := gridindex.NewVehicleLists(grid.NumCells())
	m := &lockedMetric{s: roadnet.NewSearcher(g), grid: grid}
	var fl *fleet.Fleet
	testnet.AtProcs(workers, func() {
		fl, err = fleet.New(grid, lists, m, fleet.Config{Capacity: 4, Seed: 9})
	})
	if err != nil {
		b.Fatalf("fleet: %v", err)
	}
	n := g.NumVertices()
	searcher := roadnet.NewSearcher(g)
	for i := 0; i < nv; i++ {
		v := fl.AddVehicle(roadnet.VertexID(rng.Intn(n)))
		if i%5 != 0 {
			continue
		}
		s := roadnet.VertexID(rng.Intn(n))
		d := roadnet.VertexID(rng.Intn(n))
		sd := searcher.Dist(s, d)
		if s == d || sd == 0 {
			continue
		}
		req := kinetic.Request{
			ID: kinetic.RequestID(i), S: s, D: d, Riders: 1,
			SD: sd, ServiceLimit: 2 * sd, WaitBudget: 1e9,
		}
		cands := v.Tree.Quote(req)
		if len(cands) == 0 {
			continue
		}
		if _, err := fl.Commit(v.ID, req, cands[0], 0); err != nil {
			b.Fatalf("commit on vehicle %d: %v", v.ID, err)
		}
	}
	return fl
}

// TestStepAllocCeiling pins the allocations of one step of a loaded
// 1,000-vehicle fleet at the serial width: routes are planned once per
// leg and registrations reuse the vehicle's buffers, so what is left is
// a path search's result per replanned leg and the step's events. Steps
// 6–55 read 24 allocs each; under -race they read ~30, because the race
// detector makes the fleet's own sync.Pools drop some puts (the kinetic
// workspaces sit on a channel free list, which keeps every one). A
// search per vertex and a fresh cells slice per registration read
// 1,042, and vehicle lists built on maps, whose growth was most of a
// step's allocations, 175.
func TestStepAllocCeiling(t *testing.T) {
	const ceiling = 40
	fl := benchFleet(t, 1000, 1)
	step := func() {
		if _, err := fl.Step(100); err != nil {
			t.Fatalf("step: %v", err)
		}
	}
	for i := 0; i < 5; i++ {
		step() // the first steps size the pooled per-step buffers
	}
	n := testing.AllocsPerRun(50, step)
	t.Logf("%.1f allocs per step", n)
	if n > ceiling {
		t.Fatalf("%.1f allocs per step, ceiling %d", n, ceiling)
	}
}

// TestLoadedVehicleFootprint pins the heap cost of a vehicle in a
// loaded fleet: benchFleet's 1,000 vehicles (a request on every 5th),
// each quoted once and the fleet then stepped, less the same city with
// no vehicles, per vehicle, live after GCs. While each kinetic tree kept
// its own enumeration workspace, which the quote sized, this read
// 1,390 B; with one pooled workspace per running walk it read ~685 B,
// and with map-free vehicle lists it reads ~526 B (the city itself is
// ~321 KB).
func TestLoadedVehicleFootprint(t *testing.T) {
	const nv, ceiling = 1000, 576
	live := func() int64 {
		// Two collections: what the fleet's sync.Pools hold survives
		// the first one.
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	base := live()
	city := benchFleet(t, 0, 1)
	cityBytes := live() - base
	runtime.KeepAlive(city)

	base = live()
	fl := benchFleet(t, nv, 1)
	// Budgets every vehicle can meet, so each one runs a full quote walk.
	req := kinetic.Request{ID: 1 << 40, S: 100, D: 2000, Riders: 1, SD: 1, ServiceLimit: 1e9, WaitBudget: 1e9}
	var cands []kinetic.PackedCandidate
	var pts []kinetic.Point
	for _, v := range fl.Snapshot() {
		cands, pts = v.QuotePacked(req, cands[:0], pts[:0], nil)
	}
	for i := 0; i < 3; i++ {
		if _, err := fl.Step(100); err != nil {
			t.Fatalf("step: %v", err)
		}
	}
	per := (live() - base - cityBytes) / nv
	runtime.KeepAlive(fl)
	t.Logf("%d B per loaded vehicle (city %d B)", per, cityBytes)
	if per > ceiling {
		t.Fatalf("%d B per loaded vehicle, ceiling %d", per, ceiling)
	}
}

// BenchmarkFleetTickParallel measures the sharded fleet step across
// worker widths and fleet sizes. events_per_op reports the merged
// pickup/dropoff volume per step and ns_per_vehicle the per-vehicle
// cost — the number that must fall as workers rise on a multi-core
// host (the 1-core CI container shows parity).
func BenchmarkFleetTickParallel(b *testing.B) {
	for _, nv := range []int{1000, 10000} {
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("vehicles=%d/workers=%d", nv, workers), func(b *testing.B) {
				fl := benchFleet(b, nv, workers)
				b.ResetTimer()
				start := time.Now()
				var events int
				for i := 0; i < b.N; i++ {
					evs, err := fl.Step(100)
					if err != nil {
						b.Fatalf("step: %v", err)
					}
					events += len(evs)
				}
				elapsed := time.Since(start)
				b.ReportMetric(float64(events)/float64(b.N), "events_per_op")
				b.ReportMetric(float64(elapsed.Nanoseconds())/float64(b.N)/float64(nv), "ns_per_vehicle")
			})
		}
	}
}
