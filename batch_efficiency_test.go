package ptrider_test

import (
	"math/rand"
	"testing"

	"ptrider/internal/core"
	"ptrider/internal/gen"
	"ptrider/internal/gridindex"
	"ptrider/internal/roadnet"
	"ptrider/internal/sim"
	"ptrider/internal/testnet"
)

// buildBatchWorld builds one loaded dual-side city for the batch
// efficiency test; maxPickupSeconds 0 keeps the engine default (a
// pick-up radius wider than the city). Engines built with the same
// argument are identical, so option sets are comparable item by item.
func buildBatchWorld(t *testing.T, maxPickupSeconds float64) *core.Engine {
	t.Helper()
	g, err := gen.GenerateNetwork(gen.CityConfig{Width: 24, Height: 24, RemoveFrac: 0.15, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	// Serial probes keep the exact-search counts deterministic:
	// concurrent probes racing on a cold memo pair may both compute it,
	// which DistCalls counts twice (documented), so a multi-core host
	// would wobble the measured ratio. An engine built at GOMAXPROCS 1
	// quotes a batch wave on one goroutine.
	var eng *core.Engine
	testnet.AtProcs(1, func() {
		eng, err = core.NewEngine(g, core.Config{
			Capacity:       4,
			MaxWaitSeconds: 300, Sigma: 0.4, Seed: 31,
			MaxPickupSeconds: maxPickupSeconds,
			Algorithm:        core.AlgoDualSide,
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.AddVehiclesUniform(120)
	trips, err := gen.GenerateTrips(g, gen.TripConfig{NumTrips: 150, DaySeconds: 600, Seed: 32})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(eng, sim.TraceTrips(trips), sim.Config{TickSeconds: 2, Seed: 32, EndSeconds: 600}); err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestBatchCostsNoMoreThanItsRiders pins that SubmitBatch is its
// riders' matches run side by side and nothing else: a hot-cell batch
// (16 simultaneous requests sharing an origin grid cell) performs no
// more than 1.02x the exact shortest-path computations of the same
// riders submitted one by one, with the same option sets — at the
// default whole-city pick-up radius and at a bounded one (see
// ARCHITECTURE.md, "Simultaneous requests"). The slack covers
// memo-order effects only: a batch resolves every dist(s, d) before
// its first match.
func TestBatchCostsNoMoreThanItsRiders(t *testing.T) {
	for _, tc := range []struct {
		name      string
		maxPickup float64
	}{
		{"whole-city radius", 0},
		{"300s radius", 300},
	} {
		t.Run(tc.name, func(t *testing.T) { testBatchDistCalls(t, tc.maxPickup) })
	}
}

func testBatchDistCalls(t *testing.T, maxPickupSeconds float64) {
	engA := buildBatchWorld(t, maxPickupSeconds) // answers the batch
	engB := buildBatchWorld(t, maxPickupSeconds) // answers per-request

	grid := engA.Grid()
	best := gridindex.CellID(0)
	for c := 0; c < grid.NumCells(); c++ {
		if len(grid.Cell(gridindex.CellID(c)).Vertices) > len(grid.Cell(best).Vertices) {
			best = gridindex.CellID(c)
		}
	}
	verts := grid.Cell(best).Vertices
	rng := rand.New(rand.NewSource(33))
	n := engA.Graph().NumVertices()
	var items []core.BatchItem
	for len(items) < 16 {
		s := verts[rng.Intn(len(verts))]
		d := roadnet.VertexID(rng.Intn(n))
		if s == d {
			continue
		}
		items = append(items, core.BatchItem{S: s, D: d, Riders: 1, Constraints: core.DefaultConstraints()})
	}

	engA.ResetDistCache()
	beforeA := engA.DistCalls()
	recs, err := engA.SubmitBatch(items)
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	batchCalls := engA.DistCalls() - beforeA

	engB.ResetDistCache()
	beforeB := engB.DistCalls()
	perReq := make([][]core.Option, len(items))
	for i, it := range items {
		rec, err := engB.Submit(it.S, it.D, it.Riders)
		if err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
		perReq[i] = rec.Options
		if err := engB.Decline(rec.ID); err != nil {
			t.Fatal(err)
		}
	}
	perReqCalls := engB.DistCalls() - beforeB

	t.Logf("dist calls: batch %d, per-request %d (%.3fx)",
		batchCalls, perReqCalls, float64(batchCalls)/float64(perReqCalls))
	if float64(batchCalls) > 1.02*float64(perReqCalls) {
		t.Fatalf("batch costs more than its riders one by one: %d vs %d exact searches (limit 1.02x)",
			batchCalls, perReqCalls)
	}

	// The batch must not change what riders are offered.
	for i := range items {
		a, b := recs[i].Options, perReq[i]
		if len(a) != len(b) {
			t.Fatalf("item %d: %d options batched vs %d per-request", i, len(a), len(b))
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("item %d option %d: %+v vs %+v", i, j, a[j], b[j])
			}
		}
	}
}
