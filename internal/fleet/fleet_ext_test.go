package fleet_test

import (
	"math/rand"
	"slices"
	"testing"

	"ptrider/internal/fleet"
	"ptrider/internal/gridindex"
	"ptrider/internal/kinetic"
	"ptrider/internal/roadnet"
	"ptrider/internal/testnet"
)

// TestZeroWeightEdgeSafety: a zero-weight edge must not stall movement
// (the fleet assigns it a tiny physical length).
func TestZeroWeightEdgeSafety(t *testing.T) {
	b := roadnet.NewBuilder(3, 6)
	b.AddVertex(geoPoint(0, 0))
	b.AddVertex(geoPoint(0, 0)) // coincident: zero-weight edge is metric
	b.AddVertex(geoPoint(100, 0))
	b.AddEdge(0, 1, 0)
	b.AddEdge(1, 2, 100)
	g := b.MustBuild()
	grid, err := gridindex.Build(g, gridindex.Config{Cols: 1, Rows: 1})
	if err != nil {
		t.Fatalf("grid: %v", err)
	}
	lists := gridindex.NewVehicleLists(grid.NumCells())
	m := &lockedMetric{s: roadnet.NewSearcher(g), grid: grid}
	fl, err := fleet.New(grid, lists, m, fleet.Config{Capacity: 2, Seed: 1})
	if err != nil {
		t.Fatalf("fleet: %v", err)
	}
	fl.AddVehicle(0)
	// 200 random-walk steps across the zero-weight edge must terminate.
	for i := 0; i < 200; i++ {
		if _, err := fl.Step(50); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
}

// TestCommitForeignCandidateFails: committing a candidate quoted
// against a different tree state must be rejected, not corrupt the
// schedule.
func TestCommitForeignCandidateFails(t *testing.T) {
	w := newWorld(t, 41, 4)
	a := w.fl.AddVehicle(0)
	b := w.fl.AddVehicle(63)
	req := w.request(t, 1, 27, 45, 1, 0.3, 10)
	candsA := a.Tree.Quote(req)
	if len(candsA) == 0 {
		t.Skip("no candidate from a on this seed")
	}
	// b is far away: a's planned pickup distance is unreachable within
	// the tiny waiting budget, so the stale-candidate guard fires.
	if _, err := w.fl.Commit(b.ID, req, candsA[0], 0); err == nil {
		t.Fatal("foreign candidate accepted")
	}
	if !b.Tree.Empty() {
		t.Fatal("failed commit left state behind")
	}
}

// TestReprobePicksLeastDetourAllocatingNothing: among the fresh
// candidates within the slack of a stale quote, the re-probe picks the
// least detour, then the least pick-up distance, first in quote order
// on a tie, and allocates nothing, with a winner or without.
func TestReprobePicksLeastDetourAllocatingNothing(t *testing.T) {
	w := newWorld(t, 43, 4)
	v := w.fl.AddVehicle(0)
	first := w.request(t, 1, 27, 45, 1, 0.5, 1e6)
	if _, err := w.fl.Commit(v.ID, first, v.Tree.Quote(first)[0], 0); err != nil {
		t.Fatalf("commit: %v", err)
	}
	// A second request whose skyline offers a choice.
	var req kinetic.Request
	var all []kinetic.Candidate
	for s := roadnet.VertexID(1); len(all) < 2; s++ {
		if s == 63 {
			t.Fatal("no second request with two or more candidates")
		}
		req = w.request(t, 2, s, 63-s/2, 1, 0.5, 1e6)
		all = v.Tree.Quote(req)
	}

	for _, stale := range all {
		for _, slack := range []float64{0, 0.05, 0.3, 10} {
			allow := slack * req.SD
			want := -1
			for i, c := range all {
				if c.PickupDist > stale.PickupDist+allow || c.Delta > stale.Delta+allow {
					continue
				}
				if want < 0 || c.Delta < all[want].Delta ||
					(c.Delta == all[want].Delta && c.PickupDist < all[want].PickupDist) {
					want = i
				}
			}
			got, ok := w.fl.Reprobe(v, req, stale, slack)
			if !ok || got != all[want] {
				t.Fatalf("slack %v from %+v: got %+v (%v), want %+v", slack, stale, got, ok, all[want])
			}
		}
	}

	if n := testing.AllocsPerRun(100, func() { w.fl.Reprobe(v, req, all[0], 10) }); n != 0 {
		t.Fatalf("a re-probe with a winner allocates %v times, want 0", n)
	}
	beyond := kinetic.Candidate{PickupDist: -1e9, Delta: -1e9}
	if n := testing.AllocsPerRun(100, func() { w.fl.Reprobe(v, req, beyond, 0) }); n != 0 {
		t.Fatalf("a re-probe without a winner allocates %v times, want 0", n)
	}
}

// TestRegistrationConsistencyUnderChurn: after arbitrary operations
// every active vehicle is registered exactly once, in empty XOR
// non-empty lists, consistent with its schedule state.
func TestRegistrationConsistencyUnderChurn(t *testing.T) {
	w := newWorld(t, 42, 3)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 10; i++ {
		w.fl.AddVehicle(roadnet.VertexID(rng.Intn(w.g.NumVertices())))
	}
	next := kinetic.RequestID(1)
	for step := 0; step < 300; step++ {
		if rng.Intn(3) == 0 {
			vid := fleet.VehicleID(rng.Intn(w.fl.NumVehicles()))
			v, _ := w.fl.Vehicle(vid)
			if v.Removed() {
				continue
			}
			s := roadnet.VertexID(rng.Intn(w.g.NumVertices()))
			d := roadnet.VertexID(rng.Intn(w.g.NumVertices()))
			if s == d {
				continue
			}
			req := w.request(t, next, s, d, 1, 0.6, 500)
			if cands := v.Tree.Quote(req); len(cands) > 0 {
				if _, err := w.fl.Commit(vid, req, cands[0], 0); err != nil {
					t.Fatalf("commit: %v", err)
				}
				next++
			}
		}
		if _, err := w.fl.Step(80); err != nil {
			t.Fatalf("step: %v", err)
		}

		for _, v := range w.fl.Snapshot() {
			cells, empty := w.listed(v.ID)
			if len(cells) == 0 {
				t.Fatalf("step %d: vehicle %d unregistered", step, v.ID)
			}
			if empty != v.Tree.Empty() {
				t.Fatalf("step %d: vehicle %d empty=%v but tree empty=%v",
					step, v.ID, empty, v.Tree.Empty())
			}
			if v.Tree.Empty() {
				if len(cells) != 1 || cells[0] != w.grid.CellOf(v.Tree.Root()) {
					t.Fatalf("step %d: empty vehicle %d cells %v, loc cell %d",
						step, v.ID, cells, w.grid.CellOf(v.Tree.Root()))
				}
				continue
			}
			// Non-empty: every stop location's cell must be registered.
			reg := map[gridindex.CellID]bool{}
			for _, c := range cells {
				reg[c] = true
			}
			for _, loc := range v.Tree.AppendLocations(nil) {
				if !reg[w.grid.CellOf(loc)] {
					t.Fatalf("step %d: vehicle %d stop cell %d unregistered (%v)",
						step, v.ID, w.grid.CellOf(loc), cells)
				}
			}
		}
	}
}

// TestStepListOrderAcrossWorkers: the grid's vehicle lists — order
// included, because list order breaks exact ties between co-located
// vehicles in the matchers — are the same after a sharded step as
// after the serial one. Several vehicles start on one vertex so cells
// hold more than one entry, and a third of the fleet carries a request
// so the non-empty lists churn too.
func TestStepListOrderAcrossWorkers(t *testing.T) {
	type sized struct {
		*world
		workers int
	}
	build := func(workers int) sized {
		g := testnet.Lattice(rand.New(rand.NewSource(5)), 10, 10, 100)
		grid, err := gridindex.Build(g, gridindex.Config{Cols: 4, Rows: 4})
		if err != nil {
			t.Fatalf("grid: %v", err)
		}
		lists := gridindex.NewVehicleLists(grid.NumCells())
		m := &lockedMetric{s: roadnet.NewSearcher(g), grid: grid}
		var fl *fleet.Fleet
		testnet.AtProcs(workers, func() {
			fl, err = fleet.New(grid, lists, m, fleet.Config{Capacity: 3, Seed: 5})
		})
		if err != nil {
			t.Fatalf("fleet: %v", err)
		}
		w := &world{g: g, grid: grid, lists: lists, fl: fl, s: roadnet.NewSearcher(g)}
		rng := rand.New(rand.NewSource(5))
		n := g.NumVertices()
		for i := 0; i < 60; i++ {
			v := fl.AddVehicle(roadnet.VertexID(rng.Intn(n / 4)))
			s, d := roadnet.VertexID(rng.Intn(n)), roadnet.VertexID(rng.Intn(n))
			if i%3 != 0 || s == d {
				continue
			}
			req := w.request(t, kinetic.RequestID(i+1), s, d, 1, 1, 1e9)
			if cands := v.Tree.Quote(req); len(cands) > 0 {
				if _, err := fl.Commit(v.ID, req, cands[0], 0); err != nil {
					t.Fatalf("commit: %v", err)
				}
			}
		}
		return sized{w, workers}
	}
	serial := build(1)
	sharded := []sized{build(2), build(4), build(8)}
	for step := 0; step < 150; step++ {
		if _, err := serial.fl.Step(70); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		for _, w := range sharded {
			if _, err := w.fl.Step(70); err != nil {
				t.Fatalf("step %d workers %d: %v", step, w.workers, err)
			}
			for c := 0; c < w.grid.NumCells(); c++ {
				cell := gridindex.CellID(c)
				if a, b := serial.lists.AppendEmpty(cell, nil), w.lists.AppendEmpty(cell, nil); !slices.Equal(a, b) {
					t.Fatalf("step %d workers %d cell %d: empty list %v, serial %v", step, w.workers, c, b, a)
				}
				if a, b := serial.lists.AppendNonEmpty(cell, nil), w.lists.AppendNonEmpty(cell, nil); !slices.Equal(a, b) {
					t.Fatalf("step %d workers %d cell %d: non-empty list %v, serial %v", step, w.workers, c, b, a)
				}
			}
		}
	}
}
