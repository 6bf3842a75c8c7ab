package fleet_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ptrider/internal/fleet"
	"ptrider/internal/gridindex"
	"ptrider/internal/kinetic"
	"ptrider/internal/roadnet"
	"ptrider/internal/testnet"
)

// TestRouteMatchesFreshPath: the route a vehicle keeps is the path a
// fresh search from where it stands plans, and the grid lists it in the
// cells of its location and of its pending stops and in no other.
// Requests keep arriving on vehicles already under way, so next stops
// change mid-route; the fleet runs at the serial width and a parallel
// one. After every step, each scheduled vehicle's planned route equals
// Path(root, BestStop(0).Loc), so its next hop is that path's first.
//
// The lists are compared after every commit and after every step, for
// every vehicle: a registration changes only when the vehicle crosses
// into another cell, serves a stop or takes a commit, and each of those
// places it again, so the lists never lag the tree.
func TestRouteMatchesFreshPath(t *testing.T) {
	for _, width := range []int{1, 4} {
		t.Run(fmt.Sprintf("width=%d", width), func(t *testing.T) {
			w := loadedWorld(t, width)
			rng := rand.New(rand.NewSource(11))
			n := w.g.NumVertices()
			next := kinetic.RequestID(1000)
			checkListed := func(step int, v *fleet.Vehicle, when string) {
				t.Helper()
				got, empty := w.listed(v.ID)
				want := stopCells(w, v)
				if empty != v.Tree.Empty() || !slices.Equal(got, want) {
					t.Fatalf("step %d: vehicle %d listed in %v (empty %v) after a %s, its root and stops are in %v", step, v.ID, got, empty, when, want)
				}
			}
			// commit gives a random vehicle a random request, on any of
			// its candidates, and checks the registration it placed.
			commit := func(step int) {
				v, _ := w.fl.Vehicle(fleet.VehicleID(rng.Intn(w.fl.NumVehicles())))
				s, d := roadnet.VertexID(rng.Intn(n)), roadnet.VertexID(rng.Intn(n))
				if s == d {
					return
				}
				req := w.request(t, next, s, d, 1, 1, 1e9)
				cands := v.Tree.Quote(req)
				if len(cands) == 0 {
					return
				}
				if _, err := w.fl.Commit(v.ID, req, cands[rng.Intn(len(cands))], 0); err != nil {
					t.Fatalf("step %d: commit on vehicle %d: %v", step, v.ID, err)
				}
				next++
				checkListed(step, v, "commit")
			}
			for step := 0; step < 200; step++ {
				commit(step)
				if _, err := w.fl.Step(60); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				for _, v := range w.fl.Snapshot() {
					checkListed(step, v, "step")
					route := w.fl.PlannedRoute(v)
					stop, ok := v.Tree.BestStop(0)
					if !ok {
						if route != nil {
							t.Fatalf("step %d: vehicle %d has no stop but keeps route %v", step, v.ID, route)
						}
						continue
					}
					fresh, _ := w.s.Path(v.Tree.Root(), stop.Loc)
					if !slices.Equal(route, fresh) {
						t.Fatalf("step %d: vehicle %d drives %v, a fresh search plans %v", step, v.ID, route, fresh)
					}
				}
			}
		})
	}
}

// loadedWorld is a 16×16 lattice fleet of 40 vehicles at the given
// shard width, every other one given a request through Commit.
func loadedWorld(t *testing.T, width int) *world {
	t.Helper()
	g := testnet.Lattice(rand.New(rand.NewSource(7)), 16, 16, 100)
	grid, err := gridindex.Build(g, gridindex.Config{Cols: 8, Rows: 8})
	if err != nil {
		t.Fatalf("grid: %v", err)
	}
	lists := gridindex.NewVehicleLists(grid.NumCells())
	m := &lockedMetric{s: roadnet.NewSearcher(g), grid: grid}
	var fl *fleet.Fleet
	testnet.AtProcs(width, func() {
		fl, err = fleet.New(grid, lists, m, fleet.Config{Capacity: 3, Seed: 7})
	})
	if err != nil {
		t.Fatalf("fleet: %v", err)
	}
	w := &world{g: g, grid: grid, lists: lists, fl: fl, s: roadnet.NewSearcher(g)}
	rng := rand.New(rand.NewSource(7))
	n := g.NumVertices()
	for i := 0; i < 40; i++ {
		v := fl.AddVehicle(roadnet.VertexID(rng.Intn(n)))
		s, d := roadnet.VertexID(rng.Intn(n)), roadnet.VertexID(rng.Intn(n))
		if i%2 != 0 || s == d {
			continue
		}
		req := w.request(t, kinetic.RequestID(i+1), s, d, 1, 1, 1e9)
		if cands := v.Tree.Quote(req); len(cands) > 0 {
			if _, err := fl.Commit(v.ID, req, cands[0], 0); err != nil {
				t.Fatalf("commit: %v", err)
			}
		}
	}
	return w
}

// stopCells is the cells a vehicle is listed in, as listed reads them
// back: its root's, and, when it is not empty, its pending stops'; each
// once, in cell order.
func stopCells(w *world, v *fleet.Vehicle) []gridindex.CellID {
	var cells []gridindex.CellID
	for _, loc := range v.Tree.AppendLocations(nil) {
		cells = append(cells, w.grid.CellOf(loc))
	}
	return slices.Compact(slices.Sorted(slices.Values(cells)))
}
