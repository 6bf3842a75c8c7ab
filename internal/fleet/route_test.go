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
// fresh search from where it stands plans, and its registration is the
// one a fresh search per leg gives. Requests keep arriving on vehicles
// already under way, so next stops change mid-route; the fleet runs at
// the serial width and a parallel one. After every step, each scheduled
// vehicle's planned route equals Path(root, BestStop(0).Loc), so its
// next hop is that path's first, and the cells its registration would
// list now are those of oneSearchPerLeg.
//
// The grid's lists themselves are compared where they were just
// written from the state the reference reads: after every commit, and
// after a step in which the vehicle crossed into another cell (a step's
// budget is below the lattice's shortest edge, so a vehicle enters at
// most one edge per step and registers last on entering it). Between
// registrations the tree may swap its driven branch for an equally long
// one — float rounding breaks such ties differently from another root —
// and the lists keep the old branch's cells until the next commit, stop
// or crossing, as they always have.
func TestRouteMatchesFreshPath(t *testing.T) {
	for _, width := range []int{1, 4} {
		t.Run(fmt.Sprintf("width=%d", width), func(t *testing.T) {
			w := loadedWorld(t, width)
			rng := rand.New(rand.NewSource(11))
			n := w.g.NumVertices()
			next := kinetic.RequestID(1000)
			cellBefore := make([]gridindex.CellID, w.fl.NumVehicles())
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
				got, _ := w.listed(v.ID)
				if want := distinct(oneSearchPerLeg(w, v)); !slices.Equal(got, want) {
					t.Fatalf("step %d: vehicle %d listed in %v after a commit, one search per leg gives %v", step, v.ID, got, want)
				}
			}
			for step := 0; step < 200; step++ {
				commit(step)
				for _, v := range w.fl.Snapshot() {
					cellBefore[v.ID] = w.grid.CellOf(v.Tree.Root())
				}
				if _, err := w.fl.Step(60); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				for _, v := range w.fl.Snapshot() {
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
					want := oneSearchPerLeg(w, v)
					if got := w.fl.Registration(v); !slices.Equal(got, want) {
						t.Fatalf("step %d: vehicle %d would register %v, one search per leg gives %v", step, v.ID, got, want)
					}
					if w.grid.CellOf(v.Tree.Root()) == cellBefore[v.ID] {
						continue
					}
					if got, _ := w.listed(v.ID); !slices.Equal(got, distinct(want)) {
						t.Fatalf("step %d: vehicle %d listed in %v after a crossing, one search per leg gives %v", step, v.ID, got, distinct(want))
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

// oneSearchPerLeg is a non-empty vehicle's registration as a fresh
// search per leg builds it: the cells of its tree locations, then, for
// each leg of its driven branch (root → stop 0, stop 0 → stop 1, …),
// the cells along a shortest path, one per run of vertices in a cell.
func oneSearchPerLeg(w *world, v *fleet.Vehicle) []gridindex.CellID {
	var cells []gridindex.CellID
	for _, loc := range v.Tree.AppendLocations(nil) {
		cells = append(cells, w.grid.CellOf(loc))
	}
	prev := v.Tree.Root()
	for j := 0; ; j++ {
		p, ok := v.Tree.BestStop(j)
		if !ok {
			return cells
		}
		path, _ := w.s.Path(prev, p.Loc)
		last := gridindex.NoCell
		for _, x := range path {
			if c := w.grid.CellOf(x); c != last {
				cells = append(cells, c)
				last = c
			}
		}
		prev = p.Loc
	}
}

// distinct returns each cell once, in cell order, as listed reads a
// vehicle's cells back.
func distinct(cells []gridindex.CellID) []gridindex.CellID {
	return slices.Compact(slices.Sorted(slices.Values(cells)))
}
