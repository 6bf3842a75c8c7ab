package fleet_test

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"ptrider/internal/fleet"
	"ptrider/internal/gridindex"
	"ptrider/internal/kinetic"
	"ptrider/internal/roadnet"
	"ptrider/internal/testnet"
)

type world struct {
	g     *roadnet.Graph
	grid  *gridindex.Grid
	lists *gridindex.VehicleLists
	fl    *fleet.Fleet
	s     *roadnet.Searcher
}

func newWorld(t *testing.T, seed int64, capacity int) *world {
	t.Helper()
	g := testnet.Lattice(rand.New(rand.NewSource(seed)), 8, 8, 100)
	grid, err := gridindex.Build(g, gridindex.Config{Cols: 4, Rows: 4})
	if err != nil {
		t.Fatalf("grid: %v", err)
	}
	lists := gridindex.NewVehicleLists(grid.NumCells())
	m := &lockedMetric{s: roadnet.NewSearcher(g), grid: grid}
	fl, err := fleet.New(grid, lists, m, fleet.Config{Capacity: capacity, Seed: seed})
	if err != nil {
		t.Fatalf("fleet: %v", err)
	}
	return &world{g: g, grid: grid, lists: lists, fl: fl, s: roadnet.NewSearcher(g)}
}

func (w *world) request(t *testing.T, id kinetic.RequestID, s, d roadnet.VertexID, riders int, sigma, wait float64) kinetic.Request {
	t.Helper()
	sd := w.s.Dist(s, d)
	if math.IsInf(sd, 1) {
		t.Fatalf("request %d endpoints disconnected", id)
	}
	return kinetic.Request{
		ID: id, S: s, D: d, Riders: riders,
		SD: sd, ServiceLimit: (1 + sigma) * sd, WaitBudget: wait,
	}
}

func TestConfigValidation(t *testing.T) {
	w := newWorld(t, 1, 4)
	if _, err := fleet.New(w.grid, w.lists, &lockedMetric{s: w.s, grid: w.grid}, fleet.Config{Capacity: 0}); err == nil {
		t.Error("capacity 0 accepted")
	}
	if _, err := fleet.New(w.grid, w.lists, &lockedMetric{s: w.s, grid: w.grid}, fleet.Config{Capacity: 2, MaxSchedulePoints: 1}); err == nil {
		t.Error("MaxSchedulePoints 1 accepted")
	}
}

func TestAddVehicleRegistersEmpty(t *testing.T) {
	w := newWorld(t, 2, 4)
	v := w.fl.AddVehicle(10)
	if v.Loc() != 10 || v.Odometer() != 0 || v.RemainToRoot() != 0 {
		t.Fatalf("fresh vehicle state: loc=%d odo=%v remain=%v", v.Loc(), v.Odometer(), v.RemainToRoot())
	}
	cell := w.grid.CellOf(10)
	found := false
	for _, id := range w.lists.Empty(cell) {
		if id == v.ID {
			found = true
		}
	}
	if !found {
		t.Fatal("vehicle not in its cell's empty list")
	}
	if w.fl.NumVehicles() != 1 || w.fl.NumActive() != 1 {
		t.Fatal("fleet counters wrong")
	}
}

func TestRandomWalkMovesAndKeepsRegistration(t *testing.T) {
	w := newWorld(t, 3, 4)
	v := w.fl.AddVehicle(0)
	for i := 0; i < 50; i++ {
		if _, err := w.fl.Step(150); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		// The empty vehicle must always be registered exactly in the
		// cell of its current target vertex.
		empty, reg := w.lists.IsEmptyVehicle(v.ID)
		if !empty || !reg {
			t.Fatalf("step %d: vehicle not registered empty", i)
		}
		cells := w.lists.Cells(v.ID)
		if len(cells) != 1 || cells[0] != w.grid.CellOf(v.Loc()) {
			t.Fatalf("step %d: registered in %v, located in %d", i, cells, w.grid.CellOf(v.Loc()))
		}
	}
	if v.Odometer() == 0 {
		t.Fatal("random walk never moved the vehicle")
	}
}

func TestCommitDriveServeLifecycle(t *testing.T) {
	w := newWorld(t, 4, 4)
	v := w.fl.AddVehicle(0)
	req := w.request(t, 1, 27, 45, 2, 0.5, 1e6)
	cands := v.Tree.Quote(req)
	if len(cands) == 0 {
		t.Fatal("no candidates for a fresh vehicle")
	}
	if _, err := w.fl.Commit(v.ID, req, cands[0], 0); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if e, _ := w.lists.IsEmptyVehicle(v.ID); e {
		t.Fatal("committed vehicle still in empty lists")
	}
	// Stop cells must be registered.
	regged := map[gridindex.CellID]bool{}
	for _, c := range w.lists.Cells(v.ID) {
		regged[c] = true
	}
	for _, loc := range []roadnet.VertexID{v.Loc(), 27, 45} {
		if !regged[w.grid.CellOf(loc)] {
			t.Fatalf("stop cell %d not registered (cells %v)", w.grid.CellOf(loc), w.lists.Cells(v.ID))
		}
	}

	// Drive until both events fire.
	var events []fleet.Event
	for i := 0; i < 200 && len(events) < 2; i++ {
		evs, err := w.fl.Step(100)
		if err != nil {
			t.Fatalf("step: %v", err)
		}
		events = append(events, evs...)
	}
	if len(events) != 2 {
		t.Fatalf("events = %+v, want pickup then dropoff", events)
	}
	if events[0].Kind != fleet.EventPickup || events[0].Request != 1 {
		t.Fatalf("first event %+v", events[0])
	}
	if events[1].Kind != fleet.EventDropoff || events[1].Request != 1 {
		t.Fatalf("second event %+v", events[1])
	}
	if events[1].Odo < events[0].Odo {
		t.Fatal("dropoff odometer before pickup")
	}
	if !v.Tree.Empty() {
		t.Fatal("vehicle should be empty after dropoff")
	}
	if e, reg := w.lists.IsEmptyVehicle(v.ID); !e || !reg {
		t.Fatal("vehicle should be back in the empty lists")
	}
}

// TestServiceConstraintHolds drives a two-request schedule to completion
// and asserts Definition 2's waiting and service constraints from the
// recorded events.
func TestServiceConstraintHolds(t *testing.T) {
	w := newWorld(t, 5, 4)
	v := w.fl.AddVehicle(0)
	r1 := w.request(t, 1, 18, 60, 1, 0.6, 1e6)
	c1 := v.Tree.Quote(r1)
	if _, err := w.fl.Commit(v.ID, r1, c1[0], 0); err != nil {
		t.Fatalf("commit r1: %v", err)
	}
	r2 := w.request(t, 2, 19, 61, 1, 0.6, 1e6)
	c2 := v.Tree.Quote(r2)
	if len(c2) == 0 {
		t.Skip("no shared schedule on this topology/seed")
	}
	if _, err := w.fl.Commit(v.ID, r2, c2[0], 0); err != nil {
		t.Fatalf("commit r2: %v", err)
	}

	pickOdo := map[kinetic.RequestID]float64{}
	dropOdo := map[kinetic.RequestID]float64{}
	for i := 0; i < 500 && len(dropOdo) < 2; i++ {
		evs, err := w.fl.Step(100)
		if err != nil {
			t.Fatalf("step: %v", err)
		}
		for _, e := range evs {
			if e.Kind == fleet.EventPickup {
				pickOdo[e.Request] = e.Odo
			} else {
				dropOdo[e.Request] = e.Odo
			}
		}
	}
	if len(dropOdo) != 2 {
		t.Fatalf("not all requests completed: picks=%v drops=%v", pickOdo, dropOdo)
	}
	for _, r := range []kinetic.Request{r1, r2} {
		inVehicle := dropOdo[r.ID] - pickOdo[r.ID]
		if inVehicle > r.ServiceLimit+1e-6 {
			t.Errorf("request %d in-vehicle distance %v exceeds limit %v", r.ID, inVehicle, r.ServiceLimit)
		}
		if inVehicle < r.SD-1e-6 {
			t.Errorf("request %d in-vehicle distance %v below direct distance %v", r.ID, inVehicle, r.SD)
		}
	}
}

func TestWaitingConstraintHolds(t *testing.T) {
	w := newWorld(t, 6, 4)
	v := w.fl.AddVehicle(0)
	req := w.request(t, 1, 36, 50, 1, 0.4, 200)
	cands := v.Tree.Quote(req)
	if _, err := w.fl.Commit(v.ID, req, cands[0], 0); err != nil {
		t.Fatalf("commit: %v", err)
	}
	planned := cands[0].PickupDist
	var pickup *fleet.Event
	for i := 0; i < 300 && pickup == nil; i++ {
		evs, err := w.fl.Step(100)
		if err != nil {
			t.Fatalf("step: %v", err)
		}
		for i := range evs {
			if evs[i].Kind == fleet.EventPickup {
				pickup = &evs[i]
			}
		}
	}
	if pickup == nil {
		t.Fatal("pickup never happened")
	}
	if pickup.Odo > planned+200+1e-6 {
		t.Fatalf("actual pickup odometer %v exceeds planned %v + wait budget 200", pickup.Odo, planned)
	}
}

func TestRemoveVehicle(t *testing.T) {
	w := newWorld(t, 7, 4)
	v := w.fl.AddVehicle(0)
	req := w.request(t, 1, 27, 45, 1, 0.5, 1e6)
	w.fl.Commit(v.ID, req, v.Tree.Quote(req)[0], 0)

	orphans, err := w.fl.RemoveVehicle(v.ID)
	if err != nil {
		t.Fatalf("remove: %v", err)
	}
	if len(orphans) != 1 || orphans[0].ID != 1 {
		t.Fatalf("orphans = %+v", orphans)
	}
	if w.fl.NumActive() != 0 {
		t.Fatal("active count not decremented")
	}
	if _, reg := w.lists.IsEmptyVehicle(v.ID); reg {
		t.Fatal("removed vehicle still registered")
	}
	if _, err := w.fl.RemoveVehicle(v.ID); err == nil {
		t.Fatal("double removal should fail")
	}
	if _, err := w.fl.Commit(v.ID, req, kinetic.Candidate{}, 0); err == nil {
		t.Fatal("commit to removed vehicle should fail")
	}
	// Stepping must skip it.
	if _, err := w.fl.Step(100); err != nil {
		t.Fatalf("step after removal: %v", err)
	}
}

func TestStepConsumesExactBudget(t *testing.T) {
	w := newWorld(t, 8, 4)
	v := w.fl.AddVehicle(0)
	req := w.request(t, 1, 27, 45, 1, 0.5, 1e6)
	w.fl.Commit(v.ID, req, v.Tree.Quote(req)[0], 0)

	// Odometer-at-root minus remainToRoot equals true distance driven;
	// it must advance by exactly the budget while en route.
	driven := func() float64 { return v.Odometer() - v.RemainToRoot() }
	before := driven()
	if _, err := w.fl.Step(75); err != nil {
		t.Fatalf("step: %v", err)
	}
	after := driven()
	if math.Abs((after-before)-75) > 1e-6 {
		t.Fatalf("driven %v metres, want 75", after-before)
	}
}

func TestManyVehiclesManyRequestsInvariant(t *testing.T) {
	w := newWorld(t, 9, 3)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 12; i++ {
		w.fl.AddVehicle(roadnet.VertexID(rng.Intn(w.g.NumVertices())))
	}
	nextID := kinetic.RequestID(1)
	picked := map[kinetic.RequestID]float64{}
	completed := 0
	for tick := 0; tick < 400; tick++ {
		// Occasionally add a request to a random vehicle that can take it.
		if rng.Intn(4) == 0 {
			s := roadnet.VertexID(rng.Intn(w.g.NumVertices()))
			d := roadnet.VertexID(rng.Intn(w.g.NumVertices()))
			if s != d {
				req := w.request(t, nextID, s, d, 1+rng.Intn(2), 0.5, 400)
				vid := fleet.VehicleID(rng.Intn(w.fl.NumVehicles()))
				veh, _ := w.fl.Vehicle(vid)
				if cands := veh.Tree.Quote(req); len(cands) > 0 {
					if _, err := w.fl.Commit(vid, req, cands[rng.Intn(len(cands))], 0); err != nil {
						t.Fatalf("tick %d: commit: %v", tick, err)
					}
					nextID++
				}
			}
		}
		evs, err := w.fl.Step(60)
		if err != nil {
			t.Fatalf("tick %d: %v", tick, err)
		}
		for _, e := range evs {
			switch e.Kind {
			case fleet.EventPickup:
				picked[e.Request] = e.Odo
			case fleet.EventDropoff:
				if _, ok := picked[e.Request]; !ok {
					t.Fatalf("dropoff before pickup for request %d", e.Request)
				}
				completed++
			}
		}
		// Capacity invariant across the fleet.
		w.fl.Vehicles(func(v *fleet.Vehicle) {
			if v.Tree.Onboard() > 3 {
				t.Fatalf("tick %d: vehicle %d over capacity: %d riders", tick, v.ID, v.Tree.Onboard())
			}
		})
	}
	if completed == 0 {
		t.Fatal("no request completed in 400 ticks")
	}
}

// TestStepAggregatesVehicleErrors pins the error-join semantics of the
// sharded step: a failing vehicle must not abort the remaining fleet
// mid-step (the old behavior returned on the first error, silently
// freezing every later vehicle for the tick), and every failure must
// surface through the joined error.
func TestStepAggregatesVehicleErrors(t *testing.T) {
	w := newWorld(t, 7, 2)
	for i := 0; i < 4; i++ {
		w.fl.AddVehicle(roadnet.VertexID(i))
	}

	bad1 := errors.New("fault one")
	bad2 := errors.New("fault two")
	w.fl.SetStepFault(func(id fleet.VehicleID) error {
		switch id {
		case 1:
			return bad1
		case 2:
			return bad2
		}
		return nil
	})

	odoBefore := make(map[fleet.VehicleID]float64)
	w.fl.Vehicles(func(v *fleet.Vehicle) { odoBefore[v.ID] = v.Odometer() })

	_, err := w.fl.Step(300)
	if err == nil {
		t.Fatal("Step with two faulted vehicles returned nil error")
	}
	if !errors.Is(err, bad1) || !errors.Is(err, bad2) {
		t.Fatalf("joined error %v does not contain both faults", err)
	}
	for _, want := range []string{"vehicle 1", "vehicle 2"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name %q", err, want)
		}
	}

	w.fl.Vehicles(func(v *fleet.Vehicle) {
		moved := v.Odometer() > odoBefore[v.ID]
		faulted := v.ID == 1 || v.ID == 2
		if faulted && moved {
			t.Fatalf("faulted vehicle %d advanced its odometer", v.ID)
		}
		if !faulted && !moved {
			t.Fatalf("healthy vehicle %d frozen by other vehicles' faults", v.ID)
		}
	})

	// With the fault cleared the whole fleet steps cleanly again.
	w.fl.SetStepFault(nil)
	if _, err := w.fl.Step(300); err != nil {
		t.Fatalf("Step after clearing fault: %v", err)
	}
}

// TestConcurrentStepsKeepTheirOwnErrors: Step does not serialise
// concurrent callers, so each call's per-vehicle result slots must be
// its own — every one of several overlapping steps reports exactly the
// two faulted vehicles, in id order.
func TestConcurrentStepsKeepTheirOwnErrors(t *testing.T) {
	w := newWorld(t, 7, 2)
	for i := 0; i < 40; i++ {
		w.fl.AddVehicle(roadnet.VertexID(i))
	}
	w.fl.SetStepFault(func(id fleet.VehicleID) error {
		if id == 3 || id == 17 {
			return errors.New("fault")
		}
		return nil
	})
	const want = "fleet: vehicle 3: fault\nfleet: vehicle 17: fault"
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := w.fl.Step(30); err == nil || err.Error() != want {
					t.Errorf("Step error %q, want %q", err, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
