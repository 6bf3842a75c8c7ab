package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"ptrider/internal/core"
	"ptrider/internal/fleet"
	"ptrider/internal/kinetic"
	"ptrider/internal/roadnet"
	"ptrider/internal/testnet"
)

func latticeEngine(t *testing.T, seed int64, w, h int, cfg core.Config) *core.Engine {
	t.Helper()
	g := testnet.Lattice(rand.New(rand.NewSource(seed)), w, h, 100)
	cfg.Seed = seed
	e, err := core.NewEngine(g, cfg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	return e
}

// TestPaperExampleEndToEnd reproduces §2.5's worked example through the
// whole stack: two vehicles c1 (serving R1 = ⟨v2,v16,2,5,0.2⟩ from v1)
// and c2 (empty at v13); request R2 = ⟨v12,v17,2,5,0.2⟩ must receive
// exactly the results ⟨c1, 14, 4⟩ and ⟨c2, 8, 8.8⟩, under all three
// matching algorithms.
func TestPaperExampleEndToEnd(t *testing.T) {
	for _, algo := range []core.Algorithm{core.AlgoNaive, core.AlgoSingleSide, core.AlgoDualSide} {
		t.Run(algo.String(), func(t *testing.T) {
			g := testnet.PaperNetwork()
			// Weights in the figure are abstract units; speed 3.6 km/h
			// = 1 unit/s makes time equal distance, and the global wait
			// w = 5 units and σ = 0.2 match the example.
			e, err := core.NewEngine(g, core.Config{
				Capacity: 4, SpeedKmh: 3.6,
				MaxWaitSeconds: 5, Sigma: 0.2,
				MaxPickupSeconds: 1e6,
				Algorithm:        algo,
			})
			if err != nil {
				t.Fatalf("NewEngine: %v", err)
			}
			v := func(k int) roadnet.VertexID { return roadnet.VertexID(k - 1) }

			c1 := e.AddVehicleAt(v(1))
			c2 := e.AddVehicleAt(v(13))

			// Assign R1 to c1 (its quoted plan is ⟨v2, v16⟩).
			r1, err := e.Submit(v(2), v(16), 2)
			if err != nil {
				t.Fatalf("submit R1: %v", err)
			}
			idx := -1
			for i, o := range r1.Options {
				if o.Vehicle == c1 {
					idx = i
				}
			}
			if idx < 0 {
				t.Fatalf("R1 options %+v do not include c1", r1.Options)
			}
			if err := e.Choose(r1.ID, idx); err != nil {
				t.Fatalf("choose R1: %v", err)
			}

			// R2 must see exactly ⟨c1,14,4⟩ and ⟨c2,8,8.8⟩.
			r2, err := e.Submit(v(12), v(17), 2)
			if err != nil {
				t.Fatalf("submit R2: %v", err)
			}
			if len(r2.Options) != 2 {
				t.Fatalf("R2 options = %+v, want 2", r2.Options)
			}
			byVehicle := map[fleet.VehicleID]core.Option{}
			for _, o := range r2.Options {
				byVehicle[o.Vehicle] = o
			}
			o1, ok1 := byVehicle[c1]
			o2, ok2 := byVehicle[c2]
			if !ok1 || !ok2 {
				t.Fatalf("R2 options missing a vehicle: %+v", r2.Options)
			}
			if o1.PickupDist != 14 || math.Abs(o1.Price-4) > 1e-9 {
				t.Errorf("c1 option = (%v, %v), want (14, 4)", o1.PickupDist, o1.Price)
			}
			if o2.PickupDist != 8 || math.Abs(o2.Price-8.8) > 1e-9 {
				t.Errorf("c2 option = (%v, %v), want (8, 8.8)", o2.PickupDist, o2.Price)
			}
		})
	}
}

// optionCoords canonicalises an option list for cross-matcher
// comparison: the exact (pickup distance, price) multiset. Bit-exact
// comparison is intentional — the matchers are required to compute
// identical floats (see emptyVehicleOption), because any drift can flip
// dominance at ties.
func optionCoords(opts []core.Option) []string {
	out := make([]string, len(opts))
	for i, o := range opts {
		out[i] = fmt.Sprintf("%x/%x", o.PickupDist, o.Price)
	}
	sort.Strings(out)
	return out
}

// TestMatcherEquivalence is the central correctness property of the
// reproduction: on randomised fleets, requests and schedules, all three
// matching algorithms return identical option skylines. The 10×10
// lattices leave most of the 16×16 grid's cells empty; seed 4 runs on
// a 32×32 lattice, four vertices a cell, so the ring walks also cross
// cells that hold several vertices. Seeds 5–7 load 150 taxis on a
// 40×40 lattice with 300 requests, so busy taxis' stops lie rings away
// from where they stand: a matcher that lists a busy taxi in its own
// cell only misses some of them.
func TestMatcherEquivalence(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			side, taxis, loads, probes := 10, 30, 25, 30
			switch {
			case seed == 4:
				side = 32
			case seed >= 5:
				side, taxis, loads, probes = 40, 150, 300, 200
			}
			e := latticeEngine(t, seed, side, side, core.Config{
				Capacity: 3, MaxWaitSeconds: 400, Sigma: 0.6,
				MaxPickupSeconds: 250, // cutoff active: part of the contract
			})
			rng := rand.New(rand.NewSource(seed + 1000))
			n := e.Graph().NumVertices()
			e.AddVehiclesUniform(taxis)

			// Load the fleet with random accepted requests and motion.
			for i := 0; i < loads; i++ {
				s := roadnet.VertexID(rng.Intn(n))
				d := roadnet.VertexID(rng.Intn(n))
				if s == d {
					continue
				}
				rec, err := e.Submit(s, d, 1+rng.Intn(2))
				if err != nil {
					t.Fatalf("submit: %v", err)
				}
				if len(rec.Options) > 0 && rng.Intn(3) > 0 {
					if err := e.Choose(rec.ID, rng.Intn(len(rec.Options))); err != nil {
						t.Fatalf("choose: %v", err)
					}
				} else if len(rec.Options) > 0 {
					e.Decline(rec.ID)
				}
				if _, err := e.Tick(5 + rng.Float64()*20); err != nil {
					t.Fatalf("tick: %v", err)
				}
			}

			// Now compare the three algorithms on fresh probes. Rider
			// counts deliberately exceed the capacity (3) sometimes:
			// oversized groups must get an empty skyline from every
			// matcher.
			for probe := 0; probe < probes; probe++ {
				s := roadnet.VertexID(rng.Intn(n))
				d := roadnet.VertexID(rng.Intn(n))
				if s == d {
					continue
				}
				riders := 1 + rng.Intn(4)
				naive, nStats, err := e.MatchOnce(core.AlgoNaive, s, d, riders)
				if err != nil {
					t.Fatalf("naive: %v", err)
				}
				single, sStats, err := e.MatchOnce(core.AlgoSingleSide, s, d, riders)
				if err != nil {
					t.Fatalf("single: %v", err)
				}
				dual, dStats, err := e.MatchOnce(core.AlgoDualSide, s, d, riders)
				if err != nil {
					t.Fatalf("dual: %v", err)
				}
				nc, sc, dc := optionCoords(naive), optionCoords(single), optionCoords(dual)
				if !equalStrings(nc, sc) {
					t.Fatalf("probe %d (%d→%d): naive %v != single %v", probe, s, d, nc, sc)
				}
				if !equalStrings(nc, dc) {
					t.Fatalf("probe %d (%d→%d): naive %v != dual %v", probe, s, d, nc, dc)
				}
				if sStats.Verified > nStats.Verified {
					t.Errorf("probe %d: single verified %d > naive %d", probe, sStats.Verified, nStats.Verified)
				}
				if dStats.Verified > nStats.Verified {
					t.Errorf("probe %d: dual verified %d > naive %d", probe, dStats.Verified, nStats.Verified)
				}
			}
		})
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSubmitValidation(t *testing.T) {
	e := latticeEngine(t, 1, 5, 5, core.Config{Capacity: 2})
	e.AddVehiclesUniform(3)
	if _, err := e.Submit(0, 0, 1); err == nil {
		t.Error("s == d accepted")
	}
	if _, err := e.Submit(-1, 3, 1); err == nil {
		t.Error("out-of-range start accepted")
	}
	if _, err := e.Submit(0, 3, 0); err == nil {
		t.Error("0 riders accepted")
	}
	// Above-capacity groups are valid requests with an empty skyline.
	rec, err := e.Submit(0, 3, 5)
	if err != nil {
		t.Fatalf("above-capacity group rejected as invalid: %v", err)
	}
	if len(rec.Options) != 0 {
		t.Errorf("above-capacity group got options: %+v", rec.Options)
	}
}

func TestChooseLifecycle(t *testing.T) {
	e := latticeEngine(t, 2, 8, 8, core.Config{Capacity: 4})
	e.AddVehiclesUniform(5)
	rec, err := e.Submit(3, 40, 2)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if len(rec.Options) == 0 {
		t.Fatal("no options with idle vehicles nearby")
	}
	if rec.Status != core.StatusQuoted {
		t.Fatalf("status = %v", rec.Status)
	}
	if err := e.Choose(rec.ID, len(rec.Options)); err == nil {
		t.Error("out-of-range option index accepted")
	}
	if err := e.Choose(rec.ID, 0); err != nil {
		t.Fatalf("choose: %v", err)
	}
	if err := e.Choose(rec.ID, 0); err == nil {
		t.Error("double choose accepted")
	}
	if err := e.Decline(rec.ID); err == nil {
		t.Error("decline after choose accepted")
	}

	// Run the day: the request must complete with constraints honoured.
	var completed bool
	for i := 0; i < 2000 && !completed; i++ {
		if _, err := e.Tick(1); err != nil {
			t.Fatalf("tick: %v", err)
		}
		r, _ := e.GetRequest(rec.ID)
		completed = r.Status == core.StatusCompleted
	}
	if !completed {
		t.Fatal("request never completed")
	}
	r, _ := e.GetRequest(rec.ID)
	if r.DropoffOdo <= r.PickupOdo {
		t.Fatal("dropoff odometer not after pickup")
	}
	inVehicle := r.DropoffOdo - r.PickupOdo
	if inVehicle > (1+e.Config().Sigma)*r.SD {
		t.Fatalf("service constraint violated: %v > %v", inVehicle, (1+e.Config().Sigma)*r.SD)
	}
	st := e.Stats()
	if st.Completed != 1 || st.Assigned != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestOptionsAreNonDominatedAndSorted(t *testing.T) {
	e := latticeEngine(t, 4, 10, 10, core.Config{Capacity: 3, MaxPickupSeconds: 1e5})
	e.AddVehiclesUniform(40)
	rng := rand.New(rand.NewSource(5))
	// Occupy some vehicles to diversify prices.
	for i := 0; i < 10; i++ {
		s := roadnet.VertexID(rng.Intn(100))
		d := roadnet.VertexID(rng.Intn(100))
		if s == d {
			continue
		}
		if rec, err := e.Submit(s, d, 1); err == nil && len(rec.Options) > 0 {
			e.Choose(rec.ID, 0)
		}
	}
	rec, err := e.Submit(11, 88, 1)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	opts := rec.Options
	for i := 1; i < len(opts); i++ {
		if opts[i].PickupDist < opts[i-1].PickupDist {
			t.Fatal("options not sorted by pickup distance")
		}
	}
	for i := range opts {
		for j := range opts {
			if i == j {
				continue
			}
			di := opts[i]
			dj := opts[j]
			if (di.PickupDist <= dj.PickupDist && di.Price < dj.Price) ||
				(di.PickupDist < dj.PickupDist && di.Price <= dj.Price) {
				t.Fatalf("option %d dominates option %d: %+v vs %+v", i, j, di, dj)
			}
		}
	}
}

func TestMaxPickupCutoff(t *testing.T) {
	// A tight cutoff must bound every returned option's pickup time.
	e := latticeEngine(t, 6, 10, 10, core.Config{Capacity: 2, MaxPickupSeconds: 20, SpeedKmh: 48})
	e.AddVehiclesUniform(20)
	cut := 20 * e.Speed()
	for probe := 0; probe < 20; probe++ {
		s := e.RandomVertex()
		d := e.RandomVertex()
		if s == d {
			continue
		}
		rec, err := e.Submit(s, d, 1)
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		for _, o := range rec.Options {
			if o.PickupDist > cut+1e-9 {
				t.Fatalf("option pickup %v exceeds cutoff %v", o.PickupDist, cut)
			}
		}
	}
}

func TestSharingRateStatistics(t *testing.T) {
	e := latticeEngine(t, 7, 8, 8, core.Config{Capacity: 4, Sigma: 1.0, MaxWaitSeconds: 2000})
	// One vehicle, two overlapping requests along the same corridor.
	e.AddVehicleAt(0)
	r1, err := e.Submit(9, 54, 1)
	if err != nil || len(r1.Options) == 0 {
		t.Fatalf("r1: %v, %d options", err, len(r1.Options))
	}
	if err := e.Choose(r1.ID, 0); err != nil {
		t.Fatalf("choose r1: %v", err)
	}
	r2, err := e.Submit(18, 63, 1)
	if err != nil {
		t.Fatalf("r2: %v", err)
	}
	if len(r2.Options) == 0 {
		t.Skip("no shared option on this seed")
	}
	if err := e.Choose(r2.ID, 0); err != nil {
		t.Fatalf("choose r2: %v", err)
	}
	for i := 0; i < 3000; i++ {
		if _, err := e.Tick(1); err != nil {
			t.Fatalf("tick: %v", err)
		}
		if e.Stats().Completed == 2 {
			break
		}
	}
	st := e.Stats()
	if st.Completed != 2 {
		t.Fatalf("completed = %d, want 2", st.Completed)
	}
	a, _ := e.GetRequest(r1.ID)
	b, _ := e.GetRequest(r2.ID)
	if a.Shared != b.Shared {
		t.Fatalf("sharing must be mutual: %v vs %v", a.Shared, b.Shared)
	}
	if a.Shared && st.SharingRate != 1 {
		t.Fatalf("sharing rate = %v, want 1", st.SharingRate)
	}
}

func TestVehicleFailureInjection(t *testing.T) {
	e := latticeEngine(t, 8, 8, 8, core.Config{Capacity: 4})
	ids := e.AddVehiclesUniform(2)
	rec, err := e.Submit(3, 50, 1)
	if err != nil || len(rec.Options) == 0 {
		t.Fatalf("submit: %v", err)
	}
	if err := e.Choose(rec.ID, 0); err != nil {
		t.Fatalf("choose: %v", err)
	}
	victim := rec.Options[0].Vehicle
	orphans, err := e.RemoveVehicle(victim)
	if err != nil {
		t.Fatalf("remove: %v", err)
	}
	if len(orphans) != 1 || orphans[0] != rec.ID {
		t.Fatalf("orphans = %v", orphans)
	}
	r, _ := e.GetRequest(rec.ID)
	if r.Status != core.StatusDeclined {
		t.Fatalf("orphaned request status = %v", r.Status)
	}
	// The other vehicle keeps working.
	other := ids[0]
	if other == victim {
		other = ids[1]
	}
	if _, err := e.Tick(10); err != nil {
		t.Fatalf("tick after failure: %v", err)
	}
	if _, _, err := e.VehicleSchedules(other); err != nil {
		t.Fatalf("surviving vehicle: %v", err)
	}
}

func TestSetAlgorithm(t *testing.T) {
	e := latticeEngine(t, 9, 5, 5, core.Config{Capacity: 2})
	if e.Algorithm() != core.AlgoNaive {
		t.Fatalf("default algorithm = %v", e.Algorithm())
	}
	if err := e.SetAlgorithm(core.AlgoDualSide); err != nil {
		t.Fatalf("set: %v", err)
	}
	if e.Algorithm() != core.AlgoDualSide {
		t.Fatal("algorithm did not switch")
	}
	if _, err := core.ParseAlgorithm("dual"); err != nil {
		t.Error("ParseAlgorithm(dual) failed")
	}
	if _, err := core.ParseAlgorithm("bogus"); err == nil {
		t.Error("ParseAlgorithm accepted bogus input")
	}
}

// TestNoVehiclesReturnsEmptyOptions: a request with no fleet gets an
// empty (but valid) skyline.
func TestNoVehiclesReturnsEmptyOptions(t *testing.T) {
	e := latticeEngine(t, 10, 5, 5, core.Config{Capacity: 2})
	rec, err := e.Submit(0, 7, 1)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if len(rec.Options) != 0 {
		t.Fatalf("options = %+v, want none", rec.Options)
	}
}

// TestKineticRequestConsistency guards the invariant that Choose
// rebuilds the same kinetic request Submit used for quoting.
func TestKineticRequestConsistency(t *testing.T) {
	e := latticeEngine(t, 11, 6, 6, core.Config{Capacity: 4, Sigma: 0.3, MaxWaitSeconds: 120})
	e.AddVehicleAt(0)
	rec, err := e.Submit(7, 28, 2)
	if err != nil || len(rec.Options) == 0 {
		t.Fatalf("submit: %v (%d options)", err, len(rec.Options))
	}
	if err := e.Choose(rec.ID, 0); err != nil {
		t.Fatalf("choose must succeed against an unmoved vehicle: %v", err)
	}
	_, branches, err := e.VehicleSchedules(rec.Options[0].Vehicle)
	if err != nil || len(branches) == 0 {
		t.Fatalf("vehicle has no schedule after choose: %v", err)
	}
	found := false
	for _, b := range branches {
		for _, p := range b {
			if p.Req == rec.ID && p.Kind == kinetic.Pickup {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("vehicle schedules do not contain the committed pickup")
	}
}
