package core_test

import (
	"math/rand"
	"testing"

	"ptrider/internal/core"
	"ptrider/internal/geo"
	"ptrider/internal/gridindex"
	"ptrider/internal/roadnet"
)

// TestPerRequestConstraints verifies the extension the demo paper notes
// but simplifies away (§4.2): riders supplying their own waiting time
// and service constraint.
func TestPerRequestConstraints(t *testing.T) {
	e := latticeEngine(t, 20, 8, 8, core.Config{Capacity: 4, Sigma: 0.4, MaxWaitSeconds: 300})
	e.AddVehicleAt(0)

	// A strict rider: zero detour allowed.
	strict, err := e.SubmitRequest(core.SubmitSpec{S: 9, D: 54, Riders: 1, Constraints: core.Constraints{Sigma: 0}})
	if err != nil {
		t.Fatalf("submit strict: %v", err)
	}
	if strict.Sigma != 0 {
		t.Fatalf("strict sigma recorded as %v", strict.Sigma)
	}
	if len(strict.Options) == 0 {
		t.Fatal("an empty vehicle can always serve with zero detour")
	}
	if err := e.Choose(strict.ID, 0); err != nil {
		t.Fatalf("choose strict: %v", err)
	}

	// A second rider along the way: under the strict first rider no
	// shared schedule may detour them, so options can only be
	// sequential (after the first dropoff) or absent; any returned
	// schedule must keep the first rider's in-vehicle distance direct.
	second, err := e.SubmitRequest(core.SubmitSpec{S: 18, D: 63, Riders: 1, Constraints: core.Constraints{Sigma: core.DefaultSigma}})
	if err != nil {
		t.Fatalf("submit second: %v", err)
	}
	if second.Sigma != 0.4 {
		t.Fatalf("second sigma = %v, want global 0.4", second.Sigma)
	}

	// Drive the strict rider to completion and assert zero detour.
	var rec *core.ServiceRecord
	for i := 0; i < 3000; i++ {
		if _, err := e.Tick(1); err != nil {
			t.Fatalf("tick: %v", err)
		}
		rec, _ = e.GetRequest(strict.ID)
		if rec.Status == core.StatusCompleted {
			break
		}
	}
	if rec == nil || rec.Status != core.StatusCompleted {
		t.Fatal("strict rider never completed")
	}
	if got := rec.DropoffOdo - rec.PickupOdo; got != rec.SD {
		t.Fatalf("strict rider detoured: in-vehicle %v != direct %v", got, rec.SD)
	}
}

// TestPerRequestWaitOverride: a rider with a tiny waiting budget pins
// the vehicle to the quoted pickup; subsequent insertions must not
// delay it beyond that budget.
func TestPerRequestWaitOverride(t *testing.T) {
	e := latticeEngine(t, 21, 8, 8, core.Config{Capacity: 4, Sigma: 0.8, MaxWaitSeconds: 600})
	e.AddVehicleAt(0)
	first, err := e.SubmitRequest(core.SubmitSpec{S: 9, D: 54, Riders: 1, Constraints: core.Constraints{WaitSeconds: 1}})
	if err != nil || len(first.Options) == 0 {
		t.Fatalf("submit: %v (%d options)", err, len(first.Options))
	}
	if first.WaitSeconds != 1 {
		t.Fatalf("recorded wait %v", first.WaitSeconds)
	}
	if err := e.Choose(first.ID, 0); err != nil {
		t.Fatalf("choose: %v", err)
	}
	planned := first.Options[0].PickupDist

	// Complete the trip; actual pickup must be within 1 s of plan.
	var rec *core.ServiceRecord
	for i := 0; i < 3000; i++ {
		if _, err := e.Tick(1); err != nil {
			t.Fatalf("tick: %v", err)
		}
		rec, _ = e.GetRequest(first.ID)
		if rec.Status == core.StatusCompleted {
			break
		}
	}
	if rec.Status != core.StatusCompleted {
		t.Fatal("never completed")
	}
	v, _ := e.GetRequest(first.ID)
	maxOdo := planned + 1*e.Speed()
	if v.PickupOdo > maxOdo {
		t.Fatalf("pickup odometer %v exceeds plan %v + 1s budget", v.PickupOdo, maxOdo)
	}
}

func TestSubmitBatchGreedy(t *testing.T) {
	e := latticeEngine(t, 22, 8, 8, core.Config{Capacity: 2, Sigma: 0.4, MaxWaitSeconds: 300})
	e.AddVehicleAt(0) // a single two-seat taxi

	takeFirst := func(opts []core.Option) int {
		if len(opts) == 0 {
			return -1
		}
		return 0
	}
	// Two simultaneous 2-rider groups: greedy gives the taxi to the
	// first; the second finds the only vehicle full.
	recs, err := e.SubmitBatch([]core.BatchItem{
		{S: 9, D: 54, Riders: 2, Constraints: core.DefaultConstraints(), Choose: takeFirst},
		{S: 10, D: 55, Riders: 2, Constraints: core.DefaultConstraints(), Choose: takeFirst},
	})
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if len(recs) != 2 || recs[0] == nil || recs[1] == nil {
		t.Fatalf("records = %+v", recs)
	}
	if recs[0].Status != core.StatusAssigned {
		t.Fatalf("first item status = %v", recs[0].Status)
	}
	// The second group may still be quoted a *sequential* schedule
	// (after the first group's dropoff) — greedy means it sees the
	// post-commit fleet, not that it is starved.
	for _, o := range recs[1].Options {
		if o.PickupDist <= recs[0].Options[0].PickupDist {
			t.Fatalf("second batch item was quoted pre-commit state: %+v", o)
		}
	}
}

func TestSubmitBatchQuoteOnly(t *testing.T) {
	e := latticeEngine(t, 23, 6, 6, core.Config{Capacity: 4})
	e.AddVehiclesUniform(3)
	recs, err := e.SubmitBatch([]core.BatchItem{
		{S: 1, D: 20, Riders: 1, Constraints: core.DefaultConstraints()},
		{S: 2, D: 21, Riders: 1, Constraints: core.DefaultConstraints()},
	})
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	for i, r := range recs {
		if r.Status != core.StatusDeclined {
			t.Fatalf("item %d status = %v, want declined (nil chooser)", i, r.Status)
		}
	}
	// Errors are reported but do not abort the batch.
	recs, err = e.SubmitBatch([]core.BatchItem{
		{S: 1, D: 1, Riders: 1, Constraints: core.DefaultConstraints()}, // invalid
		{S: 2, D: 21, Riders: 1, Constraints: core.DefaultConstraints()},
	})
	if err == nil {
		t.Fatal("invalid item error swallowed")
	}
	if recs[0] != nil || recs[1] == nil {
		t.Fatalf("records = %+v", recs)
	}
}

// TestNearestVertexMatchesLinearScan pins the engine's coordinate snap
// to the whole-graph linear scan — what a remote ShardClient runs — so
// the same coordinates resolve to the same vertex on every backend:
// random points inside and outside the bounding box, points exactly on
// cell borders, vertices themselves and midpoints between vertices
// (distance ties), over a lattice so small that most of the 16×16
// grid's cells hold no vertex and one of 64×64 vertices, 16 a cell.
func TestNearestVertexMatchesLinearScan(t *testing.T) {
	for _, dims := range [][2]int{{9, 7}, {64, 64}} {
		e := latticeEngine(t, 41, dims[0], dims[1], core.Config{Capacity: 4})
		g, grid := e.Graph(), e.Grid()
		b := g.Bounds()
		rng := rand.New(rand.NewSource(42))
		randIn := func(lo, hi float64) float64 { return lo + rng.Float64()*(hi-lo) }
		check := func(kind string, p geo.Point) {
			t.Helper()
			if got, want := e.NearestVertex(p), g.NearestVertex(p); got != want {
				t.Fatalf("lattice %dx%d, %s point %v: engine snaps to %d (%.3f m), linear scan to %d (%.3f m)",
					dims[0], dims[1], kind, p, got, g.Point(got).Dist(p), want, g.Point(want).Dist(p))
			}
		}
		for i := 0; i < 3000; i++ {
			// A third of these land outside the bounding box.
			check("random", geo.Point{
				X: randIn(b.Min.X-0.25*b.Width(), b.Max.X+0.25*b.Width()),
				Y: randIn(b.Min.Y-0.25*b.Height(), b.Max.Y+0.25*b.Height()),
			})
		}
		for i := 0; i < 1000; i++ {
			r := grid.Cell(gridindex.CellID(rng.Intn(grid.NumCells()))).Rect
			check("border", geo.Point{X: r.Min.X, Y: randIn(r.Min.Y, r.Max.Y)})
			check("border", geo.Point{X: randIn(r.Min.X, r.Max.X), Y: r.Max.Y})
			check("corner", r.Min)
		}
		n := g.NumVertices()
		for v := 0; v < n; v++ {
			p := g.Point(roadnet.VertexID(v))
			check("vertex", p)
			q := g.Point(roadnet.VertexID(rng.Intn(n)))
			check("midpoint", geo.Point{X: p.X + (q.X-p.X)*0.5, Y: p.Y + (q.Y-p.Y)*0.5})
		}
	}
}
