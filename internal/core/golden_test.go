package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"ptrider/internal/core"
	"ptrider/internal/gridindex"
	"ptrider/internal/roadnet"
	"ptrider/internal/testnet"
)

func sameOptions(t *testing.T, step int, a, b []core.Option) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("step %d: serial %d options, parallel %d", step, len(a), len(b))
	}
	for i := range a {
		if a[i].Vehicle != b[i].Vehicle {
			t.Fatalf("step %d option %d: vehicle %d vs %d", step, i, a[i].Vehicle, b[i].Vehicle)
		}
		if a[i].PickupDist != b[i].PickupDist || a[i].Price != b[i].Price {
			t.Fatalf("step %d option %d: (%v, %v) vs (%v, %v)",
				step, i, a[i].PickupDist, a[i].Price, b[i].PickupDist, b[i].Price)
		}
	}
}

// batchPair builds two engines over the same network, seed,
// configuration and worker count, then loads both with an identical
// prefix of committed trips and movement so non-empty vehicles exist.
func batchPair(t *testing.T, algo core.Algorithm, workers int) (a, b *core.Engine) {
	t.Helper()
	mk := func() *core.Engine {
		g := testnet.Lattice(rand.New(rand.NewSource(77)), 12, 12, 100)
		var e *core.Engine
		var err error
		testnet.AtProcs(workers, func() {
			e, err = core.NewEngine(g, core.Config{
				Capacity: 4, Sigma: 0.4, MaxWaitSeconds: 300,
				Algorithm: algo,
				Seed:      77,
			})
		})
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		e.AddVehiclesUniform(30)
		return e
	}
	a, b = mk(), mk()
	n := a.Graph().NumVertices()
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 50; i++ {
		s := roadnet.VertexID(rng.Intn(n))
		d := roadnet.VertexID(rng.Intn(n))
		if s == d {
			continue
		}
		ra, errA := a.Submit(s, d, 1)
		rb, errB := b.Submit(s, d, 1)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("load %d: %v vs %v", i, errA, errB)
		}
		if errA != nil {
			continue
		}
		if len(ra.Options) > 0 && rng.Intn(2) == 0 {
			ca := a.Choose(ra.ID, 0)
			cb := b.Choose(rb.ID, 0)
			if (ca == nil) != (cb == nil) {
				t.Fatalf("load %d: choose %v vs %v", i, ca, cb)
			}
		}
		if rng.Intn(3) == 0 {
			if _, err := a.Tick(3); err != nil {
				t.Fatalf("tick a: %v", err)
			}
			if _, err := b.Tick(3); err != nil {
				t.Fatalf("tick b: %v", err)
			}
		}
	}
	return a, b
}

// hotcellItems builds k quote-only batch items whose origins all fall
// in one (well-populated) grid cell — the §2.5 simultaneous-request
// workload.
func hotcellItems(e *core.Engine, seed int64, k int) []core.BatchItem {
	grid := e.Grid()
	best := gridindex.CellID(0)
	for c := 0; c < grid.NumCells(); c++ {
		if len(grid.Cell(gridindex.CellID(c)).Vertices) > len(grid.Cell(best).Vertices) {
			best = gridindex.CellID(c)
		}
	}
	verts := grid.Cell(best).Vertices
	rng := rand.New(rand.NewSource(seed))
	n := e.Graph().NumVertices()
	items := make([]core.BatchItem, 0, k)
	for len(items) < k {
		s := verts[rng.Intn(len(verts))]
		d := roadnet.VertexID(rng.Intn(n))
		if s == d {
			continue
		}
		items = append(items, core.BatchItem{
			S: s, D: d, Riders: 1 + rng.Intn(3),
			Constraints: core.DefaultConstraints(),
		})
	}
	return items
}

// hotcellSpecs is hotcellItems as Service specs, for batches with
// choosers.
func hotcellSpecs(e *core.Engine, seed int64, k int) []core.SubmitSpec {
	items := hotcellItems(e, seed, k)
	specs := make([]core.SubmitSpec, len(items))
	for i, it := range items {
		specs[i] = core.SubmitSpec{S: it.S, D: it.D, Riders: it.Riders, Constraints: it.Constraints}
	}
	return specs
}

// TestGoldenBatchVsPerRequest pins the batch path's
// no-behavioural-drift guarantee: a quote-only SubmitBatch whose items
// share an origin cell (one wave, quoted in parallel) returns, per
// item, the option set per-request Submit computes
// over the same world — same vehicles, same planned schedules, same
// option count and order, coordinates equal bit for bit. Covered for every algorithm at wave
// widths 1 and 4 (the GOMAXPROCS the engines were built at; a match
// itself has one probe path).
func TestGoldenBatchVsPerRequest(t *testing.T) {
	for _, algo := range []core.Algorithm{core.AlgoNaive, core.AlgoSingleSide, core.AlgoDualSide} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%v/workers=%d", algo, workers), func(t *testing.T) {
				a, b := batchPair(t, algo, workers)
				items := hotcellItems(a, 41, 10)
				recs, err := a.SubmitBatch(items)
				if err != nil {
					t.Fatalf("batch: %v", err)
				}
				for i, it := range items {
					rb, err := b.Submit(it.S, it.D, it.Riders)
					if err != nil {
						t.Fatalf("item %d: per-request submit: %v", i, err)
					}
					if recs[i] == nil {
						t.Fatalf("item %d: nil batch record", i)
					}
					sameOptions(t, i, rb.Options, recs[i].Options)
					if err := b.Decline(rb.ID); err != nil {
						t.Fatalf("item %d decline: %v", i, err)
					}
				}

				// Scattered origins: the wave's items walk different rings.
				rng := rand.New(rand.NewSource(43))
				n := a.Graph().NumVertices()
				var mixed []core.BatchItem
				for len(mixed) < 8 {
					s := roadnet.VertexID(rng.Intn(n))
					d := roadnet.VertexID(rng.Intn(n))
					if s == d {
						continue
					}
					mixed = append(mixed, core.BatchItem{S: s, D: d, Riders: 1, Constraints: core.DefaultConstraints()})
				}
				recs, err = a.SubmitBatch(mixed)
				if err != nil {
					t.Fatalf("mixed batch: %v", err)
				}
				for i, it := range mixed {
					rb, err := b.Submit(it.S, it.D, it.Riders)
					if err != nil {
						t.Fatalf("mixed %d: %v", i, err)
					}
					sameOptions(t, 100+i, rb.Options, recs[i].Options)
					_ = b.Decline(rb.ID)
				}
			})
		}
	}
}

// TestGoldenBatchGreedyCommits pins RunBatch's greedy semantics: a
// batch of choosers through SubmitRequestBatch must behave exactly like the
// sequential submit-then-choose loop — every commitment visible to all
// later quotes, assignments landing on the same vehicles at the same
// prices.
func TestGoldenBatchGreedyCommits(t *testing.T) {
	for _, algo := range []core.Algorithm{core.AlgoSingleSide, core.AlgoDualSide} {
		t.Run(algo.String(), func(t *testing.T) {
			a, b := batchPair(t, algo, 4)
			items := hotcellSpecs(a, 47, 8)
			for i := range items {
				items[i].Choose = func(opts []core.Option) int {
					if len(opts) == 0 {
						return -1
					}
					return 0
				}
			}
			recs, err := a.SubmitRequestBatch(items)
			if err != nil {
				t.Fatalf("batch: %v", err)
			}
			for i, it := range items {
				rb, err := b.Submit(it.S, it.D, it.Riders)
				if err != nil {
					t.Fatalf("item %d: %v", i, err)
				}
				sameOptions(t, i, rb.Options, recs[i].Options)
				if len(rb.Options) > 0 {
					if err := b.Choose(rb.ID, 0); err != nil {
						t.Fatalf("item %d choose: %v", i, err)
					}
				} else {
					_ = b.Decline(rb.ID)
				}
				fresh, _ := b.GetRequest(rb.ID)
				if recs[i].Status != fresh.Status {
					t.Fatalf("item %d: batch status %v, sequential %v", i, recs[i].Status, fresh.Status)
				}
				if recs[i].Status == core.StatusAssigned {
					if recs[i].Vehicle != fresh.Vehicle || recs[i].Price != fresh.Price {
						t.Fatalf("item %d: batch assigned (%d, %v), sequential (%d, %v)",
							i, recs[i].Vehicle, recs[i].Price, fresh.Vehicle, fresh.Price)
					}
				}
			}
			sa, sb := a.Stats(), b.Stats()
			if sa.Assigned != sb.Assigned || sa.Declined != sb.Declined {
				t.Fatalf("lifecycles diverged: batch %+v sequential %+v", sa, sb)
			}
		})
	}
}
