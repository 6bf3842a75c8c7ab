package core_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ptrider/internal/core"
	"ptrider/internal/roadnet"
	"ptrider/internal/testnet"
)

// tickEngine builds one engine of the golden tick pair: same network,
// seed and configuration at every shard width, differing only in the
// GOMAXPROCS it was built at. Single requests quote on the caller's
// goroutine at every width, so any divergence is the tick's fault.
func tickEngine(t *testing.T, workers int) *core.Engine {
	t.Helper()
	g := testnet.Lattice(rand.New(rand.NewSource(77)), 12, 12, 100)
	var e *core.Engine
	var err error
	testnet.AtProcs(workers, func() {
		e, err = core.NewEngine(g, core.Config{
			Capacity: 4, Sigma: 0.4, MaxWaitSeconds: 300,
			Seed: 77,
		})
	})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	e.AddVehiclesUniform(30)
	return e
}

// TestGoldenSerialVsParallelTick is the tick twin of the matcher's
// golden equivalence suite: a serial engine (width 1) and a
// sharded engine (widths 2, 4, 8) replay the identical workload in
// lockstep, and every tick's merged event slice must be byte-identical
// — same events, same canonical (vehicle id, odometer) order — while
// vehicle positions are equal bit for bit and the lifecycle
// counters match exactly. This is the determinism contract that makes
// the shard width a pure performance knob.
func TestGoldenSerialVsParallelTick(t *testing.T) {
	for _, workers := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			serial := tickEngine(t, 1)
			parallel := tickEngine(t, workers)

			// One shared trip stream drives both engines identically.
			trips := rand.New(rand.NewSource(123))
			n := serial.Graph().NumVertices()
			for step := 0; step < 120; step++ {
				if step%4 == 0 {
					s := roadnet.VertexID(trips.Intn(n))
					d := roadnet.VertexID(trips.Intn(n))
					if s == d {
						d = roadnet.VertexID((int(d) + 1) % n)
					}
					riders := 1 + trips.Intn(2)
					ra, err := serial.Submit(s, d, riders)
					if err != nil {
						t.Fatalf("step %d: serial submit: %v", step, err)
					}
					rb, err := parallel.Submit(s, d, riders)
					if err != nil {
						t.Fatalf("step %d: parallel submit: %v", step, err)
					}
					if len(ra.Options) != len(rb.Options) {
						t.Fatalf("step %d: serial %d options, parallel %d",
							step, len(ra.Options), len(rb.Options))
					}
					if len(ra.Options) > 0 {
						if err := serial.Choose(ra.ID, 0); err != nil {
							t.Fatalf("step %d: serial choose: %v", step, err)
						}
						if err := parallel.Choose(rb.ID, 0); err != nil {
							t.Fatalf("step %d: parallel choose: %v", step, err)
						}
					}
				}

				ea, err := serial.Tick(2)
				if err != nil {
					t.Fatalf("step %d: serial tick: %v", step, err)
				}
				eb, err := parallel.Tick(2)
				if err != nil {
					t.Fatalf("step %d: parallel tick: %v", step, err)
				}
				if !reflect.DeepEqual(ea, eb) {
					t.Fatalf("step %d: event divergence\nserial:   %+v\nparallel: %+v", step, ea, eb)
				}
			}

			va, vb := serial.VehicleViews(0), parallel.VehicleViews(0)
			if len(va) != len(vb) {
				t.Fatalf("vehicle count: serial %d, parallel %d", len(va), len(vb))
			}
			for i := range va {
				if va[i].ID != vb[i].ID || va[i].Location != vb[i].Location {
					t.Fatalf("vehicle %d: serial at %d, parallel at %d",
						va[i].ID, va[i].Location, vb[i].Location)
				}
				if va[i].X != vb[i].X || va[i].Y != vb[i].Y {
					t.Fatalf("vehicle %d: serial (%v,%v), parallel (%v,%v)",
						va[i].ID, va[i].X, va[i].Y, vb[i].X, vb[i].Y)
				}
			}

			sa, sb := serial.Stats(), parallel.Stats()
			if sa.Clock != sb.Clock {
				t.Fatalf("clock: serial %v, parallel %v", sa.Clock, sb.Clock)
			}
			if sa.Requests != sb.Requests || sa.Assigned != sb.Assigned ||
				sa.Completed != sb.Completed || sa.SharedCompleted != sb.SharedCompleted {
				t.Fatalf("lifecycle divergence: serial %+v, parallel %+v", sa, sb)
			}
			if got := sb.Tick.Workers; got != workers {
				t.Fatalf("parallel Tick.Workers = %d, want %d", got, workers)
			}
		})
	}
}
