package fleet_test

import (
	"runtime"
	"testing"
	"time"

	"ptrider/internal/fleet"
	"ptrider/internal/roadnet"
)

// TestRestoreResumesRoaming: a fleet restored from a snapshot taken
// after k steps and the fleet it was taken from take the same N further
// steps identically — positions, odometers and stream positions.
func TestRestoreResumesRoaming(t *testing.T) {
	const seed, k, n = 11, 7, 40
	live := newWorld(t, seed, 4)
	for i := 0; i < 12; i++ {
		live.fl.AddVehicle(roadnet.VertexID(i * 5))
	}
	busy := live.fl.AddVehicle(3)
	req := live.request(t, 1, 20, 60, 1, 0.5, 2000)
	if _, err := live.fl.Commit(busy.ID, req, busy.Tree.Quote(req)[0], 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		if _, err := live.fl.Step(130); err != nil {
			t.Fatal(err)
		}
	}
	restored := newWorld(t, seed, 4)
	if err := restored.fl.RestoreState(live.fl.SnapshotState()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for _, w := range []*world{live, restored} {
			if _, err := w.fl.Step(130); err != nil {
				t.Fatal(err)
			}
		}
		a, b := live.fl.SnapshotState(), restored.fl.SnapshotState()
		for j := range a {
			if a[j].Loc != b[j].Loc || a[j].Odo != b[j].Odo || a[j].RemainToRoot != b[j].RemainToRoot || a[j].RandDraws != b[j].RandDraws {
				t.Fatalf("step %d vehicle %d: live %+v, restored %+v", k+i, j, a[j], b[j])
			}
		}
	}
	if st := live.fl.SnapshotState()[0]; st.RandDraws == 0 {
		t.Fatal("vehicle 0 never drew from its roaming stream")
	}
}

// TestRestoreIsConstantTime: a stream position is restored by setting
// it, not by replaying draws, so a vehicle that took 2^50 raw draws
// restores at once and keeps drawing from there.
func TestRestoreIsConstantTime(t *testing.T) {
	w := newWorld(t, 5, 4)
	start := time.Now()
	if err := w.fl.RestoreState([]fleet.VehicleState{{ID: 0, Loc: 9, RandDraws: 1 << 50}}); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("restore took %v", d)
	}
	if _, err := w.fl.Step(500); err != nil {
		t.Fatal(err)
	}
	if got := w.fl.SnapshotState()[0].RandDraws; got <= 1<<50 {
		t.Fatalf("RandDraws = %d after a roaming step, want > 2^50", got)
	}
}

// TestVehicleFootprint pins the heap cost of one empty vehicle: the
// HeapAlloc growth per AddVehicle over 1,000 vehicles, live after a GC.
// A math/rand source per vehicle cost ~5.4 KB alone, and a kinetic tree
// that kept its own enumeration workspace 965 B in all; without it a
// vehicle read 495 B, with vehicle lists kept in id-indexed slices
// instead of maps 385 B, and without the leg-cell cache and the
// registration's buffers it reads 305 B (312 under -race).
func TestVehicleFootprint(t *testing.T) {
	const nv, ceiling = 1000, 338
	w := newWorld(t, 3, 4)
	nvert := w.g.NumVertices()
	var before, after runtime.MemStats
	// Two collections: an earlier test's fleet stays reachable through
	// its sync.Pools until the second, and would be freed inside the
	// measurement.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < nv; i++ {
		w.fl.AddVehicle(roadnet.VertexID(i % nvert))
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(w.fl)
	per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / nv
	t.Logf("%d B per vehicle", per)
	if per > ceiling {
		t.Fatalf("%d B per vehicle, ceiling %d", per, ceiling)
	}
}
