package core_test

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ptrider/internal/core"
	"ptrider/internal/roadnet"
	"ptrider/internal/testnet"
)

// TestConcurrentClients hammers the engine from several goroutines
// mixing submissions, choices, ticks and stats reads; run under -race
// this pins the engine's locking discipline.
func TestConcurrentClients(t *testing.T) {
	e := latticeEngine(t, 30, 8, 8, core.Config{Capacity: 4})
	e.AddVehiclesUniform(20)
	n := e.Graph().NumVertices()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for worker := 0; worker < 8; worker++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 50; i++ {
				switch rng.Intn(4) {
				case 0, 1:
					s := roadnet.VertexID(rng.Intn(n))
					d := roadnet.VertexID(rng.Intn(n))
					if s == d {
						continue
					}
					rec, err := e.Submit(s, d, 1+rng.Intn(2))
					if err != nil {
						errs <- err
						return
					}
					if len(rec.Options) > 0 && rng.Intn(2) == 0 {
						// Choices may fail if the vehicle moved or filled
						// meanwhile — that is expected behaviour, not an
						// engine error.
						_ = e.Choose(rec.ID, rng.Intn(len(rec.Options)))
					} else {
						_ = e.Decline(rec.ID)
					}
				case 2:
					if _, err := e.Tick(1); err != nil {
						errs <- err
						return
					}
				case 3:
					_ = e.Stats()
					_ = e.VehicleViews(5)
				}
			}
		}(int64(worker))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent client: %v", err)
	}
	st := e.Stats()
	if st.Requests == 0 {
		t.Fatal("no requests recorded")
	}
}

// TestConcurrentStress is the full-surface race stress: many goroutines
// mixing Submit, Choose, Decline, Tick, Stats, VehicleViews,
// VehicleSchedules, RemoveVehicle and SubmitRequestBatch, with the engine
// invariants checked both during and after the storm. Under -race this
// exercises every lock in the layered engine: the lock-free substrate
// reads, the shared distance memo, the per-vehicle probe/commit locks,
// the grid-list lock, and the coordination core.
func TestConcurrentStress(t *testing.T) {
	e := latticeEngine(t, 31, 10, 10, core.Config{
		Capacity:    3,
		CommitSlack: 0.2, // exercise the re-probe path under contention
	})
	e.AddVehiclesUniform(30)
	n := e.Graph().NumVertices()

	const workers = 10
	var wg sync.WaitGroup
	var chooseOK, chooseFail atomic.Int64
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 80; i++ {
				switch rng.Intn(10) {
				case 0, 1, 2, 3:
					s := roadnet.VertexID(rng.Intn(n))
					d := roadnet.VertexID(rng.Intn(n))
					if s == d {
						continue
					}
					rec, err := e.Submit(s, d, 1+rng.Intn(3))
					if err != nil {
						errs <- err
						return
					}
					if len(rec.Options) > 0 && rng.Intn(3) > 0 {
						if err := e.Choose(rec.ID, rng.Intn(len(rec.Options))); err == nil {
							chooseOK.Add(1)
						} else {
							chooseFail.Add(1)
						}
					} else {
						_ = e.Decline(rec.ID)
					}
				case 4, 5:
					if _, err := e.Tick(0.5 + rng.Float64()); err != nil {
						errs <- err
						return
					}
				case 6:
					st := e.Stats()
					if st.Assigned > st.Requests {
						errs <- errAssignedExceedsRequests(st)
						return
					}
					_ = e.VehicleViews(10)
				case 7:
					if _, _, err := e.VehicleSchedules(int32(rng.Intn(30))); err != nil {
						// Removed vehicles still answer; only unknown ids
						// error, and we never use unknown ids here.
						errs <- err
						return
					}
				case 8:
					// Failure injection: at most a few removals so the
					// fleet stays useful.
					if rng.Intn(20) == 0 {
						_, _ = e.RemoveVehicle(int32(rng.Intn(30)))
					}
				case 9:
					_, _ = e.SubmitRequestBatch([]core.SubmitSpec{
						{S: roadnet.VertexID(rng.Intn(n)), D: roadnet.VertexID(rng.Intn(n)), Riders: 1,
							Constraints: core.DefaultConstraints(),
							Choose: func(opts []core.Option) int {
								if len(opts) == 0 {
									return -1
								}
								return 0
							}},
					})
				}
				if i%16 == 0 {
					if err := e.CheckInvariants(); err != nil {
						errs <- err
						return
					}
				}
			}
		}(int64(100 + w))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("stress worker: %v", err)
	}

	// Post-storm: every committed schedule must still satisfy the
	// capacity/waiting-time/service constraints (the kinetic trees only
	// store constraint-satisfying schedules; a vehicle with pending
	// requests but zero valid branches would mean a commit violated
	// them), and the lifecycle counters must be consistent.
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("post-storm invariants: %v", err)
	}
	st := e.Stats()
	if st.Requests == 0 || st.Assigned == 0 {
		t.Fatalf("storm did no work: %+v", st)
	}
	if st.Declined+st.Assigned > st.Requests {
		t.Fatalf("declined %d + assigned %d > requests %d", st.Declined, st.Assigned, st.Requests)
	}
	t.Logf("stress: %d requests, %d assigned, %d completed, choose ok/fail %d/%d",
		st.Requests, st.Assigned, st.Completed, chooseOK.Load(), chooseFail.Load())

	// Drain: with traffic stopped the fleet must still be able to
	// finish every onboard rider.
	for i := 0; i < 4000 && e.Stats().Completed < e.Stats().Assigned; i++ {
		if _, err := e.Tick(1); err != nil {
			t.Fatalf("drain tick: %v", err)
		}
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("post-drain invariants: %v", err)
	}
}

// TestBatchHotcellRaceStress hammers the batch path specifically:
// several goroutines issue hot-cell batches (many items sharing one
// origin cell, so a wave's parallel quotes walk the same cells, probe
// the same vehicles and fill the same memo stripes at once) while
// tickers move the fleet and a saboteur removes and replaces vehicles
// mid-batch. Under -race this pins the batch path's locking; the
// invariant checks pin that stale probe snapshots can never commit an
// invalid schedule.
func TestBatchHotcellRaceStress(t *testing.T) {
	var e *core.Engine
	testnet.AtProcs(4, func() {
		e = latticeEngine(t, 34, 10, 10, core.Config{Capacity: 3, CommitSlack: 0.2})
	})
	e.AddVehiclesUniform(24)
	removable := int32(24)

	const workers = 6
	var wg sync.WaitGroup
	errs := make(chan error, workers+3)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 25; i++ {
				items := hotcellSpecs(e, seed*1000+int64(i), 5)
				for j := range items {
					if rng.Intn(2) == 0 {
						items[j].Choose = func(opts []core.Option) int {
							if len(opts) == 0 {
								return -1
							}
							return rng.Intn(len(opts))
						}
					}
				}
				// Commit failures under concurrent ticks/removals are
				// expected behaviour (reported via the error), not bugs.
				_, _ = e.SubmitRequestBatch(items)
				if i%8 == 0 {
					if err := e.CheckInvariants(); err != nil {
						errs <- err
						return
					}
				}
			}
		}(int64(500 + w))
	}
	for tickers := 0; tickers < 2; tickers++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 60; i++ {
				if _, err := e.Tick(0.5 + rng.Float64()); err != nil {
					errs <- err
					return
				}
			}
		}(int64(600 + tickers))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(700))
		for i := 0; i < 10; i++ {
			_, _ = e.RemoveVehicle(rng.Int31n(removable))
			e.AddVehicleAt(roadnet.VertexID(rng.Intn(e.Graph().NumVertices())))
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("batch stress: %v", err)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("post-storm invariants: %v", err)
	}
	if st := e.Stats(); st.Requests == 0 {
		t.Fatal("storm did no work")
	}
}

type statErr core.EngineStats

func errAssignedExceedsRequests(st core.EngineStats) error { return statErr(st) }

func (s statErr) Error() string {
	return "stats snapshot inconsistent: assigned exceeds requests"
}

// TestStatsConsistentUnderLoad is the regression test for the Stats
// snapshot: while submissions, choices and ticks run at full rate,
// every Stats() result must satisfy Assigned ≤ Requests and
// Completed ≤ Assigned — the snapshot must never catch the counters
// mid-update.
func TestStatsConsistentUnderLoad(t *testing.T) {
	e := latticeEngine(t, 32, 8, 8, core.Config{Capacity: 4})
	e.AddVehiclesUniform(15)
	n := e.Graph().NumVertices()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := roadnet.VertexID(rng.Intn(n))
				d := roadnet.VertexID(rng.Intn(n))
				if s == d {
					continue
				}
				rec, err := e.Submit(s, d, 1)
				if err != nil {
					continue
				}
				if len(rec.Options) > 0 {
					_ = e.Choose(rec.ID, 0)
				} else {
					_ = e.Decline(rec.ID)
				}
				if rng.Intn(8) == 0 {
					_, _ = e.Tick(1)
				}
			}
		}(int64(200 + w))
	}

	// Sample until real traffic has flowed (yielding so the workers get
	// scheduled even on a single-core host), bounded by a deadline.
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; ; i++ {
		st := e.Stats()
		if st.Assigned > st.Requests {
			t.Errorf("snapshot %d: assigned %d > requests %d", i, st.Assigned, st.Requests)
			break
		}
		if st.Completed > st.Assigned {
			t.Errorf("snapshot %d: completed %d > assigned %d", i, st.Completed, st.Assigned)
			break
		}
		if st.SharedCompleted > st.Completed {
			t.Errorf("snapshot %d: shared %d > completed %d", i, st.SharedCompleted, st.Completed)
			break
		}
		if (i >= 2000 && st.Requests > 50) || time.Now().After(deadline) {
			break
		}
		runtime.Gosched()
	}
	close(stop)
	wg.Wait()
	if st := e.Stats(); st.Requests == 0 {
		t.Fatal("no requests recorded")
	}
}

// TestConcurrentSubmitDeterministicLedger checks that fully concurrent
// submissions each get a unique id and a retrievable record.
func TestConcurrentSubmitDeterministicLedger(t *testing.T) {
	e := latticeEngine(t, 33, 8, 8, core.Config{Capacity: 4})
	e.AddVehiclesUniform(10)
	n := e.Graph().NumVertices()

	const workers, per = 8, 25
	ids := make([][]core.RequestID, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(300 + w)))
			for i := 0; i < per; i++ {
				s := roadnet.VertexID(rng.Intn(n))
				d := roadnet.VertexID(rng.Intn(n))
				if s == d {
					i--
					continue
				}
				rec, err := e.Submit(s, d, 1)
				if err != nil {
					continue
				}
				ids[w] = append(ids[w], rec.ID)
			}
		}(w)
	}
	wg.Wait()

	seen := make(map[core.RequestID]bool)
	for w := range ids {
		for _, id := range ids[w] {
			if seen[id] {
				t.Fatalf("duplicate request id %d", id)
			}
			seen[id] = true
			if _, err := e.GetRequest(id); err != nil {
				t.Fatalf("request %d not in ledger: %v", id, err)
			}
		}
	}
}

// TestConcurrentShardedTickStress is the race-stress suite for the
// sharded time advancement: with parallel tick workers enabled,
// concurrent Tick + SubmitRequestBatch + Choose + RemoveVehicle goroutines
// must neither race (run under -race) nor break the cross-layer
// invariants. Removal mid-tick is the interesting interleaving: a
// shard's stepVehicle can hit a vehicle that another goroutine just
// removed.
func TestConcurrentShardedTickStress(t *testing.T) {
	var e *core.Engine
	testnet.AtProcs(4, func() {
		e = latticeEngine(t, 51, 8, 8, core.Config{Capacity: 4})
	})
	e.AddVehiclesUniform(40)
	n := e.Graph().NumVertices()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	var stop atomic.Bool

	// One dedicated ticker: ticks serialise anyway, and a steady tick
	// stream maximises overlap with the mutators below.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200 && !stop.Load(); i++ {
			if _, err := e.Tick(1); err != nil {
				errs <- err
				return
			}
		}
	}()

	for worker := 0; worker < 6; worker++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 60 && !stop.Load(); i++ {
				switch rng.Intn(5) {
				case 0, 1, 2:
					items := make([]core.SubmitSpec, 1+rng.Intn(3))
					for j := range items {
						s := roadnet.VertexID(rng.Intn(n))
						d := roadnet.VertexID(rng.Intn(n))
						if s == d {
							d = roadnet.VertexID((int(d) + 1) % n)
						}
						pick := rng.Intn(2) == 0
						items[j] = core.SubmitSpec{
							S: s, D: d, Riders: 1 + rng.Intn(2),
							Choose: func(opts []core.Option) int {
								if pick && len(opts) > 0 {
									return 0
								}
								return -1
							},
						}
					}
					// Commit failures under concurrent ticks/removals are
					// expected behaviour (reported via the error), not bugs.
					_, _ = e.SubmitRequestBatch(items)
				case 3:
					s := roadnet.VertexID(rng.Intn(n))
					d := roadnet.VertexID(rng.Intn(n))
					if s == d {
						continue
					}
					rec, err := e.Submit(s, d, 1)
					if err != nil {
						errs <- err
						return
					}
					if len(rec.Options) > 0 {
						// May fail when the quote went stale — expected.
						_ = e.Choose(rec.ID, rng.Intn(len(rec.Options)))
					} else {
						_ = e.Decline(rec.ID)
					}
				case 4:
					// Removal races the shard walking this vehicle; errors
					// (already removed) are expected, races are not.
					_, _ = e.RemoveVehicle(int32(rng.Intn(40)))
				}
			}
		}(int64(worker) + 100)
	}

	wg.Wait()
	stop.Store(true)
	close(errs)
	for err := range errs {
		t.Errorf("concurrent sharded tick: %v", err)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("invariants after sharded stress: %v", err)
	}
	if st := e.Stats(); st.Tick.Workers != 4 {
		t.Fatalf("Tick.Workers = %d, want 4", st.Tick.Workers)
	}
}
