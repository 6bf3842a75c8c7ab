package multicity_test

// Durability tests at the router level: whole-process restart of the
// sharded backend (per-city journals plus the relay trip ledger), and
// the relay two-phase-commit crash window — a simulated process death
// between the leg-1 and leg-2 commits must be compensated on recovery
// so no vehicle stays reserved for a trip that will never run.

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"ptrider/internal/core"
	"ptrider/internal/gen"
	"ptrider/internal/multicity"
	"ptrider/internal/relay"
	"ptrider/internal/roadnet"
	"ptrider/internal/wal"
)

// durableTwinRouter builds (or recovers) the two-city relay router
// over a shared WAL directory. Construction errors are returned, not
// fatal — the mid-compensate test expects one. A non-nil inj is armed
// on dir while the router is built, so every shard's journal belongs
// to it: the router is one simulated process.
func durableTwinRouter(t testing.TB, dir string, inj *wal.Injector) (*multicity.Router, error) {
	t.Helper()
	ga, err := gen.GenerateNetwork(gen.CityConfig{Width: 10, Height: 10, Seed: 1})
	if err != nil {
		t.Fatalf("gen alpha: %v", err)
	}
	gb, err := gen.GenerateNetwork(gen.CityConfig{Width: 8, Height: 8, OriginX: 20000, Seed: 2})
	if err != nil {
		t.Fatalf("gen beta: %v", err)
	}
	defer wal.ArmDir(dir, inj)()
	return multicity.NewWithConfig([]multicity.CitySpec{
		{Name: "alpha", Graph: ga, Config: core.Config{Capacity: 4, Seed: 1}, Vehicles: 10},
		{Name: "beta", Graph: gb, Config: core.Config{Capacity: 4, Seed: 2}, Vehicles: 10},
	}, multicity.RouterConfig{
		EnableRelay: true,
		Relay:       relay.Config{TransferBufferSeconds: 120},
		Durability:  wal.ModeSync, WALDir: dir,
	})
}

// fleetLoad sums assigned work across a city's vehicles.
func fleetLoad(t *testing.T, r *multicity.Router, city string) (pending, onboard int) {
	t.Helper()
	views, err := r.Vehicles(city, 0)
	if err != nil {
		t.Fatalf("vehicles %s: %v", city, err)
	}
	for _, v := range views {
		pending += v.Pending
		onboard += v.Onboard
	}
	return pending, onboard
}

// crashRelayCommitWindow drives a relay trip into the two-phase-commit
// window and kills the process there: leg 1 commits for real (and is
// journaled by the origin engine), then the leg-2 commit brings every
// shard down through inj, the injector r was built under. Returns the
// quoted record.
func crashRelayCommitWindow(t *testing.T, r *multicity.Router, inj *wal.Injector) *core.ServiceRecord {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	rec := quoteRelay(t, r, "alpha", "beta", rng)
	r.RelayScheduler().SetCommitOverride(func(leg int, eng relay.LegEngine, id core.RequestID, opt int) error {
		if leg == 1 {
			return eng.Choose(id, opt)
		}
		inj.Kill() // simulated process death between the leg commits
		return core.ErrCrashed
	})
	if err := r.Choose(rec.ID, 0); err == nil {
		t.Fatal("choose succeeded through a killed process")
	}
	return rec
}

// alphaConfig is the alpha city's effective engine config, for peeking
// at its shard journal directly.
func alphaConfig(dir string) core.Config {
	return core.Config{
		Capacity: 4, Seed: 1,
		Durability: wal.ModeSync, WALDir: filepath.Join(dir, "city-alpha"),
	}
}

// TestRelayCrashWindowCompensatedOnRestart is the satellite-4 harness:
// kill the process between a relay trip's leg-1 and leg-2 commits,
// restart, and verify recovery released the leg-1 reservation — the
// origin fleet ends with zero assigned work and the trip aborted.
func TestRelayCrashWindowCompensatedOnRestart(t *testing.T) {
	dir := t.TempDir()
	crash := &wal.Injector{}
	r, err := durableTwinRouter(t, dir, crash)
	if err != nil {
		t.Fatalf("router: %v", err)
	}
	rec := crashRelayCommitWindow(t, r, crash)

	// Peek at the crash state through a raw engine recovery of the
	// alpha shard: the journal must hold the committed leg-1 — the
	// leaked reservation the router-level recovery has to repair.
	ga, err := gen.GenerateNetwork(gen.CityConfig{Width: 10, Height: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	peek, err := core.NewEngine(ga, alphaConfig(dir))
	if err != nil {
		t.Fatalf("peek recovery: %v", err)
	}
	if got := peek.Stats().Assigned; got != 1 {
		t.Fatalf("crash state holds %d assigned legs, want the leaked 1", got)
	}
	if err := peek.Close(); err != nil {
		t.Fatalf("peek close: %v", err)
	}

	// Full restart: relay recovery finds the open intent and
	// compensates it.
	r2, err := durableTwinRouter(t, dir, nil)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	engA, _ := r2.Engine("alpha")
	if got := engA.Stats().Assigned; got != 0 {
		t.Fatalf("leg-1 reservation survived compensation: %d assigned", got)
	}
	if p, o := fleetLoad(t, r2, "alpha"); p != 0 || o != 0 {
		t.Fatalf("alpha fleet leaked work: pending %d, onboard %d", p, o)
	}
	got, err := r2.GetRequest(rec.ID)
	if err != nil {
		t.Fatalf("trip lookup after restart: %v", err)
	}
	if got.Relay == nil || got.Relay.State != relay.StateAborted.String() {
		t.Fatalf("trip not aborted after compensation: %+v", got.Relay)
	}
	if st := r2.ServiceStats(); st.Relay.Aborted == 0 {
		t.Fatalf("relay panel shows no aborts: %+v", st.Relay)
	}
	if err := r2.CheckInvariants(); err != nil {
		t.Fatalf("invariants after compensation: %v", err)
	}
	if err := r2.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestRelayMidCompensateCrashThenRecover crashes the recovery itself:
// a fault armed at the mid-compensate point kills the first restart,
// and a second restart must finish the compensation without
// double-cancelling anything.
func TestRelayMidCompensateCrashThenRecover(t *testing.T) {
	dir := t.TempDir()
	crash := &wal.Injector{}
	r, err := durableTwinRouter(t, dir, crash)
	if err != nil {
		t.Fatalf("router: %v", err)
	}
	crashRelayCommitWindow(t, r, crash)

	inj := &wal.Injector{}
	inj.Arm(wal.CrashMidCompensate, 0)
	if _, err := durableTwinRouter(t, dir, inj); !errors.Is(err, wal.ErrCrashed) {
		t.Fatalf("restart with armed mid-compensate fault: err %v, want ErrCrashed", err)
	}

	r3, err := durableTwinRouter(t, dir, nil)
	if err != nil {
		t.Fatalf("second restart: %v", err)
	}
	engA, _ := r3.Engine("alpha")
	if got := engA.Stats().Assigned; got != 0 {
		t.Fatalf("leg-1 reservation survived double recovery: %d assigned", got)
	}
	if p, o := fleetLoad(t, r3, "alpha"); p != 0 || o != 0 {
		t.Fatalf("alpha fleet leaked work: pending %d, onboard %d", p, o)
	}
	if err := r3.CheckInvariants(); err != nil {
		t.Fatalf("invariants after double recovery: %v", err)
	}
	if err := r3.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestRouterDurableRestart round-trips the whole sharded backend
// through a graceful shutdown: lifecycle counters, the clock, request
// outcomes and fleet sizes must survive, and the restart must not
// re-seed recovered fleets.
func TestRouterDurableRestart(t *testing.T) {
	dir := t.TempDir()
	r, err := durableTwinRouter(t, dir, nil)
	if err != nil {
		t.Fatalf("router: %v", err)
	}

	// Same-city workload in alpha: submit until quoted, choose, move.
	rng := rand.New(rand.NewSource(7))
	engA, _ := r.Engine("alpha")
	nv := engA.Graph().NumVertices()
	var chosen core.RequestID
	for attempt := 0; attempt < 50 && chosen == 0; attempt++ {
		s := roadnet.VertexID(rng.Intn(nv))
		d := roadnet.VertexID(rng.Intn(nv))
		if s == d {
			continue
		}
		rec, err := submitIn(r, "alpha", s, d, 1)
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		if len(rec.Options) > 0 {
			if err := r.Choose(rec.ID, 0); err != nil {
				t.Fatalf("choose: %v", err)
			}
			chosen = rec.ID
		}
	}
	if chosen == 0 {
		t.Fatal("no quoted submission in 50 attempts")
	}
	if _, err := r.Advance(5); err != nil {
		t.Fatalf("tick: %v", err)
	}
	before := r.ServiceStats()
	if err := r.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	r2, err := durableTwinRouter(t, dir, nil)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	for _, name := range []string{"alpha", "beta"} {
		eng, _ := r2.Engine(name)
		if !eng.Recovered() {
			t.Fatalf("%s engine did not recover", name)
		}
		if n := eng.NumVehicles(); n != 10 {
			t.Fatalf("%s fleet re-seeded: %d vehicles", name, n)
		}
	}
	after := r2.ServiceStats()
	if after.Total.Requests != before.Total.Requests ||
		after.Total.Assigned != before.Total.Assigned ||
		after.Total.Declined != before.Total.Declined ||
		after.Total.Completed != before.Total.Completed {
		t.Fatalf("counters diverged across restart:\n got %+v\nwant %+v", after.Total, before.Total)
	}
	if after.Total.Clock != before.Total.Clock {
		t.Fatalf("clock %v != %v across restart", after.Total.Clock, before.Total.Clock)
	}
	rec, err := r2.GetRequest(chosen)
	if err != nil {
		t.Fatalf("request after restart: %v", err)
	}
	if rec.Status != core.StatusAssigned && rec.Status != core.StatusOnboard && rec.Status != core.StatusCompleted {
		t.Fatalf("chosen request recovered as %v", rec.Status)
	}
	if err := r2.CheckInvariants(); err != nil {
		t.Fatalf("invariants after restart: %v", err)
	}
	if err := r2.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// parkRelayCommit drives a relay trip into a deferred compensation:
// leg 1 commits, leg 2's engine answers unavailable (a shard
// mid-restart), so the trip is aborted with its two-phase window still
// open and queued for the Advance drain. Returns the quoted record.
func parkRelayCommit(t *testing.T, r *multicity.Router) *core.ServiceRecord {
	t.Helper()
	rec := quoteRelay(t, r, "alpha", "beta", rand.New(rand.NewSource(21)))
	sched := r.RelayScheduler()
	sched.SetCommitOverride(func(leg int, eng relay.LegEngine, id core.RequestID, opt int) error {
		if leg == 1 {
			return eng.Choose(id, opt)
		}
		return fmt.Errorf("beta away: %w", core.ErrUnavailable)
	})
	if err := r.Choose(rec.ID, 0); !errors.Is(err, core.ErrUnavailable) {
		t.Fatalf("choose with leg 2 unavailable: %v, want ErrUnavailable", err)
	}
	sched.SetCommitOverride(nil)
	if got := sched.PendingCompensations(); got != 1 {
		t.Fatalf("pending compensations = %d, want the parked trip", got)
	}
	engA, _ := r.Engine("alpha")
	if got := engA.Stats().Assigned; got != 1 {
		t.Fatalf("alpha holds %d assigned legs, want the parked leg 1", got)
	}
	return rec
}

// TestRelayCrashWindowParkedTripSurvivesRestart closes the router while
// a trip is parked: the pending queue is not persisted, so recovery's
// open-intent scan has to release leg 1 even though the trip already
// reads aborted.
func TestRelayCrashWindowParkedTripSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	r, err := durableTwinRouter(t, dir, nil)
	if err != nil {
		t.Fatalf("router: %v", err)
	}
	rec := parkRelayCommit(t, r)
	if err := r.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	r2, err := durableTwinRouter(t, dir, nil)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := r2.Advance(1); err != nil {
			t.Fatalf("tick: %v", err)
		}
	}
	engA, _ := r2.Engine("alpha")
	if got := engA.Stats().Assigned; got != 0 {
		t.Fatalf("parked leg-1 reservation survived the restart: %d assigned", got)
	}
	if p, o := fleetLoad(t, r2, "alpha"); p != 0 || o != 0 {
		t.Fatalf("alpha fleet leaked work: pending %d, onboard %d", p, o)
	}
	if got := r2.RelayScheduler().PendingCompensations(); got != 0 {
		t.Fatalf("pending compensations after restart = %d", got)
	}
	got, err := r2.GetRequest(rec.ID)
	if err != nil || got.Relay.State != relay.StateAborted.String() {
		t.Fatalf("trip after restart: %+v, %v", got, err)
	}
	if st := r2.ServiceStats().Relay; st.Aborted != 1 {
		t.Fatalf("relay panel counts %d aborts, want 1", st.Aborted)
	}
	if err := r2.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	if err := r2.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestRelayCrashWindowParkedAbortCountedOnce snapshots while a trip is
// parked, lets the drain close its window (an abort record after the
// snapshot), and crashes: replaying that record over the snapshot must
// not count the abort a second time.
func TestRelayCrashWindowParkedAbortCountedOnce(t *testing.T) {
	dir := t.TempDir()
	crash := &wal.Injector{}
	r, err := durableTwinRouter(t, dir, crash)
	if err != nil {
		t.Fatalf("router: %v", err)
	}
	parkRelayCommit(t, r)
	if err := r.RelayScheduler().Snapshot(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	// A zero-length tick runs the drain without moving anyone, so leg 1
	// is still assigned — and released — rather than picked up.
	if _, err := r.Advance(0); err != nil {
		t.Fatalf("tick: %v", err)
	}
	if got := r.RelayScheduler().PendingCompensations(); got != 0 {
		t.Fatalf("drain left %d pending", got)
	}
	live := r.ServiceStats().Relay.Aborted
	if live != 1 {
		t.Fatalf("live panel counts %d aborts, want 1", live)
	}
	crash.Kill()

	r2, err := durableTwinRouter(t, dir, nil)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	if got := r2.ServiceStats().Relay.Aborted; got != live {
		t.Fatalf("recovered panel counts %d aborts, live counted %d", got, live)
	}
	engA, _ := r2.Engine("alpha")
	if got := engA.Stats().Assigned; got != 0 {
		t.Fatalf("leg-1 reservation survived the drain: %d assigned", got)
	}
	if err := r2.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestRouterInjectedCrashKillsEveryShard: a pre-append crash fired by
// whichever journal reaches the armed ordinal first (a city's or the
// relay's) kills every journal armed under the router's directory —
// the router itself has no crash wiring — so every city engine and the
// relay refuse with ErrCrashed; a restart over the same directory
// recovers a consistent router.
func TestRouterInjectedCrashKillsEveryShard(t *testing.T) {
	for after := 0; after < 6; after++ {
		t.Run(fmt.Sprintf("after=%d", after), func(t *testing.T) {
			dir := t.TempDir()
			inj := &wal.Injector{}
			r, err := durableTwinRouter(t, dir, inj)
			if err != nil {
				t.Fatalf("router: %v", err)
			}
			inj.Arm(wal.CrashPreAppend, after)
			rng := rand.New(rand.NewSource(int64(after)))
			for i := 0; i < 50 && !inj.Fired(); i++ {
				o, _ := cityPoints(t, r, "alpha", rng)
				_, d := cityPoints(t, r, "beta", rng)
				rec, err := submit(r, o, d, 1)
				if err != nil {
					break
				}
				if len(rec.Options) > 0 {
					_ = r.Choose(rec.ID, 0)
				} else {
					_ = r.Decline(rec.ID)
				}
			}
			if !inj.Fired() {
				t.Fatal("armed pre-append crash never fired")
			}

			for _, name := range []string{"alpha", "beta"} {
				eng, _ := r.Engine(name)
				if err := eng.Ready(); !errors.Is(err, core.ErrCrashed) {
					t.Fatalf("%s engine ready = %v, want ErrCrashed", name, err)
				}
				if _, err := eng.Tick(1); !errors.Is(err, core.ErrCrashed) {
					t.Fatalf("%s engine tick = %v, want ErrCrashed", name, err)
				}
			}
			if err := r.RelayScheduler().Snapshot(); !errors.Is(err, wal.ErrCrashed) {
				t.Fatalf("relay snapshot = %v, want ErrCrashed", err)
			}
			o, _ := cityPoints(t, r, "alpha", rng)
			_, d := cityPoints(t, r, "beta", rng)
			if _, err := submit(r, o, d, 1); !errors.Is(err, core.ErrCrashed) {
				t.Fatalf("relay submit = %v, want ErrCrashed", err)
			}
			_ = r.Close()

			r2, err := durableTwinRouter(t, dir, nil)
			if err != nil {
				t.Fatalf("restart: %v", err)
			}
			if err := r2.CheckInvariants(); err != nil {
				t.Fatalf("invariants after restart: %v", err)
			}
			if err := r2.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
		})
	}
}
