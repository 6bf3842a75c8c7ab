package core_test

// Kill-restart-verify harness for the engine's write-ahead journal
// (internal/core/durability.go): a deterministic scripted workload runs
// against a journaled engine with a crash armed at every reachable
// operation boundary; after the simulated process death the directory
// is recovered into a fresh engine, the interrupted operation is
// re-issued the way a real client would (submits retried under their
// idempotency key, choices retried until already-chosen, ticks retried
// unless the clock already advanced), and the final state must be
// equivalent to an uncrashed reference run — lifecycle counts,
// positions and prices exact, and identical future movement.

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"ptrider/internal/core"
	"ptrider/internal/fleet"
	"ptrider/internal/roadnet"
	"ptrider/internal/testnet"
	"ptrider/internal/wal"
)

// walEngineConfig is the shared scripted-workload configuration: small
// city, modest fleet, generous constraints so most submissions quote.
func walEngineConfig(mode wal.Mode, dir string) core.Config {
	return core.Config{
		Capacity: 4, Seed: 5,
		MaxWaitSeconds: 600, Sigma: 0.4, MaxPickupSeconds: 1e6,
		Durability: mode, WALDir: dir,
	}
}

// walEngine builds (or recovers) a scripted-workload engine. A fresh
// directory seeds 10 vehicles; a recovered one keeps its journaled
// fleet. A non-zero snapEvery replaces the engine's snapshot cadence.
// A non-nil inj is armed on dir while the engine is built, so its
// journal belongs to inj.
func walEngine(t testing.TB, mode wal.Mode, dir string, inj *wal.Injector, snapEvery int) *core.Engine {
	t.Helper()
	return walEngineWith(t, walEngineConfig(mode, dir), inj, snapEvery)
}

// walEngineWith is walEngine under any configuration; cfg.WALDir is
// the journal directory.
func walEngineWith(t testing.TB, cfg core.Config, inj *wal.Injector, snapEvery int) *core.Engine {
	t.Helper()
	g := testnet.Lattice(rand.New(rand.NewSource(5)), 8, 8, 100)
	disarm := wal.ArmDir(cfg.WALDir, inj)
	e, err := core.NewEngine(g, cfg)
	disarm()
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if snapEvery != 0 {
		e.SetSnapEvery(snapEvery)
	}
	if !e.Recovered() {
		if ids := e.AddVehiclesUniform(10); len(ids) != 10 {
			if !inj.Fired() {
				t.Fatalf("seeded %d vehicles", len(ids))
			}
			// The armed fault fired during the initial placement — the
			// simulated process died at boot. Restart it: recovery either
			// replays the journaled placement or (pre-append) finds an
			// empty journal and reseeds identically from the seed.
			return walEngineWith(t, cfg, nil, snapEvery)
		}
	}
	return e
}

// scriptStep is one operation of the deterministic workload.
type scriptStep struct {
	kind string // submit | finish | decline | cancel | tick
	s, d roadnet.VertexID
	ref  int
	dt   float64
}

// buildScript generates the scripted workload: submissions under
// idempotency keys interleaved with choices, declines, cancellations
// and time advances. Pure function of the vertex count.
func buildScript(nVerts int) []scriptStep {
	rng := rand.New(rand.NewSource(99))
	pair := func() (roadnet.VertexID, roadnet.VertexID) {
		s := roadnet.VertexID(rng.Intn(nVerts))
		d := roadnet.VertexID(rng.Intn(nVerts))
		for d == s {
			d = roadnet.VertexID(rng.Intn(nVerts))
		}
		return s, d
	}
	var steps []scriptStep
	ref := 0
	submit := func() int {
		s, d := pair()
		steps = append(steps, scriptStep{kind: "submit", s: s, d: d, ref: ref})
		ref++
		return ref - 1
	}
	for i := 0; i < 30; i++ {
		switch i % 6 {
		case 0, 5:
			r := submit()
			steps = append(steps, scriptStep{kind: "finish", ref: r})
		case 1:
			r := submit()
			steps = append(steps, scriptStep{kind: "decline", ref: r})
		case 2:
			submit() // left quoted
		case 3:
			r := submit()
			steps = append(steps, scriptStep{kind: "finish", ref: r})
			steps = append(steps, scriptStep{kind: "cancel", ref: r})
		case 4:
			steps = append(steps, scriptStep{kind: "tick", dt: 4})
		}
	}
	steps = append(steps, scriptStep{kind: "tick", dt: 4})
	return steps
}

// scriptRunner executes the script against an engine, surviving at
// most one simulated crash by recovering the WAL directory and
// re-issuing the interrupted operation.
type scriptRunner struct {
	t       *testing.T
	e       *core.Engine
	recover func() *core.Engine // nil → crashes are fatal (reference run)
	ids     map[int]core.RequestID
	nopt    map[int]int
	crashed bool
}

func (r *scriptRunner) onCrash(err error) {
	r.t.Helper()
	if !errors.Is(err, core.ErrCrashed) {
		r.t.Fatalf("unexpected error: %v", err)
	}
	if r.recover == nil {
		r.t.Fatalf("reference run crashed: %v", err)
	}
	if r.crashed {
		r.t.Fatalf("second crash in one run")
	}
	r.crashed = true
	r.e = r.recover()
}

func (r *scriptRunner) run(steps []scriptStep) {
	r.t.Helper()
	r.ids = make(map[int]core.RequestID)
	r.nopt = make(map[int]int)
	for i, st := range steps {
		switch st.kind {
		case "submit":
			key := fmt.Sprintf("k%d", st.ref)
			rec, err := r.e.SubmitRequest(core.SubmitSpec{S: st.s, D: st.d, Riders: 1, Constraints: core.DefaultConstraints(), IdemKey: key})
			if err != nil {
				r.onCrash(err)
				// Retried under the same key: if the original landed in
				// the journal the recovered engine answers it verbatim,
				// otherwise this re-registers under the same id (the id
				// sequence is restored from the journal).
				rec, err = r.e.SubmitRequest(core.SubmitSpec{S: st.s, D: st.d, Riders: 1, Constraints: core.DefaultConstraints(), IdemKey: key})
				if err != nil {
					r.t.Fatalf("step %d: submit retry: %v", i, err)
				}
			}
			r.ids[st.ref] = rec.ID
			r.nopt[st.ref] = len(rec.Options)

		case "finish": // choose option 0 when quoted, decline otherwise
			id := r.ids[st.ref]
			if r.nopt[st.ref] == 0 {
				r.declineStep(i, id)
				continue
			}
			err := r.e.Choose(id, 0)
			if err != nil {
				r.onCrash(err)
				err = r.e.Choose(id, 0)
				if errors.Is(err, core.ErrAlreadyChosen) {
					err = nil // the original choice survived in the journal
				}
				if err != nil {
					r.t.Fatalf("step %d: choose retry: %v", i, err)
				}
			}

		case "decline":
			r.declineStep(i, r.ids[st.ref])

		case "cancel":
			id := r.ids[st.ref]
			rec, err := r.e.GetRequest(id)
			if err != nil {
				r.t.Fatalf("step %d: request %d: %v", i, id, err)
			}
			if rec.Status != core.StatusAssigned {
				continue // deterministic skip on both runs
			}
			if err := r.e.CancelAssigned(id); err != nil {
				r.onCrash(err)
				rec, gerr := r.e.GetRequest(id)
				if gerr != nil {
					r.t.Fatalf("step %d: request after crash: %v", i, gerr)
				}
				if rec.Status != core.StatusDeclined {
					if err := r.e.CancelAssigned(id); err != nil {
						r.t.Fatalf("step %d: cancel retry: %v", i, err)
					}
				}
			}

		case "tick":
			before := r.e.Clock()
			if _, err := r.e.Tick(st.dt); err != nil {
				r.onCrash(err)
				// The tick's record may have been journaled before the
				// crash (a mid-snapshot fault fires after it): re-issue
				// only if the recovered clock shows it was not applied.
				if r.e.Clock() < before+st.dt/2 {
					if _, err := r.e.Tick(st.dt); err != nil {
						r.t.Fatalf("step %d: tick retry: %v", i, err)
					}
				}
			}

		default:
			r.t.Fatalf("unknown script step %q", st.kind)
		}
	}
}

func (r *scriptRunner) declineStep(i int, id core.RequestID) {
	r.t.Helper()
	err := r.e.Decline(id)
	if err == nil {
		return
	}
	r.onCrash(err)
	rec, gerr := r.e.GetRequest(id)
	if gerr != nil {
		r.t.Fatalf("step %d: request after crash: %v", i, gerr)
	}
	if rec.Status != core.StatusDeclined {
		if err := r.e.Decline(id); err != nil {
			r.t.Fatalf("step %d: decline retry: %v", i, err)
		}
	}
}

// assertEquivalent compares a recovered engine against the uncrashed
// reference: lifecycle counts, per-request outcomes and vehicle
// positions exact — and then three more ticks on both, whose
// event streams must match exactly (the kinetic state is equivalent,
// not just the summary).
func assertEquivalent(t *testing.T, got, want *core.Engine, ids map[int]core.RequestID) {
	t.Helper()
	gs, ws := got.Stats(), want.Stats()
	if gs.Clock != ws.Clock {
		t.Fatalf("clock %v != %v", gs.Clock, ws.Clock)
	}
	if gs.Requests != ws.Requests || gs.Assigned != ws.Assigned ||
		gs.Declined != ws.Declined || gs.Completed != ws.Completed ||
		gs.SharedCompleted != ws.SharedCompleted || gs.ActiveVehicles != ws.ActiveVehicles {
		t.Fatalf("counters diverged:\n got %+v\nwant %+v", gs, ws)
	}
	gv, wv := got.VehicleViews(0), want.VehicleViews(0)
	if len(gv) != len(wv) {
		t.Fatalf("vehicle count %d != %d", len(gv), len(wv))
	}
	for i := range gv {
		if gv[i].ID != wv[i].ID || gv[i].Location != wv[i].Location ||
			gv[i].Onboard != wv[i].Onboard || gv[i].Pending != wv[i].Pending {
			t.Fatalf("vehicle %d diverged: got %+v want %+v", wv[i].ID, gv[i], wv[i])
		}
		if gv[i].X != wv[i].X || gv[i].Y != wv[i].Y {
			t.Fatalf("vehicle %d position (%v,%v) != (%v,%v)", wv[i].ID, gv[i].X, gv[i].Y, wv[i].X, wv[i].Y)
		}
	}
	for ref, id := range ids {
		gr, gerr := got.GetRequest(id)
		wr, werr := want.GetRequest(id)
		if gerr != nil || werr != nil {
			t.Fatalf("ref %d id %d: lookup errs %v / %v", ref, id, gerr, werr)
		}
		if gr.Status != wr.Status || gr.Chosen != wr.Chosen || gr.Vehicle != wr.Vehicle ||
			gr.S != wr.S || gr.D != wr.D || len(gr.Options) != len(wr.Options) {
			t.Fatalf("ref %d id %d diverged:\n got %+v\nwant %+v", ref, id, gr, wr)
		}
		if gr.Price != wr.Price || gr.PlannedPickupOdo != wr.PlannedPickupOdo {
			t.Fatalf("ref %d id %d price/odo (%v,%v) != (%v,%v)",
				ref, id, gr.Price, gr.PlannedPickupOdo, wr.Price, wr.PlannedPickupOdo)
		}
		for k := range gr.Options {
			if gr.Options[k].Vehicle != wr.Options[k].Vehicle ||
				gr.Options[k].Price != wr.Options[k].Price ||
				gr.Options[k].PickupDist != wr.Options[k].PickupDist {
				t.Fatalf("ref %d option %d diverged: got %+v want %+v", ref, k, gr.Options[k], wr.Options[k])
			}
		}
	}
	if err := got.CheckInvariants(); err != nil {
		t.Fatalf("recovered engine invariants: %v", err)
	}
	for round := 0; round < 3; round++ {
		ge, gerr := got.Tick(6)
		we, werr := want.Tick(6)
		if gerr != nil || werr != nil {
			t.Fatalf("verify tick %d: errs %v / %v", round, gerr, werr)
		}
		if len(ge) != len(we) {
			t.Fatalf("verify tick %d: %d events != %d", round, len(ge), len(we))
		}
		for k := range ge {
			if ge[k].Kind != we[k].Kind || ge[k].Vehicle != we[k].Vehicle || ge[k].Request != we[k].Request ||
				ge[k].Odo != we[k].Odo {
				t.Fatalf("verify tick %d event %d: got %+v want %+v", round, k, ge[k], we[k])
			}
		}
	}
}

// referenceRun executes the script on a journal-free engine.
func referenceRun(t *testing.T, steps []scriptStep) (*core.Engine, map[int]core.RequestID) {
	t.Helper()
	return referenceRunWith(t, steps, walEngineConfig(wal.ModeOff, ""))
}

// referenceRunWith is referenceRun under cfg, whose journal is off.
func referenceRunWith(t *testing.T, steps []scriptStep, cfg core.Config) (*core.Engine, map[int]core.RequestID) {
	t.Helper()
	ref := &scriptRunner{t: t, e: walEngineWith(t, cfg, nil, 0)}
	ref.run(steps)
	return ref.e, ref.ids
}

// TestCrashRecoveryGoldenEquivalence is the tentpole harness: for each
// operation-level crash point, a crash armed at every journal-append
// ordinal must recover into a state equivalent to the uncrashed
// reference run.
func TestCrashRecoveryGoldenEquivalence(t *testing.T) {
	g := testnet.Lattice(rand.New(rand.NewSource(5)), 8, 8, 100)
	steps := buildScript(g.NumVertices())

	for _, point := range []wal.CrashPoint{wal.CrashPreAppend, wal.CrashPostAppend} {
		// The scripted run journals ~45 records (placement, submits,
		// choices, declines, cancels, ticks); sweeping the arm ordinal
		// walks the crash across every operation type. Ordinals beyond
		// the journal length simply never fire (uncrashed control).
		for after := 0; after <= 45; after += 1 {
			t.Run(fmt.Sprintf("%s/after=%d", point, after), func(t *testing.T) {
				dir := t.TempDir()
				inj := &wal.Injector{}
				inj.Arm(point, after)
				run := &scriptRunner{
					t: t,
					e: walEngine(t, wal.ModeSync, dir, inj, 0),
					recover: func() *core.Engine {
						return walEngine(t, wal.ModeSync, dir, nil, 0)
					},
				}
				run.run(steps)
				want, ids := referenceRun(t, steps)
				assertEquivalent(t, run.e, want, ids)
			})
		}
	}
}

// walSurgeConfig is walEngineConfig with surge pricing on: 8-second
// epochs, so the script's 24 simulated seconds close three of them,
// half-weight smoothing, so every epoch's ratios carry the ones before
// it, and tiers that surge any cell with demand.
func walSurgeConfig(mode wal.Mode, dir string) core.Config {
	cfg := walEngineConfig(mode, dir)
	cfg.SurgeEnabled, cfg.SurgeEpochSeconds, cfg.SurgeAlpha, cfg.SurgeTiers = true, 8, 0.5, hotTiers()
	return cfg
}

// assertSurgeEqual compares two engines' surge trackers bit for bit:
// the epoch, every cell's EMA ratio and multiplier, and the panel.
func assertSurgeEqual(t *testing.T, got, want *core.Engine) {
	t.Helper()
	gEpoch, gEMA, gMult := got.SurgeCells()
	wEpoch, wEMA, wMult := want.SurgeCells()
	if gEpoch != wEpoch {
		t.Fatalf("surge epoch %d != %d", gEpoch, wEpoch)
	}
	for c := range wEMA {
		if gEMA[c] != wEMA[c] || gMult[c] != wMult[c] {
			t.Fatalf("surge cell %d: ema %v mult %v, want ema %v mult %v", c, gEMA[c], gMult[c], wEMA[c], wMult[c])
		}
	}
	if gp, wp := got.SurgeStats(), want.SurgeStats(); gp != wp {
		t.Fatalf("surge panel %+v != %+v", gp, wp)
	}
}

// TestCrashRecoverySurgeEquivalence is the golden-equivalence sweep
// with surge pricing on. The journal holds no surge epochs: replaying
// each tick record re-derives the epoch it closed. So at every crash
// ordinal the recovered engine's epoch, EMA ratios and multipliers
// must equal the uncrashed reference's, before and after the
// verification ticks.
func TestCrashRecoverySurgeEquivalence(t *testing.T) {
	g := testnet.Lattice(rand.New(rand.NewSource(5)), 8, 8, 100)
	steps := buildScript(g.NumVertices())
	ref, _ := referenceRunWith(t, steps, walSurgeConfig(wal.ModeOff, ""))
	if st := ref.SurgeStats(); st.Epoch < 3 || st.ActiveCells == 0 {
		t.Fatalf("the script closes too few surge epochs to test: %+v", st)
	}

	for _, point := range []wal.CrashPoint{wal.CrashPreAppend, wal.CrashPostAppend} {
		for after := 0; after <= 45; after++ {
			t.Run(fmt.Sprintf("%s/after=%d", point, after), func(t *testing.T) {
				dir := t.TempDir()
				inj := &wal.Injector{}
				inj.Arm(point, after)
				run := &scriptRunner{
					t: t,
					e: walEngineWith(t, walSurgeConfig(wal.ModeSync, dir), inj, 0),
					recover: func() *core.Engine {
						return walEngineWith(t, walSurgeConfig(wal.ModeSync, dir), nil, 0)
					},
				}
				run.run(steps)
				want, ids := referenceRunWith(t, steps, walSurgeConfig(wal.ModeOff, ""))
				assertSurgeEqual(t, run.e, want)
				assertEquivalent(t, run.e, want, ids)
				assertSurgeEqual(t, run.e, want)
			})
		}
	}
}

// TestCrashRecoveryMidSnapshot crashes inside the snapshot writer: the
// half-written snapshot must be discarded on recovery in favour of the
// previous one plus the full journal tail, with no state loss.
func TestCrashRecoveryMidSnapshot(t *testing.T) {
	g := testnet.Lattice(rand.New(rand.NewSource(5)), 8, 8, 100)
	steps := buildScript(g.NumVertices())
	for after := 0; after < 3; after++ {
		t.Run(fmt.Sprintf("after=%d", after), func(t *testing.T) {
			dir := t.TempDir()
			inj := &wal.Injector{}
			inj.Arm(wal.CrashMidSnapshot, after)
			// Snapshot every 6 records: several snapshots per run, so
			// recovery after the fault exercises the fallback chain.
			run := &scriptRunner{
				t: t,
				e: walEngine(t, wal.ModeSync, dir, inj, 6),
				recover: func() *core.Engine {
					return walEngine(t, wal.ModeSync, dir, nil, 6)
				},
			}
			run.run(steps)
			if !run.crashed {
				t.Fatalf("mid-snapshot fault never fired (snapshot cadence broken?)")
			}
			want, ids := referenceRun(t, steps)
			assertEquivalent(t, run.e, want, ids)
		})
	}
}

// TestCrashRecoverySnapshotCycles runs the script with an aggressive
// snapshot cadence and no faults, restarting between full script runs:
// snapshot+tail recovery must be exactly as good as pure tail replay.
func TestCrashRecoverySnapshotCycles(t *testing.T) {
	dir := t.TempDir()
	steps := buildScript(testnet.Lattice(rand.New(rand.NewSource(5)), 8, 8, 100).NumVertices())
	e := walEngine(t, wal.ModeSync, dir, nil, 5)
	run := &scriptRunner{t: t, e: e}
	run.run(steps)
	ds := e.DurabilityStats()
	if ds.Snapshots == 0 {
		t.Fatalf("no snapshots written at cadence 5: %+v", ds)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	got := walEngine(t, wal.ModeSync, dir, nil, 5)
	if !got.Recovered() {
		t.Fatal("engine did not recover")
	}
	want, ids := referenceRun(t, steps)
	assertEquivalent(t, got, want, ids)
	if got.DurabilityStats().ReplayDivergence != 0 {
		t.Fatalf("replay divergence: %+v", got.DurabilityStats())
	}
}

// submitN registers n requests under idempotency keys and returns
// their ids.
func submitN(t *testing.T, e *core.Engine, n int, seed int64) []core.RequestID {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	nv := e.Graph().NumVertices()
	ids := make([]core.RequestID, 0, n)
	for i := 0; i < n; i++ {
		s := roadnet.VertexID(rng.Intn(nv))
		d := roadnet.VertexID(rng.Intn(nv))
		for d == s {
			d = roadnet.VertexID(rng.Intn(nv))
		}
		rec, err := e.SubmitRequest(core.SubmitSpec{S: s, D: d, Riders: 1, Constraints: core.DefaultConstraints(), IdemKey: fmt.Sprintf("c%d", i)})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, rec.ID)
	}
	return ids
}

// TestRecoveryTornTail truncates the newest segment mid-record: the
// torn record must be dropped, everything before it recovered, and a
// client retry of the lost submission must land on the same id.
func TestRecoveryTornTail(t *testing.T) {
	dir := t.TempDir()
	inj := &wal.Injector{}
	e := walEngine(t, wal.ModeSync, dir, inj, 0)
	ids := submitN(t, e, 3, 17)
	inj.Kill()
	if err := e.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Chop into the last record's payload: a torn write.
	if err := wal.TruncateTail(dir, 5); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	got := walEngine(t, wal.ModeSync, dir, nil, 0)
	ds := got.DurabilityStats()
	if !ds.Recovered || ds.RecoveredTruncatedBytes == 0 {
		t.Fatalf("truncation not detected: %+v", ds)
	}
	if _, err := got.GetRequest(ids[2]); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("torn submit %d survived recovery (err %v)", ids[2], err)
	}
	if _, err := got.GetRequest(ids[1]); err != nil {
		t.Fatalf("intact submit %d lost: %v", ids[1], err)
	}
	// The client retries the unacknowledged submission; the id sequence
	// must continue where the journal ends — re-using the torn id.
	rec, err := got.SubmitRequest(core.SubmitSpec{S: 10, D: 20, Riders: 1, Constraints: core.DefaultConstraints(), IdemKey: "c2-retry"})
	if err != nil {
		t.Fatalf("retry submit: %v", err)
	}
	if rec.ID != ids[2] {
		t.Fatalf("retried submit got id %d, want %d", rec.ID, ids[2])
	}
	if err := got.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryFlippedByte corrupts a byte inside the newest record's
// payload: the checksum must reject it and recovery must truncate
// there, exactly like a torn write.
func TestRecoveryFlippedByte(t *testing.T) {
	dir := t.TempDir()
	inj := &wal.Injector{}
	e := walEngine(t, wal.ModeSync, dir, inj, 0)
	ids := submitN(t, e, 3, 23)
	inj.Kill()
	if err := e.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := wal.FlipByte(dir, -10); err != nil {
		t.Fatalf("flip: %v", err)
	}
	got := walEngine(t, wal.ModeSync, dir, nil, 0)
	ds := got.DurabilityStats()
	if !ds.Recovered || ds.RecoveredTruncatedBytes == 0 {
		t.Fatalf("corruption not detected: %+v", ds)
	}
	if _, err := got.GetRequest(ids[2]); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("corrupt record %d survived recovery (err %v)", ids[2], err)
	}
	if _, err := got.GetRequest(ids[1]); err != nil {
		t.Fatalf("intact record %d lost: %v", ids[1], err)
	}
	if err := got.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestAsyncCrashLosesOnlySuffix pins async mode's contract: a crash may
// lose acknowledged operations, but only a suffix — the recovered
// ledger is always a prefix of the submission order.
func TestAsyncCrashLosesOnlySuffix(t *testing.T) {
	dir := t.TempDir()
	inj := &wal.Injector{}
	e := walEngine(t, wal.ModeAsync, dir, inj, 0)
	ids := submitN(t, e, 20, 31)
	inj.Kill()
	if err := e.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	got := walEngine(t, wal.ModeAsync, dir, nil, 0)
	survived := 0
	for i, id := range ids {
		_, err := got.GetRequest(id)
		switch {
		case err == nil:
			if survived != i {
				t.Fatalf("submission %d survived after %d was lost — not a prefix", i, survived)
			}
			survived++
		case errors.Is(err, core.ErrNotFound):
			// lost suffix
		default:
			t.Fatalf("request %d: %v", id, err)
		}
	}
	t.Logf("async crash: %d/%d submissions survived", survived, len(ids))
	if err := got.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCancelAssignedAfterRestart is the restart-path audit for the
// relay compensation primitive: cancelling a journaled assignment on a
// freshly recovered engine must release the vehicle cleanly, and a
// second cancel must fail with a typed error — never panic (recovery
// calls it status-checked, but defence matters on this path).
func TestCancelAssignedAfterRestart(t *testing.T) {
	dir := t.TempDir()
	e := walEngine(t, wal.ModeSync, dir, nil, 0)
	rec := submitWithOptions(t, e, 41)
	if err := e.Choose(rec.ID, 0); err != nil {
		t.Fatalf("choose: %v", err)
	}
	veh := rec.Options[0].Vehicle
	if err := e.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	got := walEngine(t, wal.ModeSync, dir, nil, 0)
	if !got.Recovered() {
		t.Fatal("engine did not recover")
	}
	if n := vehiclePending(t, got, fleet.VehicleID(veh)); n == 0 {
		t.Fatalf("recovered vehicle %d shows no pending stops", veh)
	}
	if err := got.CancelAssigned(rec.ID); err != nil {
		t.Fatalf("cancel after restart: %v", err)
	}
	if n := vehiclePending(t, got, fleet.VehicleID(veh)); n != 0 {
		t.Fatalf("vehicle %d still has %d pending stops after cancel", veh, n)
	}
	if err := got.CancelAssigned(rec.ID); err == nil {
		t.Fatal("second cancel succeeded; want typed error")
	}
	if err := got.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// And the cancellation itself is durable.
	again := walEngine(t, wal.ModeSync, dir, nil, 0)
	r2, err := again.GetRequest(rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Status != core.StatusDeclined {
		t.Fatalf("cancelled request recovered as %v", r2.Status)
	}
	if n := vehiclePending(t, again, fleet.VehicleID(veh)); n != 0 {
		t.Fatalf("vehicle %d leaked %d stops across the second restart", veh, n)
	}
}

// TestSubmitIdempotencyKey pins the satellite contract: a repeated
// Idempotency-Key returns the original record without registering a
// second request, across statuses and across a restart.
func TestSubmitIdempotencyKey(t *testing.T) {
	dir := t.TempDir()
	e := walEngine(t, wal.ModeSync, dir, nil, 0)
	rec, err := e.SubmitRequest(core.SubmitSpec{S: 3, D: 40, Riders: 1, Constraints: core.DefaultConstraints(), IdemKey: "once"})
	if err != nil {
		t.Fatal(err)
	}
	before := e.Stats().Requests
	dup, err := e.SubmitRequest(core.SubmitSpec{S: 7, D: 12, Riders: 1, Constraints: core.DefaultConstraints(), IdemKey: "once"}) // different endpoints, same key
	if err != nil {
		t.Fatal(err)
	}
	if dup.ID != rec.ID || dup.S != rec.S || dup.D != rec.D {
		t.Fatalf("duplicate key returned %+v, want the original %+v", dup, rec)
	}
	if after := e.Stats().Requests; after != before {
		t.Fatalf("duplicate submission counted: %d → %d", before, after)
	}
	// The mapping survives a restart (journaled with the submit).
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	got := walEngine(t, wal.ModeSync, dir, nil, 0)
	dup2, err := got.SubmitRequest(core.SubmitSpec{S: 9, D: 9, Riders: 1, Constraints: core.DefaultConstraints(), IdemKey: "once"})
	if err != nil {
		t.Fatal(err)
	}
	if dup2.ID != rec.ID {
		t.Fatalf("key lost across restart: got id %d, want %d", dup2.ID, rec.ID)
	}
}

// TestDurabilityStatsPanel sanity-checks the /v1/stats durability
// panel: journal counters move, mode is reported, and a recovery is
// visible.
func TestDurabilityStatsPanel(t *testing.T) {
	dir := t.TempDir()
	e := walEngine(t, wal.ModeSync, dir, nil, 0)
	submitN(t, e, 3, 53)
	ds := e.Stats().Durability
	if ds.Mode != "sync" || ds.Records == 0 || ds.Fsyncs == 0 {
		t.Fatalf("live panel: %+v", ds)
	}
	if err := e.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if ds = e.DurabilityStats(); ds.Snapshots != 1 || ds.LastSnapshotSeg == 0 {
		t.Fatalf("snapshot panel: %+v", ds)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	got := walEngine(t, wal.ModeSync, dir, nil, 0)
	if ds = got.DurabilityStats(); !ds.Recovered {
		t.Fatalf("recovery panel: %+v", ds)
	}
	off := walEngine(t, wal.ModeOff, "", nil, 0)
	if ds = off.Stats().Durability; ds.Mode != "off" || ds.Records != 0 {
		t.Fatalf("off panel: %+v", ds)
	}
}

// TestRecoveryReplaysVehicleRemovalAndPlacement covers the two replay
// arms the golden script never journals: a vehicle removal that orphans
// an onboard and a pending rider, and a placement after start. The
// recovered engine must match the killed one record for record, once
// from the journal tail alone and once across a snapshot.
func TestRecoveryReplaysVehicleRemovalAndPlacement(t *testing.T) {
	for _, tc := range []struct {
		name     string
		snapshot bool
	}{{"tail", false}, {"snapshot", true}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			build := func() *core.Engine {
				cfg := walEngineConfig(wal.ModeSync, dir)
				cfg.MaxWaitSeconds, cfg.Sigma = 2000, 1.0
				e, err := core.NewEngine(testnet.Lattice(rand.New(rand.NewSource(5)), 8, 8, 100), cfg)
				if err != nil {
					t.Fatalf("NewEngine: %v", err)
				}
				e.SetSnapEvery(-1)
				return e
			}
			inj := &wal.Injector{}
			disarm := wal.ArmDir(dir, inj)
			live := build()
			disarm()
			loaded := live.AddVehicleAt(0)
			var ids []core.RequestID
			ride := func(e *core.Engine, s, d roadnet.VertexID) core.RequestID {
				rec, err := e.Submit(s, d, 1)
				if err != nil || len(rec.Options) == 0 {
					t.Fatalf("submit %d→%d: %v, %d options", s, d, err, len(rec.Options))
				}
				if err := e.Choose(rec.ID, 0); err != nil {
					t.Fatalf("choose %d: %v", rec.ID, err)
				}
				ids = append(ids, rec.ID)
				return rec.ID
			}
			first, second := ride(live, 9, 54), ride(live, 18, 63)
			status := func(id core.RequestID) core.RequestStatus {
				rec, err := live.GetRequest(id)
				if err != nil {
					t.Fatal(err)
				}
				return rec.Status
			}
			for tick := 0; status(first) != core.StatusOnboard; tick++ {
				if tick == 3000 {
					t.Fatal("first rider never boarded")
				}
				if _, err := live.Tick(1); err != nil {
					t.Fatal(err)
				}
			}
			if st := status(second); st != core.StatusAssigned {
				t.Fatalf("second rider is %v, want still pending", st)
			}
			if tc.snapshot {
				if err := live.Snapshot(); err != nil {
					t.Fatal(err)
				}
			}
			fresh := live.AddVehicleAt(27)
			orphans, err := live.RemoveVehicle(loaded)
			if err != nil || len(orphans) != 2 {
				t.Fatalf("remove loaded vehicle: %v, orphans %v", err, orphans)
			}
			// A ride on the replacement pins its replayed id and position.
			third := ride(live, 27, 60)
			if rec, _ := live.GetRequest(third); rec.Vehicle != fresh {
				t.Fatalf("third rider on vehicle %d, want the fresh taxi %d", rec.Vehicle, fresh)
			}
			inj.Kill()
			if err := live.Close(); err != nil {
				t.Fatal(err)
			}

			got := build()
			if ds := got.DurabilityStats(); !ds.Recovered || ds.ReplayDivergence != 0 ||
				(ds.LastSnapshotSeg != 0) != tc.snapshot {
				t.Fatalf("recovery panel: %+v", ds)
			}
			for _, id := range ids {
				gr, gerr := got.GetRequest(id)
				wr, werr := live.GetRequest(id)
				if gerr != nil || werr != nil {
					t.Fatalf("request %d: %v / %v", id, gerr, werr)
				}
				if gr.Status != wr.Status || gr.Vehicle != wr.Vehicle || gr.Shared != wr.Shared {
					t.Fatalf("request %d diverged:\n got %+v\nwant %+v", id, gr, wr)
				}
			}
			gs, ws := got.Stats(), live.Stats()
			if gs.Clock != ws.Clock || gs.Requests != ws.Requests || gs.Assigned != ws.Assigned ||
				gs.Declined != ws.Declined || gs.Completed != ws.Completed ||
				gs.SharedCompleted != ws.SharedCompleted || gs.ActiveVehicles != ws.ActiveVehicles {
				t.Fatalf("counters diverged:\n got %+v\nwant %+v", gs, ws)
			}
			gv, wv := got.VehicleViews(0), live.VehicleViews(0)
			if len(gv) != len(wv) {
				t.Fatalf("vehicle views %v != %v", gv, wv)
			}
			for i := range gv {
				if gv[i] != wv[i] {
					t.Fatalf("vehicle %d diverged: got %+v want %+v", wv[i].ID, gv[i], wv[i])
				}
			}
			if err := got.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
