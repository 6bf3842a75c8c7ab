// durability.go makes a city engine crash-safe: every state-mutating
// operation appends an outcome record to a wal.Journal before it lands
// in the in-memory ledger, periodic snapshots bound the replay tail,
// and NewEngine recovers snapshot+tail into an engine whose ledger,
// fleet and RNG streams are byte-identical to the crashed one.
//
// # What is journaled
//
// Outcomes, not inputs: a submit record carries the quoted skyline the
// matcher produced (so a recovered quoted request can still be chosen),
// a choose record carries the committed vehicle/price/pickup anchor (so
// replay re-commits without re-running the probe), and a tick record
// carries only (dt, event count, digest) — replay re-runs the fleet
// step, which is deterministic because roaming draws come from
// per-vehicle counter-based streams whose position the fleet snapshot
// records (see fleet/restore.go) and the sharded step merges events
// canonically. The digest cross-checks determinism;
// a mismatch increments DurabilityStats.ReplayDivergence.
//
// What replay can recompute is not journaled: a surge epoch closes in
// the tick record's critical section (advanceSurgeLocked), and
// replaying the tick re-derives it from the same supply counts, demand
// and clock. Tag 8 held an epoch record in older journals; replay
// skips it (the tick before it already re-derived the epoch).
//
// All appends happen under the ledger's mutex, before the transition
// they record, so journal order IS the ledger's linearisation order.
// The fsync wait (Sync mode) happens after the mutex is released —
// group commit batches concurrent appenders into one fsync, which is
// what keeps the hot Submit path's durable overhead low.
//
// Recovery has no state logic of its own: replayRecord decodes a
// record, makes the fleet-side restore call and runs the ledger
// transition (ledger.go) the live path ran. The lifecycle around it —
// recover, restore, replay, open; the crash points; rotate, capture,
// encode, write and prune a snapshot; close; fail-stop — is the
// journal's (package wal): the engine hands it led.mu and
// captureLocked.
//
// # Known non-durable edges (documented trade-offs)
//
//   - Observability accumulators (response times, P95, tick wall-time
//     panels) reset on restore; lifecycle counters are exact.
//   - RandomVertex draws are not journaled: workload generators that
//     interleave them with engine ops shift the placement stream
//     across a restart. Engine state is unaffected.
//   - Async mode acknowledges before fsync: a crash loses a suffix of
//     acknowledged operations (never a middle), by design.
//   - A Choose landing mid-Tick is linearised at its ledger append,
//     which can differ from the instant the vehicle lock was taken;
//     sequential callers (and the crash harness) are exact. A surge
//     epoch the tick closes inherits this edge: it counts supply from
//     the cell listings the step and any mid-tick commit left, so
//     where replay orders that commit differently against the step,
//     the re-derived epoch can count differently too.
//   - The roaming stream changed once, from a math/rand source per
//     vehicle to a counter-based draw; the journal and snapshot formats
//     did not. A directory written by the old stream and closed
//     gracefully ends in a snapshot and recovers exactly. A crashed
//     one whose tail holds ticks re-runs them under the new stream, so
//     empty vehicles roam differently, the recovered pickups and
//     completions follow the new walk, and ReplayDivergence counts each
//     tick whose digest no longer matches.
package core

import (
	"encoding/json"
	"fmt"
	"math"

	"ptrider/internal/fleet"
	"ptrider/internal/pricing/surge"
	"ptrider/internal/roadnet"
	"ptrider/internal/wal"
)

// ErrCrashed is re-exported so callers outside core can classify a
// simulated-crash failure without importing wal.
var ErrCrashed = wal.ErrCrashed

// defaultSnapshotEvery is the engine's snapshot cadence: snapshot after
// this many journaled records (checked at tick boundaries).
const defaultSnapshotEvery = 4096

// walRecord is one journaled operation: its tag (walcodec.go) and the
// fields that kind carries.
type walRecord struct {
	Op      byte
	Submit  *submitRec
	Choose  *chooseRec
	ReqID   RequestID // decline / cancel
	Tick    *tickRec
	AddV    *addvRec
	Vehicle fleet.VehicleID // remove-vehicle
}

// submitRec is a registered quote: everything newQuotedRecord writes
// into the ledger, including the skyline (a recovered quoted request
// must still be choosable).
type submitRec struct {
	ID     RequestID
	S, D   roadnet.VertexID
	Riders int
	Wait   float64
	Sigma  float64
	SD     float64
	Clock  float64
	// Quote-time fare context (see RequestRecord): the journaled
	// effective ratio is authoritative on replay — recovery must not
	// re-resolve a price the rider already saw.
	FareRatio  float64
	SurgeMult  float64
	SurgeCell  int32
	SurgeEpoch uint64
	IdemKey    string `json:",omitempty"`
	Options    []Option
}

// chooseRec is a committed choice: the outcome of the fleet commit, so
// replay re-applies it without re-probing (quote determinism is not
// assumed — the journaled pickup anchor makes replayed deadlines
// bit-identical).
type chooseRec struct {
	ID               RequestID
	OptionIndex      int
	Vehicle          fleet.VehicleID
	Price            float64
	PlannedPickupOdo float64
}

// tickRec is one time advance; replay re-runs the deterministic fleet
// step and cross-checks the event digest.
type tickRec struct {
	Dt     float64
	N      int
	Digest uint64
}

// addvRec is a vehicle placement: the drawn locations plus the number
// of raw placement-RNG state steps they consumed, so replay restores
// the stream position without re-drawing (rejection sampling makes
// call counts data-dependent; see countedSource).
type addvRec struct {
	Locs  []roadnet.VertexID
	Draws uint64
}

// engSnap is the snapshot payload: the full ledger, fleet state and
// stream positions (the ledger's indexes are rebuilt from the records).
type engSnap struct {
	Clock     float64
	NextID    int64
	Requests  int64
	Completed int64
	Shared    int64
	Declined  int64
	Assigned  int64
	RngDraws  uint64
	Reqs      []RequestRecord
	Vehicles  []fleet.VehicleState
	Idem      []idemEntry
	Surge     *surgeSnap `json:",omitempty"`
}

// surgeSnap is the surge tracker's snapshot state: the full epoch
// state plus the demand accumulated since the last epoch (snapshots
// land between epochs, so mid-epoch demand must survive too) and the
// clock the next epoch advance is due at.
type surgeSnap struct {
	Next   float64
	Epoch  uint64
	EMA    []float64 `json:",omitempty"`
	Demand []float64 `json:",omitempty"`
}

// DurabilityStats is the /v1/stats durability panel.
type DurabilityStats struct {
	// Mode is "off", "async" or "sync".
	Mode string
	// Journal counters (see wal.Stats); zero when off.
	Records        int64
	Bytes          int64
	Batches        int64
	Fsyncs         int64
	MaxBatch       int64
	AvgFsyncMicros float64
	Segment        uint64
	// Snapshots counts snapshots written this process; LastSnapshotSeg
	// names the newest one (0 = none).
	Snapshots       int64
	LastSnapshotSeg uint64
	// Recovery describes the last NewEngine-time recovery: how many
	// tail records were replayed and what damage the scan repaired.
	Recovered                bool
	RecoveredRecords         int
	RecoveredTruncatedBytes  int64
	RecoveredDroppedSegments int
	RecoveredCorruptSnaps    int
	// ReplayDivergence counts replayed ticks whose event digest did not
	// match the journaled one (0 on a correct engine).
	ReplayDivergence int64
}

// alive fails with ErrCrashed once the engine's journal is dead — a
// simulated crash, or a failed write or fsync, whose error the
// ErrCrashed then wraps: the process is "dead" and every
// state-mutating operation must refuse until a fresh engine recovers
// from disk.
func (e *Engine) alive() error {
	if e.journal == nil {
		return nil
	}
	return e.journal.Err()
}

// appendLocked journals one operation record (a no-op with durability
// off). The caller holds led.mu — that lock order is what makes the
// journal the ledger's linearisation. The returned Commit must be
// waited on after led.mu is released (Sync mode fsyncs are
// group-committed across appenders). The journal fires the pre- and
// post-append crash points itself.
func (e *Engine) appendLocked(rec *walRecord) (wal.Commit, error) {
	if e.journal == nil {
		return wal.Commit{}, nil
	}
	payload, err := encodeWALRecord(e.walScratch[:0], rec)
	if err != nil {
		return wal.Commit{}, fmt.Errorf("core: journal encode: %w", err)
	}
	c, err := e.journal.Append(payload)
	e.walScratch = payload[:0] // Append copied it; keep the grown capacity
	if err != nil {
		return wal.Commit{}, err
	}
	e.recSinceSnap++
	return c, nil
}

// eventsDigest folds a tick's merged events into an FNV-1a digest —
// the replay determinism cross-check.
func eventsDigest(events []fleet.Event) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			h ^= x & 0xFF
			h *= prime
			x >>= 8
		}
	}
	for _, ev := range events {
		mix(uint64(ev.Kind))
		mix(uint64(ev.Vehicle))
		mix(uint64(ev.Request))
		mix(math.Float64bits(ev.Odo))
	}
	return h
}

// ---- snapshot / recover ----

// openDurability recovers the engine from cfg.WALDir (snapshot + tail
// replay) and opens the journal for appending. Called at the end of
// NewEngine, before any caller-visible operation.
func (e *Engine) openDurability(cfg Config) error {
	if cfg.WALDir == "" {
		return fmt.Errorf("core: durability %v requires WALDir", cfg.Durability)
	}
	j, err := wal.Open(cfg.WALDir, wal.Options{
		Mode: cfg.Durability,
		// Nil registry hands out nil histograms — telemetry off.
		AppendHist: cfg.Telemetry.LatencyHist("ptrider_wal_append_duration_seconds",
			"WAL group-commit batch write wall time."),
		FsyncHist: cfg.Telemetry.LatencyHist("ptrider_wal_fsync_duration_seconds",
			"WAL fsync wall time."),
		SnapshotHist: cfg.Telemetry.LatencyHist("ptrider_wal_snapshot_duration_seconds",
			"WAL snapshot write wall time, fsync, rename and pruning included."),
	}, e.applySnapshot, e.replayRecord)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	e.journal = j
	cfg.Telemetry.GaugeFunc("ptrider_wal_snapshot_bytes", "Payload bytes of the last snapshot this process wrote (0 = none yet).",
		func() float64 { return float64(j.Stats().LastSnapshotBytes) })
	cfg.Telemetry.GaugeFunc("ptrider_wal_flush_lag_seconds", "Lag of the last flushed journal batch: its first append to the end of its write, fsync included (0 = none yet).",
		func() float64 { return j.Stats().FlushLag.Seconds() })
	return nil
}

// Recovered reports whether NewEngine restored state from a journal
// directory — callers (multicity, the server bootstrap) must then skip
// their initial vehicle seeding.
func (e *Engine) Recovered() bool {
	return e.journal != nil && e.journal.Stats().Recovery.Recovered
}

// captureLocked builds the snapshot payload and restarts the snapshot
// cadence. The caller holds tickMu and led.mu, so no vehicle moves and
// no ledger mutation lands while the state is read; led.mu →
// Vehicle.mu (inside SnapshotState) and led.mu → rngMu are both fresh
// lock edges with no reverse path.
func (e *Engine) captureLocked() any {
	s := &engSnap{
		Clock:    e.Clock(),
		NextID:   e.nextID.Load(),
		Requests: e.requests.Load(),
		Vehicles: e.fleet.SnapshotState(),
	}
	e.led.capture(s)
	e.rngMu.Lock()
	s.RngDraws = e.rngSrc.Draws()
	e.rngMu.Unlock()
	if e.tracker != nil {
		st := e.tracker.State()
		s.Surge = &surgeSnap{Next: e.surgeNext, Epoch: st.Epoch, EMA: st.EMA, Demand: st.Demand}
	}
	e.recSinceSnap = 0
	return s
}

// applySnapshot restores the engine from a snapshot payload. The
// engine is freshly constructed: empty fleet, empty ledger.
func (e *Engine) applySnapshot(payload []byte) error {
	var s engSnap
	if err := json.Unmarshal(payload, &s); err != nil {
		return err
	}
	e.clockBits.Store(math.Float64bits(s.Clock))
	e.nextID.Store(s.NextID)
	e.requests.Store(s.Requests)
	e.rngSrc.Burn(s.RngDraws)
	if err := e.fleet.RestoreState(s.Vehicles); err != nil {
		return err
	}
	e.led.restore(&s)
	if s.Surge != nil && e.tracker != nil {
		e.tracker.Restore(surge.State{Epoch: s.Surge.Epoch, EMA: s.Surge.EMA, Demand: s.Surge.Demand})
		e.surgeNext = s.Surge.Next
	}
	return nil
}

// replayRecord re-applies one journaled operation (see the header).
// Runs single-threaded during NewEngine, before the engine is shared,
// so the ledger is used without its lock.
func (e *Engine) replayRecord(payload []byte) error {
	if len(payload) > 0 && payload[0] == tagRetiredSurge {
		// An old journal's surge epoch: the tick record before it has
		// already re-derived the same epoch.
		return nil
	}
	r, err := decodeWALRecord(payload)
	if err != nil {
		return err
	}
	switch r.Op {
	case tagSubmit:
		e.installLocked(newQuotedRecord(r.Submit), r.Submit.IdemKey)
		if int64(r.Submit.ID) > e.nextID.Load() {
			e.nextID.Store(int64(r.Submit.ID))
		}
		e.requests.Add(1)

	case tagChoose:
		rec, err := e.led.choosable(r.Choose.ID)
		if err != nil {
			return err
		}
		if err := e.fleet.RestoreCommit(r.Choose.Vehicle, e.kineticRequest(rec.ID, rec.S, rec.D, rec.Riders, rec.SD, rec.Sigma, rec.WaitSeconds), r.Choose.PlannedPickupOdo); err != nil {
			return err
		}
		return e.led.assign(r.Choose)

	case tagDecline:
		return e.led.decline(r.ReqID)

	case tagCancel:
		rec, err := e.led.in(r.ReqID, StatusAssigned)
		if err != nil {
			return err
		}
		if err := e.fleet.Cancel(rec.Vehicle, r.ReqID); err != nil {
			return err
		}
		return e.led.release(r.ReqID)

	case tagTick:
		t := r.Tick
		events, err := e.fleet.Step(t.Dt * e.sub.speed)
		if err != nil {
			return err
		}
		if len(events) != t.N || eventsDigest(events) != t.Digest {
			e.divergence.Add(1)
		}
		e.clockBits.Store(math.Float64bits(e.Clock() + t.Dt))
		e.advanceSurgeLocked()
		for _, ev := range events {
			e.applyEventLocked(ev)
		}

	case tagAddV:
		e.rngSrc.Burn(r.AddV.Draws)
		for _, loc := range r.AddV.Locs {
			e.fleet.AddVehicle(loc)
		}

	case tagRemV:
		orphans, err := e.fleet.RemoveVehicle(r.Vehicle)
		if err != nil {
			return err
		}
		e.led.orphan(r.Vehicle, orphans)
	}
	return nil
}

// Snapshot durably snapshots the engine now: the journal rotates to a
// fresh segment and the full state (covering everything before it) is
// written beside it, after which older segments and snapshots are
// pruned. Serialised against ticks; the journal rotates and the state
// is captured under led.mu, so no record lands between the two.
func (e *Engine) Snapshot() error {
	if e.journal == nil {
		return nil
	}
	e.tickMu.Lock()
	defer e.tickMu.Unlock()
	return e.journal.Snapshot(&e.led.mu, e.captureLocked)
}

// snapshotDueLocked reports whether the snapshot cadence has been
// reached. Caller holds led.mu.
func (e *Engine) snapshotDueLocked() bool {
	return e.journal != nil && e.snapEvery > 0 && e.recSinceSnap >= e.snapEvery
}

// Close writes a final snapshot and closes the journal — the
// graceful-shutdown path. A crashed engine closes its file handles
// without snapshotting (the disk state is the crash state, which is
// the point). Safe to call when durability is off.
func (e *Engine) Close() error {
	if e.journal == nil {
		return nil
	}
	e.tickMu.Lock()
	defer e.tickMu.Unlock()
	return e.journal.Close(&e.led.mu, e.captureLocked)
}

// DurabilityStats snapshots the durability panel.
func (e *Engine) DurabilityStats() DurabilityStats {
	ds := DurabilityStats{Mode: wal.ModeOff.String()}
	if e.journal == nil {
		return ds
	}
	js := e.journal.Stats()
	ds.Mode = e.sub.cfg.Durability.String()
	ds.Records = js.Records
	ds.Bytes = js.Bytes
	ds.Batches = js.Batches
	ds.Fsyncs = js.Fsyncs
	ds.MaxBatch = js.MaxBatch
	ds.AvgFsyncMicros = js.AvgFsyncMicros
	ds.Segment = js.Segment
	ds.Snapshots = js.Snapshots
	ds.LastSnapshotSeg = js.LastSnapshotSeg
	ds.Recovered = js.Recovery.Recovered
	ds.RecoveredRecords = js.Recovery.Records
	ds.RecoveredTruncatedBytes = js.Recovery.TruncatedBytes
	ds.RecoveredDroppedSegments = js.Recovery.DroppedSegments
	ds.RecoveredCorruptSnaps = js.Recovery.CorruptSnapshots
	ds.ReplayDivergence = e.divergence.Load()
	return ds
}
