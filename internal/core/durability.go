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
// step, which is deterministic because roaming draws come from counted
// per-vehicle RNG streams (see fleet.CountedSource) and the sharded
// step merges events canonically. The digest cross-checks determinism;
// a mismatch increments DurabilityStats.ReplayDivergence.
//
// All appends happen under ledgerMu, so journal order IS the ledger's
// linearisation order. The fsync wait (Sync mode) happens after
// ledgerMu is released — group commit batches concurrent appenders
// into one fsync, which is what keeps the hot Submit path's durable
// overhead low.
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
//     sequential drivers (and the crash harness) are exact.
package core

import (
	"container/list"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"

	"ptrider/internal/fleet"
	"ptrider/internal/kinetic"
	"ptrider/internal/pricing/surge"
	"ptrider/internal/roadnet"
	"ptrider/internal/wal"
)

// ErrCrashed is re-exported so callers outside core can classify a
// simulated-crash failure without importing wal.
var ErrCrashed = wal.ErrCrashed

// defaultSnapshotEvery is Config.SnapshotEvery's default: snapshot the
// engine after this many journaled records (checked at tick
// boundaries).
const defaultSnapshotEvery = 4096

// idemCapacity bounds the idempotency-key LRU.
const idemCapacity = 4096

// Operation tags of the journal records.
const (
	opSubmit  = "sub"
	opChoose  = "cho"
	opDecline = "dec"
	opCancel  = "can"
	opTick    = "tik"
	opAddV    = "adv"
	opRemV    = "rmv"
	opSurge   = "srg"
)

// walRecord is the envelope of one journaled operation.
type walRecord struct {
	Op      string          `json:"op"`
	Submit  *submitRec      `json:"sub,omitempty"`
	Choose  *chooseRec      `json:"cho,omitempty"`
	ReqID   RequestID       `json:"id,omitempty"` // decline / cancel
	Tick    *tickRec        `json:"tick,omitempty"`
	AddV    *addvRec        `json:"addv,omitempty"`
	Vehicle fleet.VehicleID `json:"veh,omitempty"` // remove-vehicle
	Surge   *surgeRec       `json:"srg,omitempty"`
}

// submitRec is a registered quote: everything registerRecord writes
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
	Reprobed         bool
}

// tickRec is one time advance; replay re-runs the deterministic fleet
// step and cross-checks the event digest.
type tickRec struct {
	Dt     float64
	N      int
	Digest uint64
}

// surgeRec is one surge epoch advance: the post-advance EMA vector
// (multipliers re-derive from it), the new epoch number, and the
// clock the next epoch is due at. Replay installs it verbatim instead
// of re-deriving supply — the record is the linearisation point of
// the epoch against concurrent submits.
type surgeRec struct {
	Epoch uint64
	Next  float64
	EMA   []float64
}

// addvRec is a vehicle placement: the drawn locations plus the number
// of raw placement-RNG state steps they consumed, so replay restores
// the stream position without re-drawing (rejection sampling makes
// call counts data-dependent; see fleet.CountedSource).
type addvRec struct {
	Locs  []roadnet.VertexID
	Draws uint64
}

// engSnap is the snapshot payload: the full ledger, fleet state and
// stream positions. byVeh is reconstructed from record statuses.
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

// alive fails with ErrCrashed once the engine's journal has been
// killed by a simulated crash: the process is "dead" and every
// state-mutating operation must refuse until a fresh engine recovers
// from disk.
func (e *Engine) alive() error {
	if e.walDead.Load() {
		return ErrCrashed
	}
	return nil
}

// killWAL marks the engine crashed and kills its journal.
func (e *Engine) killWAL() {
	e.walDead.Store(true)
	if e.journal != nil {
		e.journal.Kill()
	}
}

// noteWALErr records a journal failure (ErrCrashed from a group-commit
// wait, for example) so later operations fail fast.
func (e *Engine) noteWALErr(err error) error {
	if err != nil {
		e.walDead.Store(true)
	}
	return err
}

// appendLocked journals one operation record. The caller holds
// ledgerMu — that lock order is what makes the journal the ledger's
// linearisation. The returned Commit must be waited on after ledgerMu
// is released (Sync mode fsyncs are group-committed across appenders).
// The two operation-level crash points fire here: pre-append (the
// record must be absent after recovery) and post-append-pre-apply (the
// record is in the batch; recovery must apply it exactly once if it
// reached disk).
func (e *Engine) appendLocked(rec *walRecord) (wal.Commit, error) {
	if e.journal == nil {
		return wal.Commit{}, nil
	}
	if e.inj.Fire(wal.CrashPreAppend) {
		e.killWAL()
		return wal.Commit{}, ErrCrashed
	}
	payload, err := encodeWALRecord(e.walScratch[:0], rec)
	if err != nil {
		return wal.Commit{}, fmt.Errorf("core: journal encode: %w", err)
	}
	c, err := e.journal.Append(payload)
	e.walScratch = payload[:0] // Append copied it; keep the grown capacity
	if err != nil {
		return wal.Commit{}, e.noteWALErr(err)
	}
	e.recSinceSnap++
	if e.inj.Fire(wal.CrashPostAppend) {
		e.killWAL()
		return wal.Commit{}, ErrCrashed
	}
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

// ---- idempotency ----

// idemEntry is one idempotency mapping, serialised oldest→newest in
// snapshots.
type idemEntry struct {
	Key string    `json:"k"`
	ID  RequestID `json:"id"`
}

// idemLRU maps Idempotency-Key values to the request they registered,
// bounded LRU. Guarded by ledgerMu.
type idemLRU struct {
	cap int
	ll  *list.List // front = newest
	m   map[string]*list.Element
}

func newIdemLRU(capacity int) *idemLRU {
	return &idemLRU{cap: capacity, ll: list.New(), m: make(map[string]*list.Element)}
}

func (l *idemLRU) get(key string) (RequestID, bool) {
	el, ok := l.m[key]
	if !ok {
		return 0, false
	}
	l.ll.MoveToFront(el)
	return el.Value.(idemEntry).ID, true
}

func (l *idemLRU) put(key string, id RequestID) {
	if el, ok := l.m[key]; ok {
		el.Value = idemEntry{Key: key, ID: id}
		l.ll.MoveToFront(el)
		return
	}
	l.m[key] = l.ll.PushFront(idemEntry{Key: key, ID: id})
	for l.ll.Len() > l.cap {
		old := l.ll.Back()
		delete(l.m, old.Value.(idemEntry).Key)
		l.ll.Remove(old)
	}
}

// entries exports the mappings oldest→newest (replaying put in that
// order rebuilds the identical LRU order).
func (l *idemLRU) entries() []idemEntry {
	out := make([]idemEntry, 0, l.ll.Len())
	for el := l.ll.Back(); el != nil; el = el.Prev() {
		out = append(out, el.Value.(idemEntry))
	}
	return out
}

// ---- snapshot / recover ----

// openDurability recovers the engine from cfg.WALDir (snapshot + tail
// replay) and opens the journal for appending. Called at the end of
// NewEngine, before any caller-visible operation.
func (e *Engine) openDurability(cfg Config) error {
	if cfg.WALDir == "" {
		return fmt.Errorf("core: durability %v requires WALDir", cfg.Durability)
	}
	e.walDir = cfg.WALDir
	e.inj = cfg.FaultInjector
	rec, err := wal.Recover(cfg.WALDir)
	if err != nil {
		return err
	}
	if rec.Snapshot != nil {
		if err := e.applySnapshot(rec.Snapshot); err != nil {
			return fmt.Errorf("core: snapshot %d: %w", rec.SnapshotSeg, err)
		}
	}
	for i, payload := range rec.Records {
		if err := e.replayRecord(payload); err != nil {
			return fmt.Errorf("core: replay record %d/%d: %w", i+1, len(rec.Records), err)
		}
	}
	j, err := wal.Open(cfg.WALDir, rec.NextSeg, wal.Options{
		Mode: cfg.Durability, Injector: cfg.FaultInjector,
		// Nil registry hands out nil histograms — telemetry off.
		AppendHist: cfg.Telemetry.LatencyHist("ptrider_wal_append_duration_seconds",
			"WAL group-commit batch write wall time."),
		FsyncHist: cfg.Telemetry.LatencyHist("ptrider_wal_fsync_duration_seconds",
			"WAL fsync wall time."),
	})
	if err != nil {
		return err
	}
	e.journal = j
	e.recovered = rec.Snapshot != nil || len(rec.Records) > 0
	e.lastSnapSeg.Store(rec.SnapshotSeg)
	e.recInfo = recoveryInfo{
		records:         len(rec.Records),
		truncatedBytes:  rec.TruncatedBytes,
		droppedSegments: rec.DroppedSegments,
		corruptSnaps:    rec.CorruptSnapshots,
	}
	return nil
}

// recoveryInfo summarises the NewEngine-time recovery for the stats
// panel.
type recoveryInfo struct {
	records         int
	truncatedBytes  int64
	droppedSegments int
	corruptSnaps    int
}

// Kill simulates a process crash: the journal stops accepting appends,
// pending group commits fail with ErrCrashed, and every subsequent
// state-mutating operation refuses. The in-memory state is considered
// lost; recover by building a fresh engine over the same WALDir.
// No-op when durability is off.
func (e *Engine) Kill() {
	if e.journal == nil {
		return
	}
	e.killWAL()
}

// Recovered reports whether NewEngine restored state from a journal
// directory — callers (multicity, the server bootstrap) must then skip
// their initial vehicle seeding.
func (e *Engine) Recovered() bool { return e.recovered }

// captureLocked builds the snapshot payload. The caller holds tickMu
// and ledgerMu, so no vehicle moves and no ledger mutation lands while
// the state is read; ledgerMu → Vehicle.mu (inside SnapshotState) and
// ledgerMu → rngMu are both fresh lock edges with no reverse path.
func (e *Engine) captureLocked() *engSnap {
	s := &engSnap{
		Clock:     e.Clock(),
		NextID:    e.nextID.Load(),
		Requests:  e.requests.Load(),
		Completed: e.completed,
		Shared:    e.shared,
		Declined:  e.declined,
		Assigned:  e.assigned,
		Vehicles:  e.fleet.SnapshotState(),
		Idem:      e.idem.entries(),
	}
	e.rngMu.Lock()
	s.RngDraws = e.rngSrc.Draws()
	e.rngMu.Unlock()
	s.Reqs = make([]RequestRecord, 0, len(e.reqs))
	for _, rec := range e.reqs {
		s.Reqs = append(s.Reqs, *rec)
	}
	sort.Slice(s.Reqs, func(a, b int) bool { return s.Reqs[a].ID < s.Reqs[b].ID })
	if e.tracker != nil {
		st := e.tracker.State()
		s.Surge = &surgeSnap{Next: e.surgeNext, Epoch: st.Epoch, EMA: st.EMA, Demand: st.Demand}
	}
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
	e.completed = s.Completed
	e.shared = s.Shared
	e.declined = s.Declined
	e.assigned = s.Assigned
	e.rngSrc.Burn(s.RngDraws)
	if err := e.fleet.RestoreState(s.Vehicles); err != nil {
		return err
	}
	for i := range s.Reqs {
		rec := s.Reqs[i]
		e.reqs[rec.ID] = &rec
		if rec.Status == StatusAssigned || rec.Status == StatusOnboard {
			if e.byVeh[rec.Vehicle] == nil {
				e.byVeh[rec.Vehicle] = make(map[RequestID]bool)
			}
			e.byVeh[rec.Vehicle][rec.ID] = true
		}
		// Rebuild the surged-quote counter from the restored ledger
		// (zero SurgeMult = pre-pipeline record, not a surge).
		if rec.SurgeMult != 1 && rec.SurgeMult != 0 {
			e.surgedQuotes.Add(1)
		}
	}
	for _, en := range s.Idem {
		e.idem.put(en.Key, en.ID)
	}
	if s.Surge != nil && e.tracker != nil {
		e.tracker.Restore(surge.State{Epoch: s.Surge.Epoch, EMA: s.Surge.EMA, Demand: s.Surge.Demand})
		e.surgeNext = s.Surge.Next
	}
	return nil
}

// replayRecord re-applies one journaled operation. Runs single-threaded
// during NewEngine; ledger locks are taken where shared helpers expect
// them.
func (e *Engine) replayRecord(payload []byte) error {
	r, err := decodeWALRecord(payload)
	if err != nil {
		return err
	}
	switch r.Op {
	case opSubmit:
		s := r.Submit
		rec := &RequestRecord{
			ID: s.ID, S: s.S, D: s.D, Riders: s.Riders,
			WaitSeconds: s.Wait, Sigma: s.Sigma,
			Status: StatusQuoted, Options: s.Options, Chosen: -1,
			SD: s.SD, SubmitClock: s.Clock,
			FareRatio: s.FareRatio, SurgeMult: s.SurgeMult,
			SurgeCell: s.SurgeCell, SurgeEpoch: s.SurgeEpoch,
		}
		e.reqs[rec.ID] = rec
		if e.tracker != nil {
			// Mirror registerRecord: the replayed tracker re-accumulates
			// the same mid-epoch demand the live one held.
			e.tracker.RecordDemand(rec.SurgeCell)
			if rec.SurgeMult != 1 {
				e.surgedQuotes.Add(1)
			}
		}
		if s.IdemKey != "" {
			e.idem.put(s.IdemKey, rec.ID)
		}
		if int64(s.ID) > e.nextID.Load() {
			e.nextID.Store(int64(s.ID))
		}
		e.requests.Add(1)

	case opChoose:
		c := r.Choose
		rec := e.reqs[c.ID]
		if rec == nil {
			return fmt.Errorf("choose of unknown request %d", c.ID)
		}
		spec := kinetic.Request{
			ID: c.ID, S: rec.S, D: rec.D, Riders: rec.Riders,
			SD:           rec.SD,
			ServiceLimit: (1 + rec.Sigma) * rec.SD,
			WaitBudget:   rec.WaitSeconds * e.sub.speed,
		}
		if err := e.fleet.RestoreCommit(c.Vehicle, spec, c.PlannedPickupOdo); err != nil {
			return err
		}
		rec.Status = StatusAssigned
		rec.Chosen = c.OptionIndex
		rec.Vehicle = c.Vehicle
		rec.Price = c.Price
		rec.PlannedPickupOdo = c.PlannedPickupOdo
		if e.byVeh[c.Vehicle] == nil {
			e.byVeh[c.Vehicle] = make(map[RequestID]bool)
		}
		e.byVeh[c.Vehicle][c.ID] = true
		e.assigned++

	case opDecline:
		rec := e.reqs[r.ReqID]
		if rec == nil {
			return fmt.Errorf("decline of unknown request %d", r.ReqID)
		}
		rec.Status = StatusDeclined
		e.declined++

	case opCancel:
		rec := e.reqs[r.ReqID]
		if rec == nil {
			return fmt.Errorf("cancel of unknown request %d", r.ReqID)
		}
		if err := e.fleet.Cancel(rec.Vehicle, r.ReqID); err != nil {
			return err
		}
		rec.Status = StatusDeclined
		delete(e.byVeh[rec.Vehicle], r.ReqID)
		e.assigned--
		e.declined++

	case opTick:
		t := r.Tick
		events, err := e.fleet.Step(t.Dt * e.sub.speed)
		if err != nil {
			return err
		}
		if len(events) != t.N || eventsDigest(events) != t.Digest {
			e.divergence.Add(1)
		}
		e.clockBits.Store(math.Float64bits(e.Clock() + t.Dt))
		e.ledgerMu.Lock()
		for _, ev := range events {
			e.applyEventLocked(ev)
		}
		e.ledgerMu.Unlock()

	case opAddV:
		a := r.AddV
		e.rngMu.Lock()
		e.rngSrc.Burn(a.Draws)
		e.rngMu.Unlock()
		for _, loc := range a.Locs {
			e.fleet.AddVehicle(loc)
		}

	case opSurge:
		// An epoch advance journaled by a surge-enabled engine. A
		// recovery under a surge-disabled config skips it — the fares
		// already quoted are in the submit records; there is no tracker
		// to restore.
		if e.tracker != nil {
			g := r.Surge
			e.tracker.RestoreEpoch(g.Epoch, g.EMA)
			e.surgeNext = g.Next
		}

	case opRemV:
		orphans, err := e.fleet.RemoveVehicle(r.Vehicle)
		if err != nil {
			return err
		}
		e.ledgerMu.Lock()
		for _, o := range orphans {
			if rec := e.reqs[o.ID]; rec != nil {
				rec.Status = StatusDeclined
				delete(e.byVeh[r.Vehicle], o.ID)
			}
		}
		e.ledgerMu.Unlock()

	default:
		return fmt.Errorf("unknown journal op %q", r.Op)
	}
	return nil
}

// Snapshot durably snapshots the engine now: the journal rotates to a
// fresh segment and the full state (covering everything before it) is
// written beside it, after which older segments and snapshots are
// pruned. Serialised against ticks.
func (e *Engine) Snapshot() error {
	if e.journal == nil {
		return nil
	}
	if err := e.alive(); err != nil {
		return err
	}
	e.tickMu.Lock()
	defer e.tickMu.Unlock()
	return e.snapshotHoldingTick()
}

// snapshotHoldingTick is Snapshot's body for callers that already hold
// tickMu (Tick's cadence check would self-deadlock on the public
// method). Rotation and capture happen under ledgerMu — no record can
// land between "state X" and "segment K starts after X" — but the
// serialisation and file write run outside it.
func (e *Engine) snapshotHoldingTick() error {
	e.ledgerMu.Lock()
	seg, err := e.journal.Rotate()
	if err != nil {
		e.ledgerMu.Unlock()
		return e.noteWALErr(err)
	}
	snap := e.captureLocked()
	e.recSinceSnap = 0
	e.ledgerMu.Unlock()

	payload, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("core: snapshot encode: %w", err)
	}
	if err := wal.WriteSnapshot(e.walDir, seg, payload, e.inj); err != nil {
		if errors.Is(err, ErrCrashed) {
			e.killWAL()
		}
		return err
	}
	e.lastSnapSeg.Store(seg)
	e.snapCount.Add(1)
	wal.PruneBefore(e.walDir, seg)
	return nil
}

// snapshotDueLocked reports whether the snapshot cadence has been
// reached. Caller holds ledgerMu.
func (e *Engine) snapshotDueLocked() bool {
	return e.journal != nil && e.snapEvery > 0 && e.recSinceSnap >= e.snapEvery
}

// Close flushes the journal tail, writes a final snapshot and closes
// the journal — the graceful-shutdown path. A crashed engine closes
// its file handles without snapshotting (the disk state is the crash
// state, which is the point). Safe to call when durability is off.
func (e *Engine) Close() error {
	if e.journal == nil {
		return nil
	}
	if e.walDead.Load() {
		return e.journal.Close()
	}
	serr := e.Snapshot()
	if cerr := e.journal.Close(); cerr != nil && serr == nil {
		serr = cerr
	}
	return serr
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
	ds.Snapshots = e.snapCount.Load()
	ds.LastSnapshotSeg = e.lastSnapSeg.Load()
	ds.Recovered = e.recovered
	ds.RecoveredRecords = e.recInfo.records
	ds.RecoveredTruncatedBytes = e.recInfo.truncatedBytes
	ds.RecoveredDroppedSegments = e.recInfo.droppedSegments
	ds.RecoveredCorruptSnaps = e.recInfo.corruptSnaps
	ds.ReplayDivergence = e.divergence.Load()
	return ds
}
