// durability.go makes the relay trip ledger crash-safe. The scheduler
// keeps its own wal.Journal next to the city engines' journals; trip
// records reference the leg requests by id, and those legs live in the
// engines' durable ledgers, so the relay journal only has to persist
// the coordination state — which trips exist, and where each one is in
// the two-phase commit.
//
// The two-phase commit window is the interesting part. Choose journals
// an *intent* record before booking the legs and a *done* record after
// both leg commits landed. A crash inside the window leaves an intent
// without a done: the origin engine may hold a journaled leg-1
// reservation that no live trip will ever advance — a leaked vehicle.
// Recovery therefore scans for open intents and compensates each one:
// any leg the recovered engines still show assigned is cancelled
// (checked by status first, so a leg whose commit never reached its
// engine's journal is a no-op) and the trip is aborted. Compensation
// is idempotent — a crash mid-compensate (the CrashMidCompensate
// point) re-runs the same scan on the next recovery.
//
// Non-atomicity across journals, documented: a crash after the city
// engines journaled a trip's leg quotes but before the relay quote
// record landed leaves the legs as unclaimed quoted records in the
// engines. They hold no vehicle and expire into declines harmlessly;
// nothing leaks.
package relay

import (
	"encoding/json"
	"fmt"

	"ptrider/internal/core"
	"ptrider/internal/roadnet"
	"ptrider/internal/wal"
)

// Relay journal operation tags.
const (
	opQuote   = "quote"
	opIntent  = "intent"
	opDone    = "done"
	opDecline = "decline"
	opAbort   = "abort"
)

// relayRecord is the envelope of one journaled trip operation.
type relayRecord struct {
	Op    string    `json:"op"`
	Quote *tripSnap `json:"quote,omitempty"`
	ID    TripID    `json:"id,omitempty"`
	Opt   int       `json:"opt,omitempty"` // intent's option index
}

// tripSnap is the serialisable state of one trip — the quote record's
// payload and the snapshot's per-trip entry.
type tripSnap struct {
	ID       TripID
	OC, DC   int
	O, D     roadnet.VertexID
	Riders   int
	State    State
	Chosen   int
	Intent   int // pending two-phase option index; -1 outside the window
	Gateways []Gateway
	Leg1Recs []core.RequestID
	Leg2Recs []core.RequestID
	Options  []Option
}

// relaySnap is the snapshot payload: the whole trip ledger plus the
// counters the stats panel reports.
type relaySnap struct {
	NextID    int64
	Trips     []tripSnap
	Quoted    int64
	LegQuotes int64
	Committed int64
	Aborted   int64
	Declined  int64
	Completed int64
	Failed    int64
}

func (tr *trip) snapLocked() tripSnap {
	return tripSnap{
		ID: tr.id, OC: tr.oc, DC: tr.dc, O: tr.o, D: tr.d,
		Riders: tr.riders, State: tr.state, Chosen: tr.chosen,
		Intent:   tr.intent,
		Gateways: tr.gateways,
		Leg1Recs: tr.leg1Recs, Leg2Recs: tr.leg2Recs,
		Options: tr.options,
	}
}

func tripFromSnap(ts *tripSnap) *trip {
	return &trip{
		id: ts.ID, oc: ts.OC, dc: ts.DC, o: ts.O, d: ts.D,
		riders: ts.Riders, state: ts.State, chosen: ts.Chosen,
		intent:   ts.Intent,
		gateways: ts.Gateways,
		leg1Recs: ts.Leg1Recs, leg2Recs: ts.Leg2Recs,
		options: ts.Options,
	}
}

// append journals one trip record; sync-mode waits ride on the group
// commit like the engine's. Callers must not hold s.mu.
func (s *Scheduler) append(rec *relayRecord) error {
	if s.journal == nil {
		return nil
	}
	if s.inj.Fire(wal.CrashPreAppend) {
		s.journal.Kill()
		return wal.ErrCrashed
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("relay: journal encode: %w", err)
	}
	c, err := s.journal.Append(payload)
	if err != nil {
		return err
	}
	if s.inj.Fire(wal.CrashPostAppend) {
		s.journal.Kill()
		return wal.ErrCrashed
	}
	return c.Wait()
}

// openDurability recovers the trip ledger from cfg.WALDir and opens
// the journal. Called from New after the gateway tables are built and
// before the scheduler is returned; the city engines are already
// recovered, which the compensation scan relies on.
func (s *Scheduler) openDurability(cfg Config) error {
	s.inj = cfg.FaultInjector
	s.walDir = cfg.WALDir
	rec, err := wal.Recover(cfg.WALDir)
	if err != nil {
		return err
	}
	if rec.Snapshot != nil {
		var snap relaySnap
		if err := json.Unmarshal(rec.Snapshot, &snap); err != nil {
			return fmt.Errorf("relay: snapshot %d: %w", rec.SnapshotSeg, err)
		}
		s.applySnapshot(&snap)
	}
	for i, payload := range rec.Records {
		if err := s.replayRecord(payload); err != nil {
			return fmt.Errorf("relay: replay record %d/%d: %w", i+1, len(rec.Records), err)
		}
	}
	j, err := wal.Open(cfg.WALDir, rec.NextSeg, wal.Options{Mode: cfg.Durability, Injector: cfg.FaultInjector})
	if err != nil {
		return err
	}
	s.journal = j
	return s.compensateOpenIntents()
}

func (s *Scheduler) applySnapshot(snap *relaySnap) {
	s.nextID.Store(snap.NextID)
	s.quoted.Store(snap.Quoted)
	s.legQuotes.Store(snap.LegQuotes)
	s.committed.Store(snap.Committed)
	s.aborted.Store(snap.Aborted)
	s.declined.Store(snap.Declined)
	s.completed.Store(snap.Completed)
	s.failed.Store(snap.Failed)
	for i := range snap.Trips {
		tr := tripFromSnap(&snap.Trips[i])
		s.trips[tr.id] = tr
		if tr.chosen >= 0 && !tr.state.terminal() {
			s.active[tr.id] = tr
		}
	}
}

// replayRecord re-applies one journaled trip operation through the
// mark function the live path ran; recovery has no state logic of its
// own.
func (s *Scheduler) replayRecord(payload []byte) error {
	var r relayRecord
	if err := json.Unmarshal(payload, &r); err != nil {
		return err
	}
	if r.Op == opQuote {
		tr := tripFromSnap(r.Quote)
		s.markQuoted(tr)
		if int64(tr.id) > s.nextID.Load() {
			s.nextID.Store(int64(tr.id))
		}
		return nil
	}
	tr := s.trips[r.ID]
	if tr == nil {
		return fmt.Errorf("%s for unknown trip %d", r.Op, r.ID)
	}
	switch r.Op {
	case opIntent:
		markIntent(tr, r.Opt)
	case opDone:
		// Restored at leg1-committed; the first Advance after recovery
		// walks the state machine forward from the recovered leg
		// records (transitions are monotonic, so an already-completed
		// trip just completes again).
		s.markDone(tr)
	case opDecline:
		s.markDeclined(tr)
	case opAbort:
		s.markAborted(tr)
		markIntent(tr, -1)
	default:
		return fmt.Errorf("unknown relay journal op %q", r.Op)
	}
	return nil
}

// compensateOpenIntents is the recovery half of the two-phase commit:
// every trip with a journaled intent and no done or abort record is
// inside the commit window — crashed there, or parked by a deferred
// compensation (already aborted; the pending queue is not persisted,
// so this scan is what resumes it). Whatever leg reservations reached
// the engines' journals are released (status-checked, so a leg that
// never committed is a no-op) and the trip is aborted. The
// CrashMidCompensate point fires between trips; the whole scan is
// idempotent under re-recovery.
func (s *Scheduler) compensateOpenIntents() error {
	var open []*trip
	for _, tr := range s.trips {
		if tr.intent >= 0 {
			open = append(open, tr)
		}
	}
	for _, tr := range open {
		if s.inj.Fire(wal.CrashMidCompensate) {
			s.journal.Kill()
			return wal.ErrCrashed
		}
		tr.mu.Lock()
		done, cerr := s.compensateTripLocked(tr)
		if !done {
			// An engine is unreachable (a sibling shard still
			// restarting): keep the intent open and let the Advance
			// drain finish the release once it answers. Recovery
			// itself stays idempotent — a crash before the drain
			// re-runs this same scan.
			s.deferCompensationLocked(tr)
			tr.mu.Unlock()
			continue
		}
		if cerr != nil {
			tr.mu.Unlock()
			return cerr
		}
		s.abortLocked(tr)
		tr.mu.Unlock()
		if err := s.append(&relayRecord{Op: opAbort, ID: tr.id}); err != nil {
			return err
		}
	}
	return nil
}

// Kill simulates a process crash of the relay shard (see
// core.Engine.Kill). No-op when durability is off.
func (s *Scheduler) Kill() {
	if s.journal != nil {
		s.journal.Kill()
	}
}

// Snapshot writes the trip ledger beside a rotated journal segment and
// prunes what the snapshot covers.
func (s *Scheduler) Snapshot() error {
	if s.journal == nil {
		return nil
	}
	s.mu.Lock()
	seg, err := s.journal.Rotate()
	if err != nil {
		s.mu.Unlock()
		return err
	}
	snap := relaySnap{
		NextID:    s.nextID.Load(),
		Quoted:    s.quoted.Load(),
		LegQuotes: s.legQuotes.Load(),
		Committed: s.committed.Load(),
		Aborted:   s.aborted.Load(),
		Declined:  s.declined.Load(),
		Completed: s.completed.Load(),
		Failed:    s.failed.Load(),
	}
	for _, tr := range s.trips {
		tr.mu.Lock()
		snap.Trips = append(snap.Trips, tr.snapLocked())
		tr.mu.Unlock()
	}
	s.mu.Unlock()
	payload, err := json.Marshal(&snap)
	if err != nil {
		return fmt.Errorf("relay: snapshot encode: %w", err)
	}
	if err := wal.WriteSnapshot(s.walDir, seg, payload, s.inj); err != nil {
		return err
	}
	wal.PruneBefore(s.walDir, seg)
	return nil
}

// Close snapshots the trip ledger and closes the journal (no-op when
// durability is off). A killed journal skips the snapshot — the disk
// keeps the crash state.
func (s *Scheduler) Close() error {
	if s.journal == nil {
		return nil
	}
	var serr error
	if !s.journal.Dead() {
		serr = s.Snapshot()
	}
	if cerr := s.journal.Close(); cerr != nil && serr == nil {
		serr = cerr
	}
	return serr
}
