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
// Non-atomicity across journals, documented: a quote whose own record
// fails to append declines its legs before the error surfaces, but a
// real crash between the engines journaling a trip's leg quotes and the
// relay quote record landing leaves the legs quoted in the engines.
// Nothing expires them; they hold no vehicle and leak nothing.
package relay

import (
	"encoding/json"
	"errors"
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
	ID     TripID
	OC, DC int // city indices
	O, D   roadnet.VertexID
	Riders int
	State  State
	Chosen int // committed option index; -1 before
	// Intent is the option index of an in-flight two-phase commit
	// (journaled before the legs book, cleared by the done or abort
	// record); -1 outside the window.
	Intent   int
	Gateways []Gateway
	// Leg1Recs[gi]/Leg2Recs[gi] hold gateway gi's two leg record ids
	// (city-local to OC and DC respectively).
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

// entry is one journal record in flight: encoded before the ledger
// lock, appended inside it by its transition, waited for after it. A
// nil entry (replay, durability off, an unjournaled transition)
// appends nothing.
type entry struct {
	s       *Scheduler
	payload []byte
	commit  wal.Commit
}

func (e *entry) append() error {
	if e == nil {
		return nil
	}
	c, err := e.s.journal.Append(e.payload)
	e.commit = c
	return err
}

// transition runs one ledger transition the way core.Engine.journaled
// runs a request's: rec (nil: none) is encoded first, the transition
// checks, appends and changes state in one critical section of the
// ledger lock, and the group commit is waited for after the unlock.
// Live callers hold tr.mu.
func (s *Scheduler) transition(rec *relayRecord, t func(*entry) error) error {
	var e *entry
	if rec != nil && s.journal != nil {
		payload, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("relay: journal encode: %w", err)
		}
		e = &entry{s: s, payload: payload}
	}
	s.led.mu.Lock()
	err := t(e)
	s.led.mu.Unlock()
	if err != nil || e == nil {
		return err
	}
	return e.commit.Wait()
}

// openDurability recovers the trip ledger from cfg.WALDir and opens
// the journal. Called from New after the gateway tables are built and
// before the scheduler is returned; the city engines are already
// recovered, which the compensation scan relies on.
func (s *Scheduler) openDurability(cfg Config) error {
	restore := func(payload []byte) error {
		var snap relaySnap
		if err := json.Unmarshal(payload, &snap); err != nil {
			return err
		}
		s.led.restore(&snap)
		return nil
	}
	j, err := wal.Open(cfg.WALDir, wal.Options{Mode: cfg.Durability},
		restore, s.replayRecord)
	if err != nil {
		return fmt.Errorf("relay: %w", err)
	}
	s.journal = j
	return s.compensateOpenIntents()
}

// replayRecord decodes one journaled trip operation and runs the
// transition the live path ran; recovery has no state logic of its
// own.
func (s *Scheduler) replayRecord(payload []byte) error {
	var r relayRecord
	if err := json.Unmarshal(payload, &r); err != nil {
		return err
	}
	l := s.led
	if r.Op == opQuote {
		if r.Quote == nil {
			return fmt.Errorf("quote record without a trip")
		}
		return l.quote(&trip{tripSnap: *r.Quote}, nil)
	}
	tr, err := l.get(r.ID)
	if err != nil {
		return err
	}
	switch r.Op {
	case opIntent:
		return l.intent(tr, r.Opt, nil)
	case opDone:
		return l.book(tr, nil)
	case opDecline:
		return l.decline(tr, nil)
	case opAbort:
		return l.abort(tr, nil)
	}
	return fmt.Errorf("unknown relay journal op %q", r.Op)
}

// compensateOpenIntents is the recovery half of the two-phase commit:
// a trip with a journaled intent and no done or abort record crashed
// inside the window (it is parked now, like a commit that met an
// unavailable engine) or was parked before the crash. Each is released
// as the Advance drain would, and one whose engine is still unreachable
// stays parked for the drain. The CrashMidCompensate point fires
// between trips; the scan is idempotent under re-recovery.
func (s *Scheduler) compensateOpenIntents() error {
	for _, tr := range s.led.trips {
		if tr.Intent < 0 {
			continue
		}
		if err := s.journal.Crash(wal.CrashMidCompensate); err != nil {
			return err
		}
		if tr.State == StateQuoted {
			_ = s.parkLocked(tr, errors.New("relay: commit window open at recovery"))
		}
		if err := s.releaseLocked(tr); err != nil {
			return err
		}
	}
	return nil
}

// Snapshot writes the trip ledger beside a rotated journal segment and
// prunes what the snapshot covers. It takes the ledger lock alone, so
// it never waits for a commit in flight.
func (s *Scheduler) Snapshot() error {
	if s.journal == nil {
		return nil
	}
	return s.journal.Snapshot(&s.led.mu, s.led.capture)
}

// Close snapshots the trip ledger and closes the journal (no-op when
// durability is off). A killed journal skips the snapshot — the disk
// keeps the crash state.
func (s *Scheduler) Close() error {
	if s.journal == nil {
		return nil
	}
	return s.journal.Close(&s.led.mu, s.led.capture)
}
