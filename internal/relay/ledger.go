// ledger.go is the relay's trip ledger: every trip's lifecycle record,
// the committed trips Advance walks, the parked trips the drain retries
// and the seven counters of the relay panel.
//
// Every transition is written once, here, with the request ledger's
// contract (core/ledger.go): it validates, then changes state, and a
// refused one changes nothing. The live paths (relay.go) make the
// remote calls and call a transition for the state change; recovery
// (durability.go) decodes a record and calls the same transition. No
// other file writes a trip's State, Chosen or Intent, a counter, or the
// active and pending sets.
//
// Locks: tr.mu → ledger mu, never the reverse, and no remote call under
// the ledger lock. A journaled transition appends its record inside the
// ledger's critical section (Scheduler.transition), so journal order is
// the ledger's order and Snapshot, which takes the ledger lock alone,
// covers every record before its rotation and none after. Writers hold
// both locks, so either one suffices to read a trip's lifecycle fields.
package relay

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"ptrider/internal/core"
	"ptrider/internal/roadnet"
)

// State is a relay trip's lifecycle stage.
type State int

// Relay trip states. Quoted..Completed is the forward path; Declined,
// Aborted and Failed are terminal exits (rider declined, two-phase
// commit aborted, a committed leg orphaned by a vehicle failure).
const (
	StateQuoted State = iota
	StateLeg1Committed
	StateInTransfer
	StateLeg2Active
	StateCompleted
	StateDeclined
	StateAborted
	StateFailed
)

var stateNames = [...]string{"quoted", "leg1-committed", "in-transfer", "leg2-active", "completed", "declined", "aborted", "failed"}

func (s State) String() string {
	if s >= 0 && int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// terminal reports whether the state ends the trip's lifecycle.
func (s State) terminal() bool {
	return s == StateCompleted || s == StateDeclined || s == StateAborted || s == StateFailed
}

// requestStatus maps the trip lifecycle onto the single-city request
// states every view already speaks: any committed-and-moving stage
// reads as assigned, the terminal failures as declined.
func (s State) requestStatus() core.RequestStatus {
	switch s {
	case StateQuoted:
		return core.StatusQuoted
	case StateCompleted:
		return core.StatusCompleted
	case StateDeclined, StateAborted, StateFailed:
		return core.StatusDeclined
	}
	return core.StatusAssigned
}

// trip is the ledger's live record of one relay trip: its serialisable
// state (the quote record's payload and the snapshot's entry) behind
// the trip's own lock.
type trip struct {
	mu sync.Mutex
	tripSnap
}

// newTrip starts a trip record for Quote to fill with its gateways,
// legs and options before the quote transition registers it.
func newTrip(id TripID, oc, dc int, o, d roadnet.VertexID, riders int) *trip {
	return &trip{tripSnap: tripSnap{ID: id, OC: oc, DC: dc, O: o, D: d, Riders: riders, State: StateQuoted, Chosen: -1, Intent: -1}}
}

// parked reports a trip aborted with its two-phase window still open:
// its compensation met an unavailable engine and waits for the drain.
func (tr *trip) parked() bool { return tr.State == StateAborted && tr.Intent >= 0 }

// committedLegs returns the committed legs' record ids; Chosen must be
// ≥ 0.
func (tr *trip) committedLegs() (leg1, leg2 core.RequestID) {
	gw := tr.Options[tr.Chosen].Gateway
	return tr.Leg1Recs[gw], tr.Leg2Recs[gw]
}

// quoted refuses unless the trip is quoted with no commit in flight —
// the only state a rider's choice or decline applies to.
func (tr *trip) quoted() error {
	if tr.State != StateQuoted {
		return fmt.Errorf("relay: trip %d is %v, not quoted", tr.ID, tr.State)
	}
	if tr.Intent >= 0 {
		return fmt.Errorf("relay: trip %d has a commit in flight", tr.ID)
	}
	return nil
}

// choosable reports why option opt cannot be committed: Choose checks it
// before probing the legs, and the intent transition again. Both legs of
// a booked trip are already committed — the relay flavour of the
// engine's double commit, typed the same way.
func (tr *trip) choosable(opt int) error {
	if err := tr.quoted(); err != nil {
		if tr.Chosen >= 0 {
			return fmt.Errorf("%w: %w", err, core.ErrAlreadyChosen)
		}
		return err
	}
	if opt < 0 || opt >= len(tr.Options) {
		return fmt.Errorf("relay: option index %d outside [0,%d)", opt, len(tr.Options))
	}
	return nil
}

// refuse is a transition's refusal from the trip's current state.
func (tr *trip) refuse(op string) error {
	return fmt.Errorf("relay: trip %d is %v (intent %d): cannot %s", tr.ID, tr.State, tr.Intent, op)
}

type ledger struct {
	mu     sync.Mutex
	trips  map[TripID]*trip
	active map[TripID]*trip // committed, non-terminal: Advance's worklist
	// pending holds the parked trips in park order. Parking is not
	// journaled — the open intent is what the journal keeps — so
	// restore derives the set, and recovery's intent scan resumes it.
	pending []*trip
	n       Stats // the counters; Active is len(active)
	// next is the highest trip id handed out; atomic because a quote
	// takes its id before the lock (its record carries the id).
	next atomic.Int64
}

func newLedger() *ledger {
	return &ledger{trips: make(map[TripID]*trip), active: make(map[TripID]*trip)}
}

// newID hands out the next trip id.
func (l *ledger) newID() TripID { return TripID(l.next.Add(1)) }

// get looks a trip up; unknown ids fail ErrNotFound.
func (l *ledger) get(id TripID) (*trip, error) {
	tr, ok := l.trips[id]
	if !ok {
		return nil, fmt.Errorf("relay: unknown trip %d: %w", id, core.ErrNotFound)
	}
	return tr, nil
}

// The transitions. Each takes the journal entry its live caller encoded
// (nil in replay, or with durability off) and appends it after its
// checks, before its change. book, abort and closeWindow record what
// already happened at the engines (legs booked, declined or released):
// they change state even when the append fails, and return its error —
// recovery then finds the window open and compensates. The others
// refuse on a failed append.

// quote registers a freshly quoted trip.
func (l *ledger) quote(tr *trip, e *entry) error {
	if _, dup := l.trips[tr.ID]; dup || tr.ID <= 0 {
		return fmt.Errorf("relay: trip %d: cannot quote: id in use", tr.ID)
	}
	if tr.State != StateQuoted || tr.Chosen != -1 || tr.Intent != -1 || len(tr.Gateways) == 0 ||
		len(tr.Leg1Recs) != len(tr.Gateways) || len(tr.Leg2Recs) != len(tr.Gateways) {
		return tr.refuse("quote")
	}
	for _, o := range tr.Options {
		if o.Gateway < 0 || o.Gateway >= len(tr.Gateways) {
			return tr.refuse(fmt.Sprintf("quote gateway %d", o.Gateway))
		}
	}
	if err := e.append(); err != nil {
		return err
	}
	l.trips[tr.ID] = tr
	l.n.Quoted++
	l.n.LegQuotes += int64(2 * len(tr.Gateways))
	// Live ids come from next; only a replayed quote can be ahead of it.
	if int64(tr.ID) > l.next.Load() {
		l.next.Store(int64(tr.ID))
	}
	return nil
}

// intent opens the two-phase window on option opt.
func (l *ledger) intent(tr *trip, opt int, e *entry) error {
	if err := tr.choosable(opt); err != nil {
		return err
	}
	if err := e.append(); err != nil {
		return err
	}
	tr.Intent = opt
	return nil
}

// book commits the intended option: both legs are booked. The trip
// starts at leg1-committed; Advance walks it forward from the leg
// records, live or recovered.
func (l *ledger) book(tr *trip, e *entry) error {
	if tr.State != StateQuoted || tr.Intent < 0 {
		return tr.refuse("book")
	}
	err := e.append()
	tr.State, tr.Chosen, tr.Intent = StateLeg1Committed, tr.Intent, -1
	l.n.Committed++
	l.active[tr.ID] = tr
	return err
}

// decline ends a quoted trip the rider took none of the options of.
func (l *ledger) decline(tr *trip, e *entry) error {
	if err := tr.quoted(); err != nil {
		return err
	}
	if err := e.append(); err != nil {
		return err
	}
	tr.State = StateDeclined
	l.n.Declined++
	return nil
}

// abort ends a two-phase attempt aborted with its window closed — what
// the journal's abort record says. A quoted trip, window open or not,
// is counted aborted; a parked one was counted when it parked, so its
// abort only closes the window.
func (l *ledger) abort(tr *trip, e *entry) error {
	if tr.parked() {
		return l.closeWindow(tr, e)
	}
	if tr.State != StateQuoted {
		return tr.refuse("abort")
	}
	err := e.append()
	tr.State, tr.Intent = StateAborted, -1
	l.n.Aborted++
	return err
}

// park aborts a trip whose commit met an unavailable engine but keeps
// its window open: the legs may still hold a reservation, which the
// drain (or recovery's scan) releases before closeWindow.
func (l *ledger) park(tr *trip) error {
	if tr.State != StateQuoted || tr.Intent < 0 {
		return tr.refuse("park")
	}
	tr.State = StateAborted
	l.n.Aborted++
	l.pending = append(l.pending, tr)
	return nil
}

// closeWindow ends a parked trip's window once its legs are released.
func (l *ledger) closeWindow(tr *trip, e *entry) error {
	if !tr.parked() {
		return tr.refuse("close its window")
	}
	err := e.append()
	tr.Intent = -1
	l.pending = slices.DeleteFunc(l.pending, func(p *trip) bool { return p == tr })
	return err
}

// progress moves a committed trip forward to next, as observed on its
// leg records; a completed trip leaves the worklist.
func (l *ledger) progress(tr *trip, next State) error {
	if tr.Chosen < 0 || tr.State.terminal() || next <= tr.State || next > StateCompleted {
		return tr.refuse(fmt.Sprintf("progress to %v", next))
	}
	tr.State = next
	if next == StateCompleted {
		l.n.Completed++
		delete(l.active, tr.ID)
	}
	return nil
}

// fail ends a committed trip one of whose legs a vehicle failure
// orphaned (the surviving leg is already released).
func (l *ledger) fail(tr *trip) error {
	if tr.Chosen < 0 || tr.State.terminal() {
		return tr.refuse("fail")
	}
	tr.State = StateFailed
	l.n.Failed++
	delete(l.active, tr.ID)
	return nil
}

// stats reads the counters.
func (l *ledger) stats() Stats {
	st := l.n
	st.Active = int64(len(l.active))
	return st
}

// capture is the snapshot of the whole ledger, a relaySnap; restore
// rebuilds a fresh ledger from one (active and pending are derived
// from the trips). The caller holds mu.
func (l *ledger) capture() any {
	snap := relaySnap{
		NextID: l.next.Load(), Quoted: l.n.Quoted, LegQuotes: l.n.LegQuotes,
		Committed: l.n.Committed, Aborted: l.n.Aborted, Declined: l.n.Declined,
		Completed: l.n.Completed, Failed: l.n.Failed,
		Trips: make([]tripSnap, 0, len(l.trips)),
	}
	for _, tr := range l.trips {
		snap.Trips = append(snap.Trips, tr.tripSnap)
	}
	return snap
}

func (l *ledger) restore(snap *relaySnap) {
	l.next.Store(snap.NextID)
	l.n = Stats{
		Quoted: snap.Quoted, LegQuotes: snap.LegQuotes, Committed: snap.Committed,
		Aborted: snap.Aborted, Declined: snap.Declined, Completed: snap.Completed, Failed: snap.Failed,
	}
	for _, ts := range snap.Trips {
		tr := &trip{tripSnap: ts}
		l.trips[tr.ID] = tr
		if tr.Chosen >= 0 && !tr.State.terminal() {
			l.active[tr.ID] = tr
		}
		if tr.parked() {
			l.pending = append(l.pending, tr)
		}
	}
}
