// ledger.go is the request ledger: every request's lifecycle record,
// the index of riders each vehicle has yet to drop off, the lifecycle
// counters of the statistics panel (Fig. 4c) and the idempotency keys.
// A record stays in the hot map while its rider can still act on it and
// moves to the compact archive (archive.go) when it is declined or
// completed.
//
// Every transition is written once, here. A live path (engine.go) runs
// validate → fleet action → journal append → transition in one critical
// section of mu — append first, so journal order is the ledger's
// linearisation — and recovery (durability.go) decodes a record, makes
// the fleet-side restore call and runs the same transition. No other
// file writes a record's lifecycle fields, the indexes or a counter.
// No method locks: the caller holds mu.
package core

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"

	"ptrider/internal/fleet"
	"ptrider/internal/kinetic"
	"ptrider/internal/roadnet"
)

// RequestID identifies a request across the engine (it doubles as the
// kinetic request id).
type RequestID = kinetic.RequestID

// RequestStatus is a request's lifecycle state.
type RequestStatus int

// Request lifecycle states.
const (
	StatusQuoted RequestStatus = iota
	StatusAssigned
	StatusOnboard
	StatusCompleted
	StatusDeclined
)

func (s RequestStatus) String() string {
	switch s {
	case StatusQuoted:
		return "quoted"
	case StatusAssigned:
		return "assigned"
	case StatusOnboard:
		return "onboard"
	case StatusCompleted:
		return "completed"
	case StatusDeclined:
		return "declined"
	}
	return fmt.Sprintf("RequestStatus(%d)", int(s))
}

// RequestRecord is the engine's view of a request's lifecycle, exposed
// for statistics and the website interface. Methods returning a record
// return a snapshot copy; the ledger's live records stay behind its
// lock.
type RequestRecord struct {
	ID     RequestID
	S, D   roadnet.VertexID
	Riders int
	Status RequestStatus

	// WaitSeconds and Sigma are the constraints this request was quoted
	// under (the globals, unless the rider overrode them).
	WaitSeconds float64
	Sigma       float64

	Options []Option // the quoted skyline
	Chosen  int      // index into Options once assigned; -1 before

	Vehicle          fleet.VehicleID
	Price            float64
	PlannedPickupOdo float64 // vehicle odometer promised for pickup
	PickupOdo        float64
	DropoffOdo       float64
	SD               float64 // direct distance dist(s,d)
	Shared           bool    // overlapped onboard with another request
	SubmitClock      float64 // engine clock at submission (seconds)

	// Quote-time fare context (see pricing.FareContext): the effective
	// ratio every price of this request used, plus its surge
	// provenance. FareRatio is authoritative for repricing — a
	// CommitSlack re-probe at choice time must price under the quoted
	// multiplier, not whatever the tracker says now. Zero FareRatio
	// (a record recovered from a pre-pipeline snapshot) falls back to
	// the static model.
	FareRatio  float64 // effective ratio f_n × multiplier
	SurgeMult  float64 // surge multiplier at quote time (1 = unsurged)
	SurgeCell  int32   // origin cell the multiplier was read from (-1 = none)
	SurgeEpoch uint64  // surge epoch the multiplier was read at
}

// lifecycleCounts are the panel's ledger-derived counters. An orphaned
// assignment (vehicle failure) stays counted as assigned.
type lifecycleCounts struct {
	assigned, declined, completed, shared int64
}

type ledger struct {
	mu sync.Mutex
	// reqs holds the live records — quoted, assigned and onboard — and
	// arch the finished ones (see retire). A record is in exactly one.
	reqs  map[RequestID]*RequestRecord
	arch  archive
	byVeh map[fleet.VehicleID]map[RequestID]bool // assigned, not yet dropped
	// top is the highest installed id. Ids come from one counter, so
	// walking 1..top visits the records id ascending (a gap is a quote
	// that never registered).
	top RequestID
	n   lifecycleCounts
	// surged counts quotes priced under a non-unit multiplier; atomic
	// because the surge panel reads it without the lock.
	surged atomic.Int64
	idem   *idemLRU
}

func newLedger() *ledger {
	return &ledger{
		reqs:  make(map[RequestID]*RequestRecord),
		byVeh: make(map[fleet.VehicleID]map[RequestID]bool),
		idem:  newIdemLRU(idemCapacity),
	}
}

// newQuotedRecord builds a quote's record from its journal form — the
// live submit fills one too, so a replayed record cannot differ. Pure:
// the live path calls it before locking.
func newQuotedRecord(s *submitRec) *RequestRecord {
	return &RequestRecord{
		ID: s.ID, S: s.S, D: s.D, Riders: s.Riders,
		WaitSeconds: s.Wait, Sigma: s.Sigma,
		Status: StatusQuoted, Options: s.Options, Chosen: -1,
		SD: s.SD, SubmitClock: s.Clock,
		FareRatio: s.FareRatio, SurgeMult: s.SurgeMult,
		SurgeCell: s.SurgeCell, SurgeEpoch: s.SurgeEpoch,
	}
}

// install lands a quoted record under its idempotency key, if any.
func (l *ledger) install(rec *RequestRecord, idemKey string) {
	l.reqs[rec.ID] = rec
	if rec.ID > l.top {
		l.top = rec.ID
	}
	// Zero SurgeMult is a pre-pipeline record, not a surge.
	if rec.SurgeMult != 1 && rec.SurgeMult != 0 {
		l.surged.Add(1)
	}
	if idemKey != "" {
		l.idem.put(idemKey, rec.ID)
	}
}

// retire moves a finished record from reqs into the archive. It copies
// out of rec.Options and never writes into them: Submit and Request
// hand out copies that share that backing array.
func (l *ledger) retire(rec *RequestRecord) {
	l.arch.put(rec)
	delete(l.reqs, rec.ID)
}

// keyed returns a copy of the record an idempotency key registered.
func (l *ledger) keyed(idemKey string) (RequestRecord, bool) {
	if id, hit := l.idem.get(idemKey); hit {
		return *l.lookup(id), true
	}
	return RequestRecord{}, false
}

// lookup returns request id's live record, a rebuilt copy of its
// archived one, or nil.
func (l *ledger) lookup(id RequestID) *RequestRecord {
	if rec := l.reqs[id]; rec != nil {
		return rec
	}
	return l.arch.get(id)
}

// get is lookup failing ErrNotFound on unknown ids. Only a live record
// can pass a transition's state check, so no write lands on a copy.
func (l *ledger) get(id RequestID) (*RequestRecord, error) {
	rec := l.lookup(id)
	if rec == nil {
		return nil, fmt.Errorf("core: unknown request %d: %w", id, ErrNotFound)
	}
	return rec, nil
}

// in is get, failing unless the record is in state want (the record
// comes back with the wrong-state error).
func (l *ledger) in(id RequestID, want RequestStatus) (*RequestRecord, error) {
	rec, err := l.get(id)
	if err != nil {
		return nil, err
	}
	if rec.Status != want {
		return rec, fmt.Errorf("core: request %d is %v, not %v", id, rec.Status, want)
	}
	return rec, nil
}

// choosable is in(id, StatusQuoted) for a choice: a committed request
// cannot be committed again — the double-submit a client retry
// produces — and that refusal is typed so transports answer 409.
func (l *ledger) choosable(id RequestID) (*RequestRecord, error) {
	rec, err := l.in(id, StatusQuoted)
	if err != nil && rec != nil && rec.Status != StatusDeclined {
		err = fmt.Errorf("%w: %w", err, ErrAlreadyChosen)
	}
	return rec, err
}

// assign commits a quoted record to the vehicle its choice booked.
func (l *ledger) assign(c *chooseRec) error {
	rec, err := l.choosable(c.ID)
	if err != nil {
		return err
	}
	rec.Status = StatusAssigned
	rec.Chosen = c.OptionIndex
	rec.Vehicle = c.Vehicle
	rec.Price = c.Price
	rec.PlannedPickupOdo = c.PlannedPickupOdo
	l.carry(rec)
	l.n.assigned++
	return nil
}

// carry indexes a record under the vehicle it is assigned to.
func (l *ledger) carry(rec *RequestRecord) {
	if l.byVeh[rec.Vehicle] == nil {
		l.byVeh[rec.Vehicle] = make(map[RequestID]bool)
	}
	l.byVeh[rec.Vehicle][rec.ID] = true
}

// decline ends a quoted record: the rider took none of the options.
func (l *ledger) decline(id RequestID) error {
	rec, err := l.in(id, StatusQuoted)
	if err != nil {
		return err
	}
	rec.Status = StatusDeclined
	l.n.declined++
	l.retire(rec)
	return nil
}

// release ends an assigned record whose rider has not boarded (the
// fleet dropped the reservation): it reads declined, like a decline.
func (l *ledger) release(id RequestID) error {
	rec, err := l.in(id, StatusAssigned)
	if err != nil {
		return err
	}
	rec.Status = StatusDeclined
	delete(l.byVeh[rec.Vehicle], id)
	l.n.assigned--
	l.n.declined++
	l.retire(rec)
	return nil
}

// orphan declines the riders a removed vehicle held, waiting or
// onboard, and returns their ids in the fleet's order.
func (l *ledger) orphan(veh fleet.VehicleID, riders []kinetic.Request) []RequestID {
	out := make([]RequestID, 0, len(riders))
	for _, r := range riders {
		out = append(out, r.ID)
		if rec := l.reqs[r.ID]; rec != nil {
			rec.Status = StatusDeclined
			delete(l.byVeh[veh], r.ID)
			l.retire(rec)
		}
	}
	return out
}

// fold applies one movement event and returns what the panel observes:
// the metres a pickup ran past its promised odometer, a dropoff's
// in-vehicle distance over the direct one. ok is false when there is
// nothing to observe — as for a record that left the expected state
// (orphaned between the fleet step and this fold, say): the movement
// happened, but a finished lifecycle is not resurrected.
func (l *ledger) fold(ev fleet.Event) (observed float64, ok bool) {
	rec := l.reqs[ev.Request]
	switch {
	case rec == nil:
	case ev.Kind == fleet.EventPickup && rec.Status == StatusAssigned:
		rec.Status = StatusOnboard
		rec.PickupOdo = ev.Odo
		// Sharing: this rider overlaps with every other request of the
		// vehicle that is onboard now.
		for other := range l.byVeh[ev.Vehicle] {
			if o := l.reqs[other]; other != ev.Request && o != nil && o.Status == StatusOnboard {
				o.Shared = true
				rec.Shared = true
			}
		}
		return max(ev.Odo-rec.PlannedPickupOdo, 0), true
	case ev.Kind == fleet.EventDropoff && rec.Status == StatusOnboard:
		rec.Status = StatusCompleted
		rec.DropoffOdo = ev.Odo
		if rec.Shared {
			l.n.shared++
		}
		l.n.completed++
		delete(l.byVeh[ev.Vehicle], ev.Request)
		l.retire(rec)
		return (ev.Odo - rec.PickupOdo) / rec.SD, rec.SD > 0
	}
	return 0, false
}

// list visits up to limit records (limit ≤ 0: all) matching filter, id
// ascending. The visitor sees the live record or an archived one's
// rebuilt copy: copy, do not keep. An archived record the filter skips
// is not rebuilt.
func (l *ledger) list(filter RequestFilter, limit int, visit func(*RequestRecord)) {
	if limit <= 0 {
		limit = len(l.reqs) + l.arch.n
	}
	for id := RequestID(1); id <= l.top && limit > 0; id++ {
		rec := l.reqs[id]
		if rec == nil {
			r := l.arch.slot(id)
			if r == nil || (filter.HasStatus && RequestStatus(r.status) != filter.Status) {
				continue
			}
			rec = l.arch.get(id)
		} else if filter.HasStatus && rec.Status != filter.Status {
			continue
		}
		visit(rec)
		limit--
	}
}

// capture fills the ledger half of a snapshot; restore rebuilds a fresh
// ledger from one (byVeh, top and the surged count are derived from the
// records). Finished records come back archived.
func (l *ledger) capture(s *engSnap) {
	s.Assigned, s.Declined, s.Completed, s.Shared = l.n.assigned, l.n.declined, l.n.completed, l.n.shared
	s.Reqs = make([]RequestRecord, 0, len(l.reqs)+l.arch.n)
	l.list(RequestFilter{}, 0, func(rec *RequestRecord) { s.Reqs = append(s.Reqs, *rec) })
	s.Idem = l.idem.entries()
}

func (l *ledger) restore(s *engSnap) {
	l.n = lifecycleCounts{assigned: s.Assigned, declined: s.Declined, completed: s.Completed, shared: s.Shared}
	for i := range s.Reqs {
		rec := s.Reqs[i]
		l.install(&rec, "")
		switch rec.Status {
		case StatusAssigned, StatusOnboard:
			l.carry(&rec)
		case StatusDeclined, StatusCompleted:
			l.retire(&rec)
		}
	}
	for _, en := range s.Idem {
		l.idem.put(en.Key, en.ID)
	}
}

// idemCapacity bounds the idempotency-key LRU.
const idemCapacity = 4096

// idemEntry is one idempotency mapping, serialised oldest→newest in
// snapshots.
type idemEntry struct {
	Key string    `json:"k"`
	ID  RequestID `json:"id"`
}

// idemLRU maps Idempotency-Key values to the request they registered,
// bounded LRU.
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
