package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime/debug"
	"sort"
	"testing"

	"ptrider/internal/fleet"
	"ptrider/internal/kinetic"
	"ptrider/internal/testnet"
)

// Ledger fixture: one record per state. Vehicle 7 carries riders 2
// (waiting) and 3 (onboard); 6 was orphaned when vehicle 8 failed.
const (
	idQuoted RequestID = iota + 1
	idAssigned
	idOnboard
	idDeclined
	idCompleted
	idOrphaned
	idUnknown
)

func fixtureLedger(t *testing.T) *ledger {
	t.Helper()
	l := newLedger()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("fixture: %v", err)
		}
	}
	for id := idQuoted; id < idUnknown; id++ {
		l.install(newQuotedRecord(&submitRec{ID: id, SD: 100, SurgeMult: 1}), "")
	}
	for _, c := range []chooseRec{
		{ID: idAssigned, Vehicle: 7, PlannedPickupOdo: 50},
		{ID: idOnboard, Vehicle: 7, PlannedPickupOdo: 10},
		{ID: idCompleted, Vehicle: 9, PlannedPickupOdo: 10},
		{ID: idOrphaned, Vehicle: 8},
	} {
		must(l.assign(&c))
	}
	must(l.decline(idDeclined))
	l.fold(fleet.Event{Kind: fleet.EventPickup, Vehicle: 7, Request: idOnboard, Odo: 10})
	l.fold(fleet.Event{Kind: fleet.EventPickup, Vehicle: 9, Request: idCompleted, Odo: 10})
	l.fold(fleet.Event{Kind: fleet.EventDropoff, Vehicle: 9, Request: idCompleted, Odo: 130})
	l.orphan(8, []kinetic.Request{{ID: idOrphaned}})
	return l
}

// ledgerState is everything a refused transition must leave alone.
type ledgerState struct {
	n      lifecycleCounts
	byVeh  map[fleet.VehicleID][]RequestID
	status map[RequestID]RequestStatus
}

func stateOf(l *ledger) ledgerState {
	st := ledgerState{n: l.n, byVeh: map[fleet.VehicleID][]RequestID{}, status: map[RequestID]RequestStatus{}}
	l.list(RequestFilter{}, 0, func(rec *RequestRecord) { st.status[rec.ID] = rec.Status })
	for veh, riders := range l.byVeh {
		for id := range riders {
			st.byVeh[veh] = append(st.byVeh[veh], id)
		}
		sort.Slice(st.byVeh[veh], func(i, j int) bool { return st.byVeh[veh][i] < st.byVeh[veh][j] })
	}
	return st
}

func TestLedgerTransitions(t *testing.T) {
	base := stateOf(fixtureLedger(t))
	want := ledgerState{
		n: lifecycleCounts{assigned: 4, declined: 1, completed: 1},
		byVeh: map[fleet.VehicleID][]RequestID{
			7: {idAssigned, idOnboard},
		},
		status: map[RequestID]RequestStatus{
			idQuoted: StatusQuoted, idAssigned: StatusAssigned, idOnboard: StatusOnboard,
			idDeclined: StatusDeclined, idCompleted: StatusCompleted, idOrphaned: StatusDeclined,
		},
	}
	if !reflect.DeepEqual(base, want) {
		t.Fatalf("fixture state:\n got %+v\nwant %+v", base, want)
	}

	event := func(kind fleet.EventKind) func(fleet.VehicleID, RequestID, float64) func(*ledger) error {
		return func(veh fleet.VehicleID, id RequestID, odo float64) func(*ledger) error {
			return func(l *ledger) error {
				if _, ok := l.fold(fleet.Event{Kind: kind, Vehicle: veh, Request: id, Odo: odo}); !ok {
					return errIgnored
				}
				return nil
			}
		}
	}
	pickup, dropoff := event(fleet.EventPickup), event(fleet.EventDropoff)
	assign := func(id RequestID) func(*ledger) error {
		return func(l *ledger) error {
			return l.assign(&chooseRec{ID: id, OptionIndex: 2, Vehicle: 7, Price: 3.5, PlannedPickupOdo: 40})
		}
	}
	decline := func(id RequestID) func(*ledger) error { return func(l *ledger) error { return l.decline(id) } }
	release := func(id RequestID) func(*ledger) error { return func(l *ledger) error { return l.release(id) } }

	for _, tc := range []struct {
		name string
		op   func(*ledger) error
		// refuse is nil for a legal transition, else the error class:
		// a sentinel, errPlain (an error wrapping neither sentinel) or
		// errIgnored (an event folded to nothing).
		refuse error
		// For a legal transition: the record it moves, where to, and the
		// counter and index changes.
		id     RequestID
		to     RequestStatus
		delta  lifecycleCounts
		onVeh7 []RequestID
	}{
		{name: "choose quoted", op: assign(idQuoted), id: idQuoted, to: StatusAssigned,
			delta: lifecycleCounts{assigned: 1}, onVeh7: []RequestID{idQuoted, idAssigned, idOnboard}},
		{name: "decline quoted", op: decline(idQuoted), id: idQuoted, to: StatusDeclined,
			delta: lifecycleCounts{declined: 1}, onVeh7: []RequestID{idAssigned, idOnboard}},
		{name: "release assigned", op: release(idAssigned), id: idAssigned, to: StatusDeclined,
			delta: lifecycleCounts{assigned: -1, declined: 1}, onVeh7: []RequestID{idOnboard}},
		{name: "pickup assigned", op: pickup(7, idAssigned, 60), id: idAssigned, to: StatusOnboard,
			onVeh7: []RequestID{idAssigned, idOnboard}},
		{name: "dropoff onboard", op: dropoff(7, idOnboard, 150), id: idOnboard, to: StatusCompleted,
			delta: lifecycleCounts{completed: 1}, onVeh7: []RequestID{idAssigned}},
		{name: "orphan a vehicle's riders", op: func(l *ledger) error {
			got := l.orphan(7, []kinetic.Request{{ID: idOnboard}, {ID: idAssigned}})
			if !reflect.DeepEqual(got, []RequestID{idOnboard, idAssigned}) {
				return fmt.Errorf("orphan returned %v, want the fleet's order", got)
			}
			if rec, err := l.get(idOnboard); err != nil || rec.Status != StatusDeclined {
				return fmt.Errorf("orphaned onboard rider: %+v, %v", rec, err)
			}
			return nil
		}, id: idAssigned, to: StatusDeclined},

		{name: "choose declined", op: assign(idDeclined), refuse: errPlain},
		{name: "choose assigned", op: assign(idAssigned), refuse: ErrAlreadyChosen},
		{name: "choose onboard", op: assign(idOnboard), refuse: ErrAlreadyChosen},
		{name: "choose completed", op: assign(idCompleted), refuse: ErrAlreadyChosen},
		{name: "decline assigned", op: decline(idAssigned), refuse: errPlain},
		{name: "release quoted", op: release(idQuoted), refuse: errPlain},
		{name: "release onboard", op: release(idOnboard), refuse: errPlain},
		{name: "pickup orphaned", op: pickup(8, idOrphaned, 5), refuse: errIgnored},
		{name: "pickup quoted", op: pickup(7, idQuoted, 5), refuse: errIgnored},
		{name: "dropoff assigned", op: dropoff(7, idAssigned, 5), refuse: errIgnored},
		{name: "dropoff completed", op: dropoff(9, idCompleted, 5), refuse: errIgnored},
		{name: "choose unknown", op: assign(idUnknown), refuse: ErrNotFound},
		{name: "decline unknown", op: decline(idUnknown), refuse: ErrNotFound},
		{name: "release unknown", op: release(idUnknown), refuse: ErrNotFound},
		{name: "pickup unknown", op: pickup(7, idUnknown, 5), refuse: errIgnored},
		{name: "dropoff unknown", op: dropoff(7, idUnknown, 5), refuse: errIgnored},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := fixtureLedger(t)
			err := tc.op(l)
			got := stateOf(l)
			if tc.refuse != nil {
				plain := err != nil && err != errIgnored && !errors.Is(err, ErrNotFound) && !errors.Is(err, ErrAlreadyChosen)
				if !errors.Is(err, tc.refuse) && !(tc.refuse == errPlain && plain) {
					t.Fatalf("error %v, want class %v", err, tc.refuse)
				}
				if !reflect.DeepEqual(got, base) {
					t.Fatalf("refused transition moved state:\n got %+v\nwant %+v", got, base)
				}
				return
			}
			if err != nil {
				t.Fatalf("legal transition refused: %v", err)
			}
			if got.status[tc.id] != tc.to {
				t.Fatalf("record %d is %v, want %v", tc.id, got.status[tc.id], tc.to)
			}
			wantN := lifecycleCounts{
				assigned:  base.n.assigned + tc.delta.assigned,
				declined:  base.n.declined + tc.delta.declined,
				completed: base.n.completed + tc.delta.completed,
				shared:    base.n.shared + tc.delta.shared,
			}
			if got.n != wantN {
				t.Fatalf("counters %+v, want %+v", got.n, wantN)
			}
			if !reflect.DeepEqual(got.byVeh[7], tc.onVeh7) {
				t.Fatalf("vehicle 7 carries %v, want %v", got.byVeh[7], tc.onVeh7)
			}
		})
	}
}

var (
	errPlain   = errors.New("an error wrapping no sentinel")
	errIgnored = errors.New("event folded to nothing")
)

// TestLedgerSharingAndObservations pins what fold reports and the
// sharing rule: a pickup marks every rider already onboard the vehicle,
// and the rider boarding, as shared; the dropoff then counts them.
func TestLedgerSharingAndObservations(t *testing.T) {
	l := fixtureLedger(t)
	late, ok := l.fold(fleet.Event{Kind: fleet.EventPickup, Vehicle: 7, Request: idAssigned, Odo: 80})
	if !ok || late != 30 {
		t.Fatalf("pickup at odo 80 against a promise of 50: observed %v, %v", late, ok)
	}
	if !l.reqs[idAssigned].Shared || !l.reqs[idOnboard].Shared {
		t.Fatal("riders overlapping onboard vehicle 7 are not marked shared")
	}
	detour, ok := l.fold(fleet.Event{Kind: fleet.EventDropoff, Vehicle: 7, Request: idOnboard, Odo: 160})
	if !ok || detour != 1.5 {
		t.Fatalf("dropoff 150 m after pickup on a 100 m trip: observed %v, %v", detour, ok)
	}
	if l.n.shared != 1 || l.n.completed != 2 {
		t.Fatalf("counters after a shared dropoff: %+v", l.n)
	}
}

// TestLedgerListStopsAtLimit pins the listing walk: id ascending,
// filtered, and no record visited past the limit.
func TestLedgerListStopsAtLimit(t *testing.T) {
	l := fixtureLedger(t)
	var ids []RequestID
	l.list(RequestFilter{Status: StatusDeclined, HasStatus: true}, 1, func(rec *RequestRecord) { ids = append(ids, rec.ID) })
	if !reflect.DeepEqual(ids, []RequestID{idDeclined}) {
		t.Fatalf("first declined record: %v", ids)
	}
	ids = nil
	l.list(RequestFilter{}, 0, func(rec *RequestRecord) { ids = append(ids, rec.ID) })
	if !reflect.DeepEqual(ids, []RequestID{1, 2, 3, 4, 5, 6}) {
		t.Fatalf("unlimited listing: %v", ids)
	}
}

// TestSubmitAllocationCeiling is the in-tree guard of the ladder's
// core.submit_allocs_per_op: a warm-memo Submit + Decline with
// durability off allocates 7 times on this fixture — the record, its
// copies, the skyline and the matcher's per-request state; 13 while
// each accepted option carried its own stop sequence. The race
// detector's sync.Pool drops items at random, so the count only means
// something without it.
func TestSubmitAllocationCeiling(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("allocation counts are not stable under the race detector")
			}
		}
	}
	e, err := NewEngine(testnet.Lattice(rand.New(rand.NewSource(3)), 12, 12, 100), Config{Capacity: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	e.AddVehiclesUniform(30)
	cycle := func() {
		rec, err := e.Submit(5, 130, 1)
		if err != nil || len(rec.Options) == 0 {
			t.Fatalf("submit: %v, %d options", err, len(rec.Options))
		}
		if err := e.Decline(rec.ID); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // warm the distance memo
	got := testing.AllocsPerRun(200, cycle)
	t.Logf("Submit+Decline: %v allocs per cycle", got)
	if got > 7 {
		t.Fatalf("Submit+Decline allocates %v per cycle, ceiling 7", got)
	}
}
