package relay

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"ptrider/internal/core"
	"ptrider/internal/gen"
	"ptrider/internal/roadnet"
	"ptrider/internal/wal"
)

// fixtureTrip is unregistered quoted trip k+1 of the fuzz set: k = 1
// has two gateways and three options, k = 0 one gateway and no option,
// k = 2 one gateway and one option.
func fixtureTrip(k int) *trip {
	tr := newTrip(TripID(k+1), 0, 1, 3, 4, 1)
	for g := 0; g <= k%2; g++ {
		tr.Gateways = append(tr.Gateways, Gateway{From: roadnet.VertexID(g), To: roadnet.VertexID(g + 10)})
		tr.Leg1Recs = append(tr.Leg1Recs, core.RequestID(100+g))
		tr.Leg2Recs = append(tr.Leg2Recs, core.RequestID(200+g))
	}
	switch k {
	case 1:
		tr.Options = []Option{{Gateway: 0}, {Gateway: 1}, {Gateway: 1}}
	case 2:
		tr.Options = []Option{{Gateway: 0}}
	}
	return tr
}

// ledgerDigest renders what a transition may change: every trip's
// State, Chosen and Intent, the seven counters, and the active and
// pending sets (pending in park order).
func ledgerDigest(l *ledger) string {
	var b strings.Builder
	ids := slices.Sorted(maps.Keys(l.trips))
	for _, id := range ids {
		tr := l.trips[id]
		fmt.Fprintf(&b, "trip %d %v chosen=%d intent=%d\n", id, tr.State, tr.Chosen, tr.Intent)
	}
	fmt.Fprintf(&b, "counters %+v\nactive", l.stats())
	for _, id := range ids {
		if l.active[id] != nil {
			fmt.Fprintf(&b, " %d", id)
		}
	}
	b.WriteString("\npending")
	for _, tr := range l.pending {
		fmt.Fprintf(&b, " %d", tr.ID)
	}
	return b.String()
}

// checkLedger verifies that the counters and sets are what the trips'
// states imply.
func checkLedger(l *ledger) error {
	var want Stats
	parked := 0
	for id, tr := range l.trips {
		if tr.parked() {
			parked++
		}
		want.Quoted++
		want.LegQuotes += int64(2 * len(tr.Gateways))
		if tr.Chosen >= 0 {
			want.Committed++
		}
		switch tr.State {
		case StateDeclined:
			want.Declined++
		case StateAborted:
			want.Aborted++
		case StateCompleted:
			want.Completed++
		case StateFailed:
			want.Failed++
		}
		booked := tr.State != StateQuoted && tr.State != StateDeclined && tr.State != StateAborted
		switch {
		case tr.ID != id:
			return fmt.Errorf("trip %d filed under %d", tr.ID, id)
		case tr.Chosen >= len(tr.Options) || tr.Intent >= len(tr.Options):
			return fmt.Errorf("trip %d: chosen %d / intent %d outside %d options", id, tr.Chosen, tr.Intent, len(tr.Options))
		case booked != (tr.Chosen >= 0):
			return fmt.Errorf("trip %d is %v with chosen %d", id, tr.State, tr.Chosen)
		case tr.Intent >= 0 && tr.State != StateQuoted && tr.State != StateAborted:
			return fmt.Errorf("trip %d is %v with intent %d", id, tr.State, tr.Intent)
		case (l.active[id] != nil) != (booked && !tr.State.terminal()):
			return fmt.Errorf("trip %d (%v) active=%v", id, tr.State, l.active[id] != nil)
		case (slices.Index(l.pending, tr) >= 0) != tr.parked():
			return fmt.Errorf("trip %d (%v, intent %d) pending=%v", id, tr.State, tr.Intent, slices.Index(l.pending, tr) >= 0)
		}
	}
	if got := l.n; got != want {
		return fmt.Errorf("counters %+v, trips imply %+v", got, want)
	}
	if len(l.active) > len(l.trips) || len(l.pending) != parked {
		return fmt.Errorf("active %d / pending %d (parked %d) inconsistent", len(l.active), len(l.pending), parked)
	}
	return nil
}

// ledgerOp is one transition applied to trip 1 (or, for quote, trip 1's
// fixture).
type ledgerOp struct {
	name string
	run  func(l *ledger, tr *trip) error
}

var ledgerOps = []ledgerOp{
	{"quote", func(l *ledger, _ *trip) error { return l.quote(fixtureTrip(0), nil) }},
	{"intent 1", func(l *ledger, tr *trip) error { return l.intent(tr, 1, nil) }},
	{"intent 3", func(l *ledger, tr *trip) error { return l.intent(tr, 3, nil) }},
	{"intent -1", func(l *ledger, tr *trip) error { return l.intent(tr, -1, nil) }},
	{"book", func(l *ledger, tr *trip) error { return l.book(tr, nil) }},
	{"decline", func(l *ledger, tr *trip) error { return l.decline(tr, nil) }},
	{"abort", func(l *ledger, tr *trip) error { return l.abort(tr, nil) }},
	{"park", func(l *ledger, tr *trip) error { return l.park(tr) }},
	{"close", func(l *ledger, tr *trip) error { return l.closeWindow(tr, nil) }},
	{"progress quoted", func(l *ledger, tr *trip) error { return l.progress(tr, StateQuoted) }},
	{"progress leg1-committed", func(l *ledger, tr *trip) error { return l.progress(tr, StateLeg1Committed) }},
	{"progress in-transfer", func(l *ledger, tr *trip) error { return l.progress(tr, StateInTransfer) }},
	{"progress leg2-active", func(l *ledger, tr *trip) error { return l.progress(tr, StateLeg2Active) }},
	{"progress completed", func(l *ledger, tr *trip) error { return l.progress(tr, StateCompleted) }},
	{"progress failed", func(l *ledger, tr *trip) error { return l.progress(tr, StateFailed) }},
	{"fail", func(l *ledger, tr *trip) error { return l.fail(tr) }},
}

// ledgerIn builds a ledger holding trip 1 (the two-gateway, three-option
// fixture) in a named state by running the transitions that reach it.
func ledgerIn(t *testing.T, state string) *ledger {
	t.Helper()
	l := newLedger()
	tr := fixtureTrip(1)
	tr.ID = 1
	steps := map[string][]string{
		"quoted":                 nil,
		"quoted, window open":    {"intent 1"},
		"leg1-committed":         {"intent 1", "book"},
		"in-transfer":            {"intent 1", "book", "progress in-transfer"},
		"leg2-active":            {"intent 1", "book", "progress in-transfer", "progress leg2-active"},
		"completed":              {"intent 1", "book", "progress completed"},
		"declined":               {"decline"},
		"parked":                 {"intent 1", "park"},
		"aborted, window closed": {"abort"},
		"failed":                 {"intent 1", "book", "fail"},
	}[state]
	if err := l.quote(tr, nil); err != nil {
		t.Fatal(err)
	}
	for _, name := range steps {
		i := slices.IndexFunc(ledgerOps, func(op ledgerOp) bool { return op.name == name })
		if err := ledgerOps[i].run(l, tr); err != nil {
			t.Fatalf("reaching %s: %s: %v", state, name, err)
		}
	}
	if err := checkLedger(l); err != nil {
		t.Fatalf("%s: %v", state, err)
	}
	return l
}

// TestTripTransitions runs every transition from every trip state: a
// legal one lands in the state the table names, and a refused one
// changes nothing — not State, Chosen or Intent, not a counter, not the
// active or pending set.
func TestTripTransitions(t *testing.T) {
	legal := map[string]map[string]string{
		"quoted": {
			"intent 1": "quoted, window open", "decline": "declined", "abort": "aborted, window closed",
		},
		"quoted, window open": {
			"book": "leg1-committed", "abort": "aborted, window closed", "park": "parked",
		},
		"leg1-committed": {
			"progress in-transfer": "in-transfer", "progress leg2-active": "leg2-active",
			"progress completed": "completed", "fail": "failed",
		},
		"in-transfer": {
			"progress leg2-active": "leg2-active", "progress completed": "completed", "fail": "failed",
		},
		"leg2-active": {"progress completed": "completed", "fail": "failed"},
		"completed":   {},
		"declined":    {},
		"parked": {
			"abort": "aborted, window closed", "close": "aborted, window closed",
		},
		"aborted, window closed": {},
		"failed":                 {},
	}
	booked := map[string]bool{"leg1-committed": true, "in-transfer": true, "leg2-active": true, "completed": true, "failed": true}
	for from, moves := range legal {
		for _, op := range ledgerOps {
			t.Run(from+"/"+op.name, func(t *testing.T) {
				l := ledgerIn(t, from)
				before := ledgerDigest(l)
				err := op.run(l, l.trips[1])
				if cerr := checkLedger(l); cerr != nil {
					t.Fatalf("after %s: %v", op.name, cerr)
				}
				to, ok := moves[op.name]
				if !ok {
					if err == nil {
						t.Fatalf("%s from %s was accepted:\n%s", op.name, from, ledgerDigest(l))
					}
					if after := ledgerDigest(l); after != before {
						t.Fatalf("refused %s (%v) changed the ledger:\n%s\nwant\n%s", op.name, err, after, before)
					}
					// A booked trip refuses a second commit as the engine
					// does; no other refusal carries a class.
					wantChosen := booked[from] && strings.HasPrefix(op.name, "intent")
					if errors.Is(err, core.ErrAlreadyChosen) != wantChosen || errors.Is(err, core.ErrNotFound) {
						t.Fatalf("%s from %s refused with %v (ErrAlreadyChosen want %v)", op.name, from, err, wantChosen)
					}
					return
				}
				if err != nil {
					t.Fatalf("%s from %s refused: %v", op.name, from, err)
				}
				if got, want := ledgerDigest(l), ledgerDigest(ledgerIn(t, to)); got != want {
					t.Fatalf("%s from %s:\n%s\nwant %s:\n%s", op.name, from, got, to, want)
				}
			})
		}
	}

	// Today's strings for a double commit and a decline of a booked trip,
	// and an unknown trip is ErrNotFound.
	l := ledgerIn(t, "leg1-committed")
	if err := l.intent(l.trips[1], 0, nil); err == nil || !strings.HasPrefix(err.Error(), "relay: trip 1 is leg1-committed, not quoted: ") {
		t.Fatalf("double commit: %v", err)
	}
	if err := l.decline(l.trips[1], nil); err == nil || err.Error() != "relay: trip 1 is leg1-committed, not quoted" {
		t.Fatalf("decline of a booked trip: %v", err)
	}
	if _, err := l.get(2); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("unknown trip: %v", err)
	}
}

// FuzzTripLedger drives the ledger with scripts of three-byte ops (op,
// trip, argument) over three fixture trips. The ledger must never
// panic, a refused transition must change nothing, the counters and
// sets must always be what the trip states imply, and a capture →
// restore round trip through JSON must reproduce the ledger.
func FuzzTripLedger(f *testing.F) {
	f.Fuzz(func(t *testing.T, script []byte) {
		l := newLedger()
		for ; len(script) >= 3; script = script[3:] {
			op, k, arg := script[0]%10, int(script[1]%3), script[2]
			before := ledgerDigest(l)
			var err error
			tr := l.trips[TripID(k+1)]
			switch {
			case op == 0:
				err = l.quote(fixtureTrip(k), nil)
			case op == 9:
				payload, merr := json.Marshal(l.capture())
				if merr != nil {
					t.Fatal(merr)
				}
				var snap relaySnap
				if err := json.Unmarshal(payload, &snap); err != nil {
					t.Fatal(err)
				}
				r := newLedger()
				r.restore(&snap)
				// Restore derives pending from the trip map, so its order
				// is free; compare it as a set.
				slices.SortFunc(r.pending, func(a, b *trip) int { return int(a.ID - b.ID) })
				slices.SortFunc(l.pending, func(a, b *trip) int { return int(a.ID - b.ID) })
				if got, want := ledgerDigest(r), ledgerDigest(l); got != want || r.next.Load() != l.next.Load() {
					t.Fatalf("round trip:\n%s\nwant\n%s", got, want)
				}
				l = r
				continue
			case tr == nil:
				if _, err := l.get(TripID(k + 1)); !errors.Is(err, core.ErrNotFound) {
					t.Fatalf("unknown trip %d: %v", k+1, err)
				}
				continue
			case op == 1:
				err = l.intent(tr, int(arg%6)-1, nil)
			case op == 2:
				err = l.book(tr, nil)
			case op == 3:
				err = l.decline(tr, nil)
			case op == 4:
				err = l.abort(tr, nil)
			case op == 5:
				err = l.park(tr)
			case op == 6:
				err = l.closeWindow(tr, nil)
			case op == 7:
				err = l.progress(tr, State(arg%9))
			case op == 8:
				err = l.fail(tr)
			}
			if err != nil && ledgerDigest(l) != before {
				t.Fatalf("op %d on trip %d refused (%v) but changed the ledger", op, k+1, err)
			}
			if err := checkLedger(l); err != nil {
				t.Fatalf("op %d on trip %d: %v", op, k+1, err)
			}
		}
	})
}

// testCities builds two small engines over disjoint cities: "west" at
// the origin and "east" 20 km out.
func testCities(t testing.TB, taxisW, taxisE int) []CityRef {
	t.Helper()
	city := func(name string, w, h int, originX float64, seed int64, taxis int) CityRef {
		g, err := gen.GenerateNetwork(gen.CityConfig{Width: w, Height: h, OriginX: originX, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := core.NewEngine(g, core.Config{Capacity: 4, Algorithm: core.AlgoDualSide, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		eng.AddVehiclesUniform(taxis)
		return CityRef{Name: name, Engine: eng, Region: g.Bounds()}
	}
	return []CityRef{city("west", 10, 10, 0, 1, taxisW), city("east", 8, 8, 20000, 2, taxisE)}
}

// quoteWithOptions quotes west → east trips until one has options.
func quoteWithOptions(t *testing.T, s *Scheduler, rng *rand.Rand) TripID {
	t.Helper()
	nw, ne := s.cities[0].Engine.Cities()[0].Vertices, s.cities[1].Engine.Cities()[0].Vertices
	for attempt := 0; attempt < 50; attempt++ {
		rec, err := s.Quote(context.Background(), 0, 1, roadnet.VertexID(rng.Intn(nw)), roadnet.VertexID(rng.Intn(ne)), 1, core.DefaultConstraints())
		if err != nil {
			t.Fatal(err)
		}
		id, _ := TripOf(rec.ID)
		if len(rec.Options) > 0 {
			return id
		}
		if err := s.Decline(id); err != nil {
			t.Fatal(err)
		}
	}
	t.Fatal("no relay quote with options in 50 attempts")
	return 0
}

// TestSnapshotDuringChoose snapshots while a commit is in flight: leg 1
// is held on a channel until Snapshot has returned, so a Snapshot that
// waits for the trip's lock (while the commit waits for the ledger's)
// fails here instead of hanging. Recovery from that snapshot plus the
// journal tail must then equal the live trip.
func TestSnapshotDuringChoose(t *testing.T) {
	cities := testCities(t, 10, 8)
	cfg := Config{Durability: wal.ModeSync, WALDir: t.TempDir()}
	s, err := New(cities, cfg)
	if err != nil {
		t.Fatal(err)
	}
	id := quoteWithOptions(t, s, rand.New(rand.NewSource(5)))
	held, release := make(chan struct{}), make(chan struct{})
	s.SetCommitOverride(func(leg int, eng LegEngine, rid core.RequestID, opt int) error {
		if leg == 1 {
			close(held)
			<-release
		}
		return eng.Choose(rid, opt)
	})
	chose, snapped := make(chan error, 1), make(chan error, 1)
	go func() { chose <- s.Choose(id, 0) }()
	<-held
	go func() { snapped <- s.Snapshot() }()
	select {
	case err := <-snapped:
		if err != nil {
			t.Fatalf("snapshot: %v", err)
		}
	case <-time.After(time.Second):
		close(release)
		t.Fatal("Snapshot did not return while a commit was in flight")
	}
	close(release)
	select {
	case err := <-chose:
		if err != nil {
			t.Fatalf("choose: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Choose did not return after the snapshot")
	}

	live, err := s.Trip(id)
	if err != nil {
		t.Fatal(err)
	}
	liveStats := s.Stats()
	s.Kill()
	r, err := New(cities, cfg)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	got, err := r.Trip(id)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, live) {
		t.Fatalf("recovered trip\n%+v\nwant\n%+v", got.Relay, live.Relay)
	}
	if st := r.Stats(); st != liveStats || st.Committed != 1 {
		t.Fatalf("recovered stats %+v, live %+v", st, liveStats)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestLedgerStressSnapshotRecover races quotes, chooses and declines —
// on every third trip a choose and a decline at once — against a
// snapshot every few milliseconds, then kills the journal and recovers: every
// trip's State, Chosen and Intent and all seven counters must equal the
// live ledger's. Run it under -race.
func TestLedgerStressSnapshotRecover(t *testing.T) {
	cities := testCities(t, 20, 16)
	cfg := Config{Durability: wal.ModeSync, WALDir: t.TempDir()}
	s, err := New(cities, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stop, snapDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(snapDone)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if err := s.Snapshot(); err != nil {
					t.Errorf("snapshot: %v", err)
					return
				}
			}
		}
	}()
	nw, ne := cities[0].Engine.Cities()[0].Vertices, cities[1].Engine.Cities()[0].Vertices
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(rng *rand.Rand) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				rec, err := s.Quote(context.Background(), 0, 1, roadnet.VertexID(rng.Intn(nw)), roadnet.VertexID(rng.Intn(ne)), 1, core.DefaultConstraints())
				if err != nil {
					continue // no viable gateway for this pair
				}
				id, _ := TripOf(rec.ID)
				choose := func() { _ = s.Choose(id, len(rec.Options)-1) }
				decline := func() { _ = s.Decline(id) }
				switch i % 3 {
				case 0:
					choose()
				case 1:
					decline()
				default: // both at once on the same trip
					var race sync.WaitGroup
					race.Add(2)
					go func() { defer race.Done(); choose() }()
					go func() { defer race.Done(); decline() }()
					race.Wait()
				}
			}
		}(rand.New(rand.NewSource(int64(w))))
	}
	wg.Wait()
	close(stop)
	<-snapDone

	s.Kill()
	r, err := New(cities, cfg)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer r.Close()
	if err := checkLedger(s.led); err != nil {
		t.Fatalf("live: %v", err)
	}
	if got, want := ledgerDigest(r.led), ledgerDigest(s.led); got != want {
		t.Fatalf("recovered ledger\n%s\nwant\n%s", got, want)
	}
	if st := s.Stats(); st.Quoted == 0 || st.Committed == 0 || st.Declined == 0 {
		t.Fatalf("the race exercised too little: %+v", st)
	}
}

// TestQuoteJournalFailureDeclinesLegs fails the relay's own quote
// append: the error surfaces, nothing is registered, and every leg the
// engines quoted for the trip reads declined.
func TestQuoteJournalFailureDeclinesLegs(t *testing.T) {
	cities := testCities(t, 10, 8)
	inj := &wal.Injector{}
	s, err := New(cities, Config{Durability: wal.ModeSync, WALDir: t.TempDir(), FaultInjector: inj})
	if err != nil {
		t.Fatal(err)
	}
	inj.Arm(wal.CrashPreAppend, 0)
	if _, err := s.Quote(context.Background(), 0, 1, 0, 0, 1, core.DefaultConstraints()); !errors.Is(err, wal.ErrCrashed) {
		t.Fatalf("quote with a crashed journal: %v", err)
	}
	legs := 0
	for _, ref := range cities {
		for id := core.RequestID(1); ; id++ {
			rec, err := ref.Engine.GetRequest(id)
			if err != nil {
				break
			}
			legs++
			if rec.Status != core.StatusDeclined {
				t.Errorf("%s leg %d reads %v", ref.Name, id, rec.Status)
			}
		}
	}
	if legs == 0 {
		t.Fatal("no leg was quoted")
	}
	if st := s.Stats(); st != (Stats{}) {
		t.Fatalf("a failed quote was counted: %+v", st)
	}
}
