package relay_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"ptrider/internal/core"
	"ptrider/internal/gen"
	"ptrider/internal/relay"
	"ptrider/internal/roadnet"
)

// asEngine unwraps a test CityRef back to its concrete engine for the
// engine-only assertions (stats, invariants, ticking).
func asEngine(ref relay.CityRef) *core.Engine { return ref.Engine.(*core.Engine) }

// twinCities builds two engines over disjoint synthetic cities for
// direct scheduler tests: "west" at the origin, "east" 20 km out.
func twinCities(t testing.TB, taxisW, taxisE int, commitSlack float64) []relay.CityRef {
	t.Helper()
	gw, err := gen.GenerateNetwork(gen.CityConfig{Width: 10, Height: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ge, err := gen.GenerateNetwork(gen.CityConfig{Width: 8, Height: 8, OriginX: 20000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Capacity: 4, Algorithm: core.AlgoDualSide, CommitSlack: commitSlack}
	cfgW, cfgE := cfg, cfg
	cfgW.Seed, cfgE.Seed = 1, 2
	engW, err := core.NewEngine(gw, cfgW)
	if err != nil {
		t.Fatal(err)
	}
	engE, err := core.NewEngine(ge, cfgE)
	if err != nil {
		t.Fatal(err)
	}
	engW.AddVehiclesUniform(taxisW)
	engE.AddVehiclesUniform(taxisE)
	return []relay.CityRef{
		{Name: "west", Engine: engW, Region: gw.Bounds()},
		{Name: "east", Engine: engE, Region: ge.Bounds()},
	}
}

func TestGatewaySelection(t *testing.T) {
	cities := twinCities(t, 4, 4, 0)
	s, err := relay.New(cities, relay.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rec := quoteSomething(t, s, cities)
	if len(rec.Relay.Gateways) == 0 {
		t.Fatal("no gateways quoted")
	}
	gw, ge := asEngine(cities[0]).Graph(), asEngine(cities[1]).Graph()
	seenFrom := map[roadnet.VertexID]bool{}
	seenTo := map[roadnet.VertexID]bool{}
	for i, g := range rec.Relay.Gateways {
		if seenFrom[g.From] || seenTo[g.To] {
			t.Fatalf("gateway %d reuses an endpoint: %+v", i, g)
		}
		seenFrom[g.From] = true
		seenTo[g.To] = true
		// The hand-off crosses the inter-city gap, so every pair's gap
		// is at least the sea width minus the cities' extents — in this
		// layout several kilometres — and From/To face each other:
		// From on west's east edge, To on east's west edge.
		if g.GapMeters <= 1000 {
			t.Fatalf("gateway %d gap %.0f m implausibly small", i, g.GapMeters)
		}
		if p := gw.Point(g.From); p.X < gw.Bounds().Max.X-1500 {
			t.Fatalf("gateway %d From at x=%.0f is not on the boundary (max %.0f)", i, p.X, gw.Bounds().Max.X)
		}
		if p := ge.Point(g.To); p.X > ge.Bounds().Min.X+1500 {
			t.Fatalf("gateway %d To at x=%.0f is not on the boundary (min %.0f)", i, p.X, ge.Bounds().Min.X)
		}
	}
}

// tripOf is the scheduler id of a relay trip's record.
func tripOf(rec *core.ServiceRecord) relay.TripID {
	trip, _ := relay.TripOf(rec.ID)
	return trip
}

// quoteSomething quotes one west→east relay trip with a non-empty
// joint skyline.
func quoteSomething(t testing.TB, s *relay.Scheduler, cities []relay.CityRef) *core.ServiceRecord {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	gw, ge := asEngine(cities[0]).Graph(), asEngine(cities[1]).Graph()
	for attempt := 0; attempt < 50; attempt++ {
		o := roadnet.VertexID(rng.Intn(gw.NumVertices()))
		d := roadnet.VertexID(rng.Intn(ge.NumVertices()))
		rec, err := s.Quote(context.Background(), 0, 1, o, d, 1, core.DefaultConstraints())
		if err != nil {
			t.Fatalf("quote: %v", err)
		}
		if len(rec.Options) > 0 {
			return rec
		}
		_ = s.Decline(tripOf(rec))
	}
	t.Fatal("no relay quote produced options in 50 attempts")
	return nil
}

func TestQuoteComposesJointSkyline(t *testing.T) {
	cities := twinCities(t, 10, 8, 0)
	buffer := 90.0
	s, err := relay.New(cities, relay.Config{TransferBufferSeconds: buffer})
	if err != nil {
		t.Fatal(err)
	}
	rec := quoteSomething(t, s, cities)
	tv := rec.Relay

	if tv.State != relay.StateQuoted.String() || tv.Chosen != -1 || rec.Status != core.StatusQuoted {
		t.Fatalf("fresh quote state = %v (%v), chosen %d", tv.State, rec.Status, tv.Chosen)
	}
	if rec.ID >= 0 || tv.RequestID != int64(rec.ID) {
		t.Fatalf("relay record id %d / itinerary id %d, want one negative id", rec.ID, tv.RequestID)
	}
	if len(rec.Options) != len(tv.Options) {
		t.Fatalf("core options (%d) not aligned with joint options (%d)", len(rec.Options), len(tv.Options))
	}
	speedW := cities[0].Engine.Speed()
	for i, o := range tv.Options {
		if o.Fare != o.Leg1Price+o.Leg2Price {
			t.Fatalf("option %d fare %v != leg sum %v", i, o.Fare, o.Leg1Price+o.Leg2Price)
		}
		// The ETA chains the legs through the buffer: it can never beat
		// leg-1 pickup + transfer buffer + the leg-2 ride, nor the
		// leg-2 vehicle's own pickup plus that ride.
		if o.ETASeconds < o.PickupSeconds+buffer {
			t.Fatalf("option %d ETA %.0f ignores the %.0f s transfer buffer (pickup %.0f)", i, o.ETASeconds, buffer, o.PickupSeconds)
		}
		// The row's leg-1 half is one of the leg-1 quote's own options.
		leg1 := legRecord(t, cities[0].Engine, rec.S, tv.Gateways[o.Gateway].From)
		found := false
		for _, lo := range leg1.Options {
			found = found || (lo.Vehicle == o.Leg1Vehicle && lo.Price == o.Leg1Price && lo.PickupDist/speedW == o.PickupSeconds)
		}
		if !found {
			t.Fatalf("option %d leg 1 (vehicle %d, price %v, pickup %.1f s) is not in the leg-1 quote %+v",
				i, o.Leg1Vehicle, o.Leg1Price, o.PickupSeconds, leg1.Options)
		}
		if c := rec.Options[i]; c.Price != o.Fare || c.Vehicle != o.Leg1Vehicle || rec.PickupSecondsOf(c) != o.ETASeconds {
			t.Fatalf("core option %d %+v does not render row %+v", i, c, o)
		}
		// Joint skyline: sorted by ETA, strictly improving fares.
		if i > 0 {
			prev := tv.Options[i-1]
			if o.ETASeconds < prev.ETASeconds {
				t.Fatalf("options not sorted by ETA at %d", i)
			}
			if o.Fare >= prev.Fare {
				t.Fatalf("option %d (ETA %.0f, fare %.2f) dominated by %d (ETA %.0f, fare %.2f)",
					i, o.ETASeconds, o.Fare, i-1, prev.ETASeconds, prev.Fare)
			}
		}
	}
}

func TestChooseCommitsBothLegsAtomically(t *testing.T) {
	cities := twinCities(t, 10, 8, 0)
	s, err := relay.New(cities, relay.Config{})
	if err != nil {
		t.Fatal(err)
	}
	trip := tripOf(quoteSomething(t, s, cities))
	if err := s.Choose(trip, 0); err != nil {
		t.Fatalf("choose: %v", err)
	}
	after, err := s.Trip(trip)
	if err != nil {
		t.Fatal(err)
	}
	if after.Relay.State != relay.StateLeg1Committed.String() || after.Status != core.StatusAssigned {
		t.Fatalf("state after choose = %v (%v)", after.Relay.State, after.Status)
	}
	if after.Vehicle != after.Options[0].Vehicle || after.Price != after.Options[0].Price {
		t.Fatalf("committed record vehicle/price %d/%v, want option 0's", after.Vehicle, after.Price)
	}
	rec1, err := cities[0].Engine.GetRequest(core.RequestID(after.Relay.Leg1))
	if err != nil {
		t.Fatal(err)
	}
	rec2, err := cities[1].Engine.GetRequest(core.RequestID(after.Relay.Leg2))
	if err != nil {
		t.Fatal(err)
	}
	if rec1.Status != core.StatusAssigned || rec2.Status != core.StatusAssigned {
		t.Fatalf("leg statuses after choose: %v / %v", rec1.Status, rec2.Status)
	}
	// Every leg quote this trip issued is now either committed or
	// declined — nothing lingers quoted in either engine.
	for _, ref := range []relay.CityRef{cities[0], cities[1]} {
		st := asEngine(ref).Stats()
		if st.Requests != st.Assigned+st.Declined {
			t.Fatalf("%s: %d requests but %d assigned + %d declined", ref.Name, st.Requests, st.Assigned, st.Declined)
		}
	}
	// Double choose is refused.
	if err := s.Choose(trip, 0); err == nil {
		t.Fatal("second choose succeeded")
	}
	if err := asEngine(cities[0]).CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := asEngine(cities[1]).CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Committed != 1 || st.Active != 1 {
		t.Fatalf("stats after choose: %+v", st)
	}
}

// TestChooseLeg2FailureReleasesLeg1 is the relay atomicity guarantee:
// a leg-2 commit failure (injected through the commit seam, since a
// real mid-commit failure is not deterministically reachable) must
// release leg 1's vehicle reservation — no half-booked relay.
func TestChooseLeg2FailureReleasesLeg1(t *testing.T) {
	cities := twinCities(t, 10, 8, 0)
	s, err := relay.New(cities, relay.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rec := quoteSomething(t, s, cities)
	opt := rec.Relay.Options[0]
	leg1ID := legRecord(t, cities[0].Engine, rec.S, rec.Relay.Gateways[opt.Gateway].From).ID

	s.SetCommitOverride(func(leg int, eng relay.LegEngine, id core.RequestID, idx int) error {
		if leg == 2 {
			return fmt.Errorf("injected leg-2 failure")
		}
		return eng.Choose(id, idx)
	})
	if err := s.Choose(tripOf(rec), 0); err == nil {
		t.Fatal("choose succeeded despite leg-2 failure")
	}
	s.SetCommitOverride(nil)

	// Leg 1's record ended declined, and the quoted vehicle carries no
	// pending request for it — the reservation was released.
	rec1, err := cities[0].Engine.GetRequest(leg1ID)
	if err != nil {
		t.Fatal(err)
	}
	if rec1.Status != core.StatusDeclined {
		t.Fatalf("leg-1 record after abort = %v, want declined", rec1.Status)
	}
	if _, _, err := asEngine(cities[0]).VehicleSchedules(opt.Leg1Vehicle); err != nil {
		t.Fatal(err)
	}
	for _, v := range asEngine(cities[0]).VehicleViews(0) {
		if v.ID == opt.Leg1Vehicle && v.Pending != 0 {
			t.Fatalf("leg-1 vehicle %d still holds %d pending requests", v.ID, v.Pending)
		}
	}
	after, err := s.Trip(tripOf(rec))
	if err != nil {
		t.Fatal(err)
	}
	if after.Relay.State != relay.StateAborted.String() {
		t.Fatalf("trip state after abort = %v", after.Relay.State)
	}
	if err := asEngine(cities[0]).CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Aborted != 1 || st.Committed != 0 || st.Active != 0 {
		t.Fatalf("stats after abort: %+v", st)
	}
}

// legRecord finds the newest record an engine holds for s → d — the
// leg quote a relay trip placed there (quote ids are dense per engine,
// so the walk stops at the first unknown id).
func legRecord(t *testing.T, eng relay.LegEngine, s, d roadnet.VertexID) *core.RequestRecord {
	t.Helper()
	var found *core.RequestRecord
	for id := core.RequestID(1); ; id++ {
		rec, err := eng.GetRequest(id)
		if err != nil {
			break
		}
		if rec.S == s && rec.D == d {
			found = &rec.RequestRecord
		}
	}
	if found == nil {
		t.Fatalf("no leg record %d → %d", s, d)
	}
	return found
}

func TestDeclineReleasesAllLegQuotes(t *testing.T) {
	cities := twinCities(t, 10, 8, 0)
	s, err := relay.New(cities, relay.Config{})
	if err != nil {
		t.Fatal(err)
	}
	trip := tripOf(quoteSomething(t, s, cities))
	if err := s.Decline(trip); err != nil {
		t.Fatal(err)
	}
	after, err := s.Trip(trip)
	if err != nil {
		t.Fatal(err)
	}
	if after.Relay.State != relay.StateDeclined.String() || after.Status != core.StatusDeclined {
		t.Fatalf("state after decline = %v (%v)", after.Relay.State, after.Status)
	}
	if err := s.Choose(trip, 0); err == nil {
		t.Fatal("choose after decline succeeded")
	}
	// No quoted leg record of this trip remains.
	for _, ref := range []relay.CityRef{cities[0], cities[1]} {
		st := asEngine(ref).Stats()
		if st.Requests != st.Declined {
			t.Fatalf("%s: %d requests but only %d declined after trip decline", ref.Name, st.Requests, st.Declined)
		}
	}
}

// TestRelayTripCompletesEndToEnd drives both engines' clocks until a
// committed relay trip's ledger walks quoted → leg1-committed →
// (in-transfer | leg2-active)* → completed.
func TestRelayTripCompletesEndToEnd(t *testing.T) {
	cities := twinCities(t, 12, 10, 0.5)
	s, err := relay.New(cities, relay.Config{})
	if err != nil {
		t.Fatal(err)
	}
	trip := tripOf(quoteSomething(t, s, cities))
	if err := s.Choose(trip, 0); err != nil {
		t.Fatalf("choose: %v", err)
	}
	seen := map[string]bool{}
	for tick := 0; tick < 5000; tick++ {
		if _, err := asEngine(cities[0]).Tick(2); err != nil {
			t.Fatal(err)
		}
		if _, err := asEngine(cities[1]).Tick(2); err != nil {
			t.Fatal(err)
		}
		s.Advance()
		cur, err := s.Trip(trip)
		if err != nil {
			t.Fatal(err)
		}
		state := cur.Relay.State
		seen[state] = true
		if state == relay.StateCompleted.String() {
			if st := s.Stats(); st.Completed != 1 || st.Active != 0 {
				t.Fatalf("stats after completion: %+v", st)
			}
			return
		}
		if state == relay.StateFailed.String() || state == relay.StateAborted.String() {
			t.Fatalf("trip ended %v", state)
		}
	}
	t.Fatalf("trip did not complete; states seen: %v", seen)
}

// lateCtx is never done to a leg's ring walk (Done is Background's)
// and turns done on its Err poll after the first n.
type lateCtx struct {
	context.Context
	n, polls atomic.Int32
}

func (c *lateCtx) Err() error {
	if c.polls.Add(1) > c.n.Load() {
		return context.Canceled
	}
	return nil
}

// TestQuoteAbandonedWhenContextDone quotes one trip twice: once under a
// context that only counts the polls its leg quotes make, then under one
// that turns done right after them. The second quote quotes every leg,
// yet fails ErrUnavailable, registers no trip and leaves no leg quoted.
func TestQuoteAbandonedWhenContextDone(t *testing.T) {
	cities := twinCities(t, 6, 6, 0)
	s, err := relay.New(cities, relay.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rec := quoteSomething(t, s, cities)
	if err := s.Decline(tripOf(rec)); err != nil {
		t.Fatal(err)
	}
	count := &lateCtx{Context: context.Background()}
	count.n.Store(math.MaxInt32)
	if _, err := s.Quote(count, 0, 1, rec.S, rec.D, 1, core.DefaultConstraints()); err != nil {
		t.Fatal(err)
	}
	trips := s.Trips()
	late := &lateCtx{Context: context.Background()}
	late.n.Store(count.polls.Load() - 1) // the last poll is the trip's own
	_, err = s.Quote(late, 0, 1, rec.S, rec.D, 1, core.DefaultConstraints())
	if !errors.Is(err, core.ErrUnavailable) || !errors.Is(err, context.Canceled) {
		t.Fatalf("quote whose context is done after its legs: %v, want ErrUnavailable wrapping context.Canceled", err)
	}
	if n := s.Trips(); n != trips {
		t.Fatalf("%d trips registered, want %d", n, trips)
	}
	for _, ref := range cities {
		quoted, err := ref.Engine.Requests("", core.RequestFilter{HasStatus: true, Status: core.StatusQuoted}, 0)
		if err != nil || len(quoted) != len(rec.Relay.Gateways) {
			t.Fatalf("%s holds %d quoted legs (%v), want the counting trip's %d", ref.Name, len(quoted), err, len(rec.Relay.Gateways))
		}
	}
}
