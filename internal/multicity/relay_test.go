package multicity_test

import (
	"math/rand"
	"sync"
	"testing"

	"ptrider/internal/core"
	"ptrider/internal/gen"
	"ptrider/internal/multicity"
	"ptrider/internal/relay"
	"ptrider/internal/testnet"
)

// twinRelayRouter is twinRouter with relay scheduling enabled.
func twinRelayRouter(t testing.TB, cfg core.Config, taxisA, taxisB int, rcfg relay.Config) *multicity.Router {
	t.Helper()
	ga, err := gen.GenerateNetwork(gen.CityConfig{Width: 10, Height: 10, Seed: 1})
	if err != nil {
		t.Fatalf("gen alpha: %v", err)
	}
	gb, err := gen.GenerateNetwork(gen.CityConfig{Width: 8, Height: 8, OriginX: 20000, Seed: 2})
	if err != nil {
		t.Fatalf("gen beta: %v", err)
	}
	cfgA, cfgB := cfg, cfg
	cfgA.Seed, cfgB.Seed = 1, 2
	r, err := multicity.NewWithConfig([]multicity.CitySpec{
		{Name: "alpha", Graph: ga, Config: cfgA, Vehicles: taxisA},
		{Name: "beta", Graph: gb, Config: cfgB, Vehicles: taxisB},
	}, multicity.RouterConfig{EnableRelay: true, Relay: rcfg})
	if err != nil {
		t.Fatalf("router: %v", err)
	}
	return r
}

// quoteRelay submits cross-city pairs until a quote with options comes
// back (a sparse fleet can legitimately produce an empty skyline).
func quoteRelay(t *testing.T, r *multicity.Router, from, to string, rng *rand.Rand) *core.ServiceRecord {
	t.Helper()
	for attempt := 0; attempt < 50; attempt++ {
		o, _ := cityPoints(t, r, from, rng)
		_, d := cityPoints(t, r, to, rng)
		rec, err := submit(r, o, d, 1)
		if err != nil {
			t.Fatalf("relay submit: %v", err)
		}
		if len(rec.Options) > 0 {
			return rec
		}
		_ = r.Decline(rec.ID)
	}
	t.Fatal("no relay quote produced options in 50 attempts")
	return nil
}

func TestRouterRelaysCrossCityTrips(t *testing.T) {
	r := twinRelayRouter(t, core.Config{Capacity: 4}, 10, 10, relay.Config{TransferBufferSeconds: 120})
	if r.RelayScheduler() == nil {
		t.Fatal("relay not enabled")
	}
	rng := rand.New(rand.NewSource(21))
	rec := quoteRelay(t, r, "alpha", "beta", rng)

	if rec.ID >= 0 {
		t.Fatalf("relay record id %d not in the negative namespace", rec.ID)
	}
	if rec.Relay == nil || rec.City != "alpha" || rec.Relay.Dest != "beta" {
		t.Fatalf("relay record misrouted: city %q, relay %+v", rec.City, rec.Relay)
	}
	if len(rec.Options) != len(rec.Relay.Options) {
		t.Fatalf("synthesised options (%d) not aligned with joint skyline (%d)", len(rec.Options), len(rec.Relay.Options))
	}
	for i, o := range rec.Relay.Options {
		if o.Fare != o.Leg1Price+o.Leg2Price {
			t.Fatalf("option %d fare %v != sum of leg fares %v", i, o.Fare, o.Leg1Price+o.Leg2Price)
		}
		if rec.Options[i].Price != o.Fare {
			t.Fatalf("option %d synthesised price %v != fare %v", i, rec.Options[i].Price, o.Fare)
		}
		if o.ETASeconds < o.PickupSeconds+rec.Relay.TransferBufferSeconds {
			t.Fatalf("option %d ETA %.0f violates the %.0f s transfer buffer", i, o.ETASeconds, rec.Relay.TransferBufferSeconds)
		}
	}

	// The record round-trips through the router's id space.
	got, err := r.GetRequest(rec.ID)
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	if got.Relay == nil || got.Relay.RequestID != rec.Relay.RequestID || got.Status != core.StatusQuoted {
		t.Fatalf("round-tripped record = %+v", got.RequestRecord)
	}

	// Choosing commits both legs atomically.
	if err := r.Choose(rec.ID, 0); err != nil {
		t.Fatalf("choose: %v", err)
	}
	got, err = r.GetRequest(rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != core.StatusAssigned || got.Relay.State != relay.StateLeg1Committed.String() {
		t.Fatalf("post-choose record: status %v, relay state %v", got.Status, got.Relay.State)
	}
	engA, _ := r.Engine("alpha")
	engB, _ := r.Engine("beta")
	leg1, err := engA.GetRequest(core.RequestID(got.Relay.Leg1))
	if err != nil {
		t.Fatal(err)
	}
	leg2, err := engB.GetRequest(core.RequestID(got.Relay.Leg2))
	if err != nil {
		t.Fatal(err)
	}
	if leg1.Status != core.StatusAssigned || leg2.Status != core.StatusAssigned {
		t.Fatalf("leg statuses %v / %v after commit", leg1.Status, leg2.Status)
	}
	st := r.ServiceStats()
	if !st.RelayEnabled || st.Relay.Committed != 1 {
		t.Fatalf("router relay stats: %+v", st.Relay)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRouterRelayTickAdvancesToCompletion(t *testing.T) {
	r := twinRelayRouter(t, core.Config{Capacity: 4, CommitSlack: 0.5}, 12, 10, relay.Config{})
	rng := rand.New(rand.NewSource(22))
	rec := quoteRelay(t, r, "beta", "alpha", rng)
	if err := r.Choose(rec.ID, 0); err != nil {
		t.Fatalf("choose: %v", err)
	}
	for tick := 0; tick < 5000; tick++ {
		if _, err := r.Advance(2); err != nil {
			t.Fatal(err)
		}
		got, err := r.GetRequest(rec.ID)
		if err != nil {
			t.Fatal(err)
		}
		switch got.Relay.State {
		case relay.StateCompleted.String():
			if got.Status != core.StatusCompleted {
				t.Fatalf("completed relay trip maps to %v", got.Status)
			}
			if st := r.ServiceStats(); st.Relay.Completed != 1 || st.Relay.Active != 0 {
				t.Fatalf("relay stats after completion: %+v", st.Relay)
			}
			return
		case relay.StateAborted.String(), relay.StateFailed.String():
			t.Fatalf("relay trip ended %v", got.Relay.State)
		}
	}
	t.Fatal("relay trip did not complete")
}

func TestRouterRelayBatchServesCrossItems(t *testing.T) {
	r := twinRelayRouter(t, core.Config{Capacity: 4}, 10, 10, relay.Config{})
	rng := rand.New(rand.NewSource(23))
	o1, d1 := cityPoints(t, r, "alpha", rng)
	o2, _ := cityPoints(t, r, "alpha", rng)
	_, d2 := cityPoints(t, r, "beta", rng)
	chooseFirst := func(opts []core.Option) int {
		if len(opts) == 0 {
			return -1
		}
		return 0
	}
	recs, err := r.SubmitRequestBatch([]core.SubmitSpec{
		coordSpec(o1, d1, 1, chooseFirst),
		coordSpec(o2, d2, 1, chooseFirst),
	})
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if recs[0] == nil || recs[0].Relay != nil {
		t.Fatalf("same-city batch item came back %+v", recs[0])
	}
	if recs[1] == nil || recs[1].Relay == nil {
		t.Fatalf("cross-city batch item came back %+v", recs[1])
	}
	if len(recs[1].Options) > 0 && recs[1].Status != core.StatusAssigned {
		t.Fatalf("cross-city item with options ended %v", recs[1].Status)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRouterRelayRaceStress storms a 2-city relay router with
// concurrent cross-city submits/chooses, same-city traffic, batches
// and ticks, then checks that no reservation leaked and the relay
// ledger's accounting is internally consistent.
func TestRouterRelayRaceStress(t *testing.T) {
	r := twinRelayRouter(t, core.Config{Capacity: 3, CommitSlack: 0.3}, 10, 10, relay.Config{})

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			name, other := "alpha", "beta"
			if seed%2 == 0 {
				name, other = other, name
			}
			for i := 0; i < 30; i++ {
				switch rng.Intn(8) {
				case 0, 1, 2:
					// Cross-city relay trip; choose or decline.
					o, _ := cityPoints(t, r, name, rng)
					_, d := cityPoints(t, r, other, rng)
					rec, err := submit(r, o, d, 1)
					if err != nil {
						errs <- err
						return
					}
					if len(rec.Options) > 0 && rng.Intn(3) > 0 {
						// Stale legs under concurrent ticks abort the
						// two-phase commit; that is expected behaviour —
						// the protocol's job is releasing leg 1, which
						// the invariants check below.
						_ = r.Choose(rec.ID, rng.Intn(len(rec.Options)))
					} else {
						_ = r.Decline(rec.ID)
					}
				case 3, 4:
					o, d := cityPoints(t, r, name, rng)
					rec, err := submit(r, o, d, 1)
					if err != nil {
						errs <- err
						return
					}
					if len(rec.Options) > 0 {
						_ = r.Choose(rec.ID, 0)
					} else {
						_ = r.Decline(rec.ID)
					}
				case 5, 6:
					if _, err := r.Advance(0.5 + rng.Float64()); err != nil {
						errs <- err
						return
					}
				case 7:
					o1, _ := cityPoints(t, r, name, rng)
					_, d1 := cityPoints(t, r, other, rng)
					o2, d2 := cityPoints(t, r, other, rng)
					_, _ = r.SubmitRequestBatch([]core.SubmitSpec{
						coordSpec(o1, d1, 1, func(opts []core.Option) int {
							if len(opts) == 0 {
								return -1
							}
							return 0
						}),
						coordSpec(o2, d2, 1, nil),
					})
				}
				if i%10 == 0 {
					if err := r.CheckInvariants(); err != nil {
						errs <- err
						return
					}
				}
			}
		}(int64(300 + w))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("relay stress worker: %v", err)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatalf("post-storm invariants: %v", err)
	}
	st := r.ServiceStats()
	rs := st.Relay
	if rs.Quoted == 0 {
		t.Fatal("storm quoted no relay trips")
	}
	if rs.Committed != rs.Active+rs.Completed+rs.Failed {
		t.Fatalf("relay ledger inconsistent: committed %d != active %d + completed %d + failed %d",
			rs.Committed, rs.Active, rs.Completed, rs.Failed)
	}
	if rs.Committed+rs.Declined+rs.Aborted > rs.Quoted {
		t.Fatalf("relay ledger inconsistent: %+v", rs)
	}
	// Every leg quote relay issued is accounted for inside the city
	// engines: no request may be lost between the ledgers.
	if st.Total.Requests < rs.LegQuotes {
		t.Fatalf("cities saw %d requests, relay alone issued %d leg quotes", st.Total.Requests, rs.LegQuotes)
	}

	// Drain; committed relay legs must complete like any other trip.
	for i := 0; i < 4000 && st.Total.Completed < st.Total.Assigned; i++ {
		if _, err := r.Advance(1); err != nil {
			t.Fatalf("drain tick: %v", err)
		}
		st = r.ServiceStats()
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatalf("post-drain invariants: %v", err)
	}
	if rs := st.Relay; rs.Active != 0 && st.Total.Completed >= st.Total.Assigned {
		t.Fatalf("drained fleet but %d relay trips still active", rs.Active)
	}
}

// TestRouterRelayShardedTickStress is TestRouterRelayRaceStress with
// parallel tick shards (both cities built at GOMAXPROCS 4): the relay
// ledger's Advance runs after every sharded multi-city tick, so this
// pins the trip-ledger advance against concurrent sharded movement,
// cross-city two-phase commits and vehicle removals under -race.
func TestRouterRelayShardedTickStress(t *testing.T) {
	var r *multicity.Router
	testnet.AtProcs(4, func() {
		r = twinRelayRouter(t, core.Config{Capacity: 3, CommitSlack: 0.3}, 12, 12, relay.Config{})
	})

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			name, other := "alpha", "beta"
			if seed%2 == 0 {
				name, other = other, name
			}
			for i := 0; i < 30; i++ {
				switch rng.Intn(8) {
				case 0, 1, 2:
					// Cross-city relay trip racing the sharded ticks;
					// stale-leg commit aborts are expected behaviour.
					o, _ := cityPoints(t, r, name, rng)
					_, d := cityPoints(t, r, other, rng)
					rec, err := submit(r, o, d, 1)
					if err != nil {
						errs <- err
						return
					}
					if len(rec.Options) > 0 && rng.Intn(3) > 0 {
						_ = r.Choose(rec.ID, rng.Intn(len(rec.Options)))
					} else {
						_ = r.Decline(rec.ID)
					}
				case 3:
					o, d := cityPoints(t, r, name, rng)
					rec, err := submit(r, o, d, 1)
					if err != nil {
						errs <- err
						return
					}
					if len(rec.Options) > 0 {
						_ = r.Choose(rec.ID, 0)
					} else {
						_ = r.Decline(rec.ID)
					}
				case 4, 5, 6:
					// The hot path under test: every city ticks its shards
					// in parallel, then the relay ledger advances.
					if _, err := r.Advance(0.5 + rng.Float64()); err != nil {
						errs <- err
						return
					}
				case 7:
					// Removal races the shard stepping this vehicle;
					// already-removed errors are expected, races are not.
					eng, err := r.Engine(name)
					if err != nil {
						errs <- err
						return
					}
					_, _ = eng.RemoveVehicle(int32(rng.Intn(12)))
				}
				if i%10 == 0 {
					if err := r.CheckInvariants(); err != nil {
						errs <- err
						return
					}
				}
			}
		}(int64(900 + w))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("sharded relay stress worker: %v", err)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatalf("post-storm invariants: %v", err)
	}
	st := r.ServiceStats()
	if st.Total.Tick.Workers != 8 {
		t.Fatalf("aggregate Tick.Workers = %d, want 8 (4 per city)", st.Total.Tick.Workers)
	}
	if st.Total.Tick.Ticks == 0 {
		t.Fatal("storm recorded no ticks")
	}
}
