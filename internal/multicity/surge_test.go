package multicity_test

// Surge pricing across cities: each city engine runs its own tracker,
// relay legs quote through the per-city pipelines (joint fares sum the
// surged leg prices), and the router aggregates the per-city surge
// panels.

import (
	"math"
	"math/rand"
	"testing"

	"ptrider/internal/core"
	"ptrider/internal/pricing"
	"ptrider/internal/pricing/surge"
	"ptrider/internal/relay"
	"ptrider/internal/roadnet"
)

// surgeRouterConfig arms hair-trigger tiers: any demand in a cell
// doubles its fare after the next 10-second epoch boundary.
func surgeRouterConfig() core.Config {
	return core.Config{
		Capacity: 4, MaxWaitSeconds: 600, Sigma: 0.4, MaxPickupSeconds: 1e6,
		SurgeEnabled: true, SurgeEpochSeconds: 10, SurgeAlpha: 1,
		SurgeTiers: []surge.Tier{{MinRatio: 0.0001, Multiplier: 2}},
	}
}

func TestRelayJointFareSumsSurgedLegs(t *testing.T) {
	r := twinRelayRouter(t, surgeRouterConfig(), 10, 10, relay.Config{TransferBufferSeconds: 120})
	engA, _ := r.Engine("alpha")
	engB, _ := r.Engine("beta")

	// Heat one alpha cell: demand out of vertex 0, then an epoch tick.
	hot := roadnet.VertexID(0)
	far := roadnet.VertexID(engA.Graph().NumVertices() - 1)
	for i := 0; i < 6; i++ {
		if _, err := submitIn(r, "alpha", hot, far, 1); err != nil {
			t.Fatalf("demand submit: %v", err)
		}
	}
	if _, err := r.Advance(10); err != nil {
		t.Fatalf("tick: %v", err)
	}
	if ep := engA.SurgeStats().Epoch; ep != 1 {
		t.Fatalf("alpha epoch %d after boundary, want 1", ep)
	}

	// Relay out of the hot cell. The origin vertex is pinned so the
	// leg-1 quote resolves the surged cell; destinations rotate until
	// the sparse fleet yields a non-empty joint skyline.
	rng := rand.New(rand.NewSource(31))
	var rec *core.ServiceRecord
	for attempt := 0; attempt < 50 && rec == nil; attempt++ {
		d := roadnet.VertexID(rng.Intn(engB.Graph().NumVertices()))
		cand, err := submit(r, engA.Graph().Point(hot), engB.Graph().Point(d), 1)
		if err != nil {
			t.Fatalf("relay submit: %v", err)
		}
		if len(cand.Options) > 0 {
			rec = cand
		} else {
			_ = r.Decline(cand.ID)
		}
	}
	if rec == nil {
		t.Fatal("no relay quote produced options in 50 attempts")
	}
	if rec.Relay == nil {
		t.Fatalf("expected a relay record, got city-local %+v", rec.RequestRecord)
	}
	for i, o := range rec.Relay.Options {
		if o.Fare != o.Leg1Price+o.Leg2Price {
			t.Fatalf("option %d: fare %v != surged leg sum %v", i, o.Fare, o.Leg1Price+o.Leg2Price)
		}
	}

	// Commit and audit both leg records' fare contexts.
	if err := r.Choose(rec.ID, 0); err != nil {
		t.Fatalf("choose: %v", err)
	}
	got, err := r.GetRequest(rec.ID)
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	leg1, err := engA.GetRequest(core.RequestID(got.Relay.Leg1))
	if err != nil {
		t.Fatalf("leg1: %v", err)
	}
	leg2, err := engB.GetRequest(core.RequestID(got.Relay.Leg2))
	if err != nil {
		t.Fatalf("leg2: %v", err)
	}
	base := pricing.NewModel(nil)
	if leg1.SurgeMult != 2 || leg1.FareRatio != base.Ratio(1)*2 {
		t.Fatalf("leg1 fare context: mult %v ratio %v", leg1.SurgeMult, leg1.FareRatio)
	}
	for _, o := range leg1.Options {
		// The detour the price carries: delta + SD lies on the distance
		// grid, so the surged ratio must land the price back on it.
		delta := math.Round(o.Price/leg1.FareRatio*roadnet.GridSteps)/roadnet.GridSteps - leg1.SD
		if want := leg1.FareRatio * (delta + leg1.SD); delta < 0 || o.Price != want {
			t.Fatalf("leg1 option price %v, want surged %v (detour %v)", o.Price, want, delta)
		}
	}
	// Beta had no demand before its epoch boundary: leg 2 quotes at the
	// static fare.
	if leg2.SurgeMult != 1 || leg2.FareRatio != base.Ratio(1) {
		t.Fatalf("leg2 fare context: mult %v ratio %v", leg2.SurgeMult, leg2.FareRatio)
	}

	// Router-level aggregation: panel sums cells and surged quotes
	// across cities, takes the max multiplier.
	st := r.ServiceStats()
	if !st.Total.Surge.Enabled || st.Total.Surge.MaxMultiplier != 2 || st.Total.Surge.SurgedQuotes < 1 {
		t.Fatalf("aggregated surge panel: %+v", st.Total.Surge)
	}
	if want := engA.SurgeStats().Cells + engB.SurgeStats().Cells; st.Total.Surge.Cells != want {
		t.Fatalf("aggregated cell count %d, want %d", st.Total.Surge.Cells, want)
	}

	// Per-city surge views route by name; the bare name is ambiguous
	// with more than one city.
	va, err := r.Surge("alpha")
	if err != nil {
		t.Fatalf("surge alpha: %v", err)
	}
	if va.City != "alpha" || !va.Enabled {
		t.Fatalf("alpha surge view: %+v", va)
	}
	surged := false
	for _, c := range va.Cells {
		if c.Multiplier > 1 {
			surged = true
		}
	}
	if !surged {
		t.Fatal("alpha surge view shows no surged cells")
	}
	if _, err := r.Surge(""); err == nil {
		t.Fatal("ambiguous city name accepted for surge view")
	}
}
