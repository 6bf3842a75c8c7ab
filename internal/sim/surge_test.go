package sim_test

// Surge-loop simulation tests: the price-aware rider model declines
// premium quotes, and a peak-hour day with surge enabled sheds demand
// from hot cells without cratering overall acceptance.

import (
	"math/rand"
	"testing"

	"ptrider/internal/core"
	"ptrider/internal/gen"
	"ptrider/internal/pricing"
	"ptrider/internal/pricing/surge"
	"ptrider/internal/sim"
)

func TestPriceAwareChoice(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	model := sim.PriceAware{}
	sd := 1000.0
	floor := pricing.DefaultRatio(1) * sd

	// At the unsurged floor (premium 1) nearly every quote is accepted,
	// and the pick is the cheapest option.
	atFloor := []core.Option{{Price: floor * 1.1}, {Price: floor}}
	accepted := 0
	for i := 0; i < 500; i++ {
		if pick := model.ChooseCtx(atFloor, floor, rng); pick == 1 {
			accepted++
		} else if pick == 0 {
			t.Fatal("accepted a non-cheapest option")
		}
	}
	if accepted < 450 {
		t.Fatalf("floor-priced quotes accepted %d/500 times", accepted)
	}

	// Far beyond the pivot premium, quotes are almost surely declined.
	steep := []core.Option{{Price: floor * 4}}
	accepted = 0
	for i := 0; i < 500; i++ {
		if model.ChooseCtx(steep, floor, rng) == 0 {
			accepted++
		}
	}
	if accepted > 50 {
		t.Fatalf("4x-premium quotes accepted %d/500 times", accepted)
	}

	// Interface plumbing: empty skylines decline, the plain Choose
	// fallback behaves like Cheapest, and the model parses by name.
	if model.ChooseCtx(nil, floor, rng) != -1 {
		t.Fatal("empty skyline not declined")
	}
	if model.Choose(atFloor, rng) != 1 {
		t.Fatal("context-free fallback is not cheapest")
	}
	if m, err := sim.ParseChoiceModel("priceaware"); err != nil || m != (sim.PriceAware{}) {
		t.Fatalf("ParseChoiceModel(priceaware) = %v, %v", m, err)
	}
	if _, ok := sim.ChoiceModel(model).(sim.ContextChoice); !ok {
		t.Fatal("PriceAware does not implement ContextChoice")
	}
}

// TestPeakSurgeSimulation runs a peak-hour day against a surge-enabled
// engine with price-aware riders: surged quotes must appear, some
// riders must be priced off the hot cells, and the overall acceptance
// rate must stay healthy.
func TestPeakSurgeSimulation(t *testing.T) {
	run := func(surgeOn bool) (*sim.Result, core.SurgePanel) {
		g, err := gen.GenerateNetwork(gen.CityConfig{Width: 12, Height: 12, Seed: 8})
		if err != nil {
			t.Fatalf("network: %v", err)
		}
		cfg := core.Config{
			Capacity:       4,
			MaxWaitSeconds: 900, Sigma: 0.6, Algorithm: core.AlgoDualSide, Seed: 8,
		}
		if surgeOn {
			cfg.SurgeEnabled = true
			cfg.SurgeEpochSeconds = 600
			cfg.SurgeAlpha = 0.7
			cfg.SurgeTiers = []surge.Tier{{MinRatio: 0.2, Multiplier: 1.2}, {MinRatio: 0.8, Multiplier: 1.5}}
		}
		e, err := core.NewEngine(g, cfg)
		if err != nil {
			t.Fatalf("engine: %v", err)
		}
		e.AddVehiclesUniform(10)

		trips, err := gen.GenerateTrips(g, gen.TripConfig{
			NumTrips: 400, DaySeconds: 86400, Seed: 8, MinTripMeters: 400,
			HourlyWeights: gen.PeakHourlyWeights(),
		})
		if err != nil {
			t.Fatalf("trips: %v", err)
		}
		// The peak profile must actually concentrate the day: most
		// trips land in the 07–09 and 17–19 rush windows.
		rush := 0
		for _, tr := range trips {
			h := int(tr.Time) / 3600 % 24
			if (h >= 6 && h <= 9) || (h >= 16 && h <= 19) {
				rush++
			}
		}
		if rush*10 < len(trips)*7 {
			t.Fatalf("only %d/%d trips in the rush windows", rush, len(trips))
		}

		// Pivot 4: a shared ride's detour already prices well above the
		// solo floor, so the decline band has to sit above the baseline
		// premium for the surge delta to be the thing riders react to.
		res, err := sim.Run(e, sim.TraceTrips(trips), sim.Config{
			TickSeconds: 5, Seed: 8, Choice: sim.PriceAware{Pivot: 4}, DrainSeconds: 3600,
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		assertAcceptedAssigned(t, res)
		return res, e.SurgeStats()
	}

	off, offPanel := run(false)
	on, onPanel := run(true)

	if offPanel.SurgedQuotes != 0 || onPanel.SurgedQuotes == 0 {
		t.Fatalf("surged quotes: off %d, on %d", offPanel.SurgedQuotes, onPanel.SurgedQuotes)
	}
	if onPanel.Epoch == 0 {
		t.Fatalf("surge epochs never advanced: %+v", onPanel)
	}
	// Surge sheds demand: the price-aware riders decline more quotes
	// when hot cells carry a multiplier...
	if on.Declined <= off.Declined {
		t.Fatalf("surge shed no demand: declined %d (on) vs %d (off)", on.Declined, off.Declined)
	}
	// ...but must not crater acceptance relative to the static-fare
	// baseline.
	rate := func(r *sim.Result) float64 {
		quoted := r.Submitted - r.NoOption
		if quoted <= 0 {
			t.Fatalf("no quotes at all: %+v", r)
		}
		return float64(r.Accepted) / float64(quoted)
	}
	if rOn, rOff := rate(on), rate(off); rOn < 0.75*rOff {
		t.Fatalf("acceptance cratered under surge: %.2f vs %.2f baseline", rOn, rOff)
	}
	if on.Stats.Total.Completed == 0 {
		t.Fatal("nothing completed under surge")
	}
}
