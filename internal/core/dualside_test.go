package core_test

import (
	"math/rand"
	"testing"

	"ptrider/internal/core"
	"ptrider/internal/gen"
	"ptrider/internal/roadnet"
)

// TestDualSideScenario is the paper's dual-side scenario (§3.3):
// schedules near the start location but far from the destination.
// Half the fleet carries trips internal to the north-west quadrant;
// probes start there and end in the south-east corner. All three
// algorithms must return the same options, and the d-side bound must
// pay for itself: dual-side verifies fewer vehicles than single-side,
// which verifies no more than naive. Probes are serial, so the counts
// are deterministic.
func TestDualSideScenario(t *testing.T) {
	const side, taxis, probes, seed = 24, 100, 60, 1
	g, err := gen.GenerateNetwork(gen.CityConfig{Width: side, Height: side, RemoveFrac: 0.15, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewEngine(g, core.Config{
		Capacity: 4, MaxWaitSeconds: 300, Sigma: 0.4, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.AddVehiclesUniform(taxis)

	// Vertex ids are row-major over the generated city.
	rng := rand.New(rand.NewSource(seed + 13))
	randNW := func() roadnet.VertexID {
		for {
			v := rng.Intn(g.NumVertices())
			if v%side < side/2 && v/side >= side/2 {
				return roadnet.VertexID(v)
			}
		}
	}
	loaded := 0
	for i := 0; i < taxis*2 && loaded < taxis/2; i++ {
		s, d := randNW(), randNW()
		if s == d {
			continue
		}
		rec, err := e.Submit(s, d, 1)
		if err != nil {
			t.Fatalf("load submit: %v", err)
		}
		if len(rec.Options) == 0 {
			_ = e.Decline(rec.ID)
		} else if e.Choose(rec.ID, 0) == nil {
			loaded++
		}
	}
	if loaded < taxis/4 {
		t.Fatalf("only %d north-west schedules committed; the scenario needs a loaded quadrant", loaded)
	}

	seCorner := roadnet.VertexID(side/8*side + (side - 1 - side/8))
	var verified [3]int
	algos := []core.Algorithm{core.AlgoNaive, core.AlgoSingleSide, core.AlgoDualSide}
	for p := 0; p < probes; p++ {
		s := randNW()
		var naive []core.Option
		for i, algo := range algos {
			opts, ms, err := e.MatchOnce(algo, s, seCorner, 1)
			if err != nil {
				t.Fatalf("probe %d %v: %v", p, algo, err)
			}
			verified[i] += ms.Verified
			if algo == core.AlgoNaive {
				naive = opts
			} else {
				sameOptions(t, p, naive, opts)
			}
		}
	}
	if n, s, d := verified[0], verified[1], verified[2]; !(d < s && s <= n) {
		t.Fatalf("verified over %d probes: naive %d, single-side %d, dual-side %d; want dual < single <= naive",
			probes, n, s, d)
	}
	t.Logf("verified per probe: naive %.1f, single-side %.1f, dual-side %.1f",
		float64(verified[0])/probes, float64(verified[1])/probes, float64(verified[2])/probes)
}
