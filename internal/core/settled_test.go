package core_test

import (
	"math/rand"
	"testing"

	"ptrider/internal/core"
	"ptrider/internal/gen"
	"ptrider/internal/roadnet"
	"ptrider/internal/testnet"
)

// benchCity builds the benchmark's big-city deployment inside the test
// binary: a 40×40 generated city, 500 taxis, 600 committed trips, a
// 300 s pick-up cut-off. The engine is built at GOMAXPROCS 1, so a
// batch's probes run serially and the exact-search count is
// deterministic (concurrent probes racing on a cold pair may both
// compute it).
func benchCity(t *testing.T) *core.Engine {
	t.Helper()
	g, err := gen.GenerateNetwork(gen.CityConfig{Width: 40, Height: 40, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var e *core.Engine
	testnet.AtProcs(1, func() {
		e, err = core.NewEngine(g, core.Config{
			Algorithm: core.AlgoDualSide, MaxPickupSeconds: 300, Seed: 1,
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	e.AddVehiclesUniform(500)
	rng := rand.New(rand.NewSource(17))
	n := g.NumVertices()
	for committed, tries := 0, 0; committed < 600; tries++ {
		if tries > 12000 {
			t.Fatalf("only %d of 600 trips committed", committed)
		}
		s := rng.Intn(n)
		d := (s + 1 + rng.Intn(n-1)) % n
		rec, err := e.Submit(roadnet.VertexID(s), roadnet.VertexID(d), 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.Options) > 0 && e.Choose(rec.ID, rng.Intn(len(rec.Options))) == nil {
			committed++
		} else if err := e.Decline(rec.ID); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// TestColdMatchSettlesEachVertexOncePerSource pins the work of a match
// against a cold distance memo. Every batch fill of one match reads one
// of two sweeps of the contraction hierarchy, from s and from d, each
// drawn on its source's first miss, so whatever the number of ring
// cells the match sweeps at most 2·|V| vertices; before the anchors
// each fill started a fresh search and a set-up request on this city
// settled 8.7·|V|. The counters the paper reports must not notice:
// DistCalls over the script equals the value recorded for the same
// script, and the options equal those of the same match repeated
// against the memo it just warmed.
func TestColdMatchSettlesEachVertexOncePerSource(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 40×40 city")
	}
	e := benchCity(t)
	n := e.Graph().NumVertices()
	// DistCalls of this script, recorded from a fresh run on the
	// grid-rounded weights (roadnet.GridSteps) with busy taxis listed
	// in their root and stop cells only, and each probe's walk bounded
	// by the match's running skyline.
	pinnedDistCalls := map[core.Algorithm]int64{
		core.AlgoNaive:      3293,
		core.AlgoSingleSide: 4581,
		core.AlgoDualSide:   3480,
	}
	for _, algo := range []core.Algorithm{core.AlgoNaive, core.AlgoSingleSide, core.AlgoDualSide} {
		t.Run(algo.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(23))
			var distCalls int64
			maxSettled := 0
			for step := 0; step < 24; step++ {
				s := roadnet.VertexID(rng.Intn(n))
				d := roadnet.VertexID((int(s) + 1 + rng.Intn(n-1)) % n)
				e.ResetDistCache()
				cold, ms, err := e.MatchOnce(algo, s, d, 1)
				if err != nil {
					t.Fatal(err)
				}
				distCalls += ms.DistCalls
				if ms.Settled > 2*n {
					t.Fatalf("step %d: swept %d vertices, more than 2·|V| = %d", step, ms.Settled, 2*n)
				}
				if ms.Settled > maxSettled {
					maxSettled = ms.Settled
				}
				warm, _, err := e.MatchOnce(algo, s, d, 1)
				if err != nil {
					t.Fatal(err)
				}
				sameOptions(t, step, cold, warm)
			}
			t.Logf("dist calls %d, most vertices swept by one match %d of %d", distCalls, maxSettled, n)
			if distCalls != pinnedDistCalls[algo] {
				t.Fatalf("dist calls %d, pinned %d", distCalls, pinnedDistCalls[algo])
			}
		})
	}
}
