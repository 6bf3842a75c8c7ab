package main

import (
	"math/rand"
	"testing"
	"time"

	"ptrider/internal/gen"
	"ptrider/internal/gridindex"
	"ptrider/internal/roadnet"
)

// testSource builds the road graphs (and city 0's grid) a stream
// generator needs, without an engine.
func testSource(t *testing.T, cities int, seed int64) *streamSource {
	t.Helper()
	src := &streamSource{coords: cities > 1}
	for i := range cities {
		g, err := gen.GenerateNetwork(gen.CityConfig{Width: 12, Height: 12, OriginX: float64(i) * 9000, Seed: seed + int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		src.graphs = append(src.graphs, g)
	}
	grid, err := gridindex.Build(src.graphs[0], gridindex.Config{Cols: 4, Rows: 4})
	if err != nil {
		t.Fatal(err)
	}
	src.grid = grid
	return src
}

// streamsOf generates every workload's phase-A stream from one seed.
func streamsOf(t *testing.T, seed int64) map[string]string {
	t.Helper()
	out := map[string]string{}
	for i := range workloads {
		w := &workloads[i]
		cities := 1
		if w.twin {
			cities = 2
		}
		cfg := &runConfig{w: w, seed: seed, seconds: 4}
		riders, err := cfg.phaseAStream(testSource(t, cities, seed), cfg.phase(shareA))
		if err != nil {
			t.Fatal(err)
		}
		if len(riders) == 0 {
			t.Fatalf("%s: empty stream", w.name)
		}
		out[w.name] = streamHash(riders)
	}
	return out
}

func TestStreamHashFollowsSeed(t *testing.T) {
	a, again, b := streamsOf(t, 7), streamsOf(t, 7), streamsOf(t, 8)
	for name, h := range a {
		if again[name] != h {
			t.Errorf("%s: seed 7 gave %s then %s", name, h, again[name])
		}
		if b[name] == h {
			t.Errorf("%s: seeds 7 and 8 both gave %s", name, h)
		}
	}
}

func TestHotcellStreamShape(t *testing.T) {
	src := testSource(t, 1, 3)
	riders := src.hotcellStream(rand.New(rand.NewSource(3)), 100*time.Millisecond, time.Second)
	hot := map[roadnet.VertexID]bool{}
	for _, v := range hotCell(src.grid) {
		hot[v] = true
	}
	singles, batches := 0, 0
	for _, r := range riders {
		if r.Due%(100*time.Millisecond) != 0 {
			t.Fatalf("rider due at %v, between bursts", r.Due)
		}
		for _, tr := range r.Trips {
			if !hot[tr.S] {
				t.Fatalf("origin %d outside the hot cell", tr.S)
			}
		}
		switch r.Kind {
		case kindSingle:
			singles++
		case kindBatch:
			batches++
			if len(r.Trips) != burstSize {
				t.Fatalf("batch of %d", len(r.Trips))
			}
		}
	}
	if singles != 5*burstSize || batches != 5 {
		t.Fatalf("10 bursts gave %d singles and %d batches, want 80 and 5", singles, batches)
	}
}
