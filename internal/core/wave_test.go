package core

import (
	"math/rand"
	"testing"

	"ptrider/internal/roadnet"
	"ptrider/internal/stats"
	"ptrider/internal/telemetry"
	"ptrider/internal/testnet"
)

// TestBatchObservesEachItemsOwnMatchTime pins the response-time
// telemetry of a batch to per-item samples: one expensive quote (far
// destination, whole-city pick-up radius, loaded fleet) riding in a
// wave with cheap ones (a one-second pick-up radius ends their ring
// walk at once) must not be averaged into identical observations.
func TestBatchObservesEachItemsOwnMatchTime(t *testing.T) {
	g := testnet.Lattice(rand.New(rand.NewSource(5)), 16, 16, 100)
	// One goroutine quotes the wave, so each item's time is its own.
	var e *Engine
	var err error
	testnet.AtProcs(1, func() {
		e, err = NewEngine(g, Config{
			Capacity: 4, Sigma: 0.4,
			Algorithm: AlgoDualSide, Seed: 5,
		})
	})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	e.AddVehiclesUniform(60)
	n := g.NumVertices()
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 80; i++ {
		s, d := roadnet.VertexID(rng.Intn(n)), roadnet.VertexID(rng.Intn(n))
		if s == d {
			continue
		}
		rec, err := e.Submit(s, d, 1)
		if err != nil {
			t.Fatalf("load %d: %v", i, err)
		}
		if len(rec.Options) > 0 {
			if err := e.Choose(rec.ID, 0); err != nil {
				t.Fatalf("load %d: choose: %v", i, err)
			}
		}
	}

	cheap := DefaultConstraints()
	cheap.MaxPickupSeconds = 1
	items := []BatchItem{{S: 0, D: roadnet.VertexID(n - 1), Riders: 1, Constraints: DefaultConstraints()}}
	for i := 1; i <= 5; i++ {
		items = append(items, BatchItem{S: roadnet.VertexID(i), D: roadnet.VertexID(i + 1), Riders: 1, Constraints: cheap})
	}
	e.statsMu.Lock()
	e.respNs = stats.Online{}
	e.respP95 = stats.NewP2Quantile(0.95)
	e.statsMu.Unlock()
	if _, err := e.SubmitBatch(items); err != nil {
		t.Fatalf("batch: %v", err)
	}
	e.statsMu.Lock()
	resp, p95 := e.respNs, e.respP95.Value()
	e.statsMu.Unlock()
	if resp.Count() != int64(len(items)) {
		t.Fatalf("observed %d match times for %d items", resp.Count(), len(items))
	}
	// Identical observations (the wave's mean once per item) put every
	// quantile estimate exactly on the mean; per-item samples, one far
	// costlier than the rest, do not.
	if p95 == resp.Mean() {
		t.Fatalf("all %d items of the wave report the same match time (%.0f ns): the wave's mean, not a sample", len(items), p95)
	}
	t.Logf("per-item match time: mean %.0f ns, p95 estimate %.0f ns", resp.Mean(), p95)
}

// TestBatchObservesQuoteStage: every item of a SubmitBatch wave lands
// in the quote-stage histogram with its own match time, as a single
// Submit does, beside the register stage each item already reached.
func TestBatchObservesQuoteStage(t *testing.T) {
	g := testnet.Lattice(rand.New(rand.NewSource(5)), 8, 8, 100)
	reg := telemetry.NewRegistry()
	e, err := NewEngine(g, Config{Algorithm: AlgoDualSide, Seed: 5, Telemetry: reg})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	e.AddVehiclesUniform(10)
	items := make([]BatchItem, 5)
	for i := range items {
		items[i] = BatchItem{S: roadnet.VertexID(i), D: roadnet.VertexID(40 + i), Riders: 1, Constraints: DefaultConstraints()}
	}
	if _, err := e.SubmitBatch(items); err != nil {
		t.Fatalf("batch: %v", err)
	}
	counts := map[string]int64{}
	for _, f := range reg.Gather() {
		if f.Name != "ptrider_submit_stage_duration_seconds" {
			continue
		}
		for _, s := range f.Series {
			counts[s.Labels[0].Value] = s.Hist.Count
		}
	}
	if counts["quote"] != 5 || counts["register"] != 5 {
		t.Fatalf("stage counts %v, want quote 5 and register 5", counts)
	}
}
