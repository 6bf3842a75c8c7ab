package core_test

// Benchmark for the PR-9 acceptance number: Submit with the telemetry
// registry live (stage histograms observing every quote/register)
// must stay within 3% of the registry-off path — the nil-registry
// no-op contract priced on the real submit pipeline.

import (
	"math/rand"
	"testing"

	"ptrider/internal/core"
	"ptrider/internal/roadnet"
	"ptrider/internal/telemetry"
	"ptrider/internal/testnet"
)

// BenchmarkSubmitTelemetry measures the serial Submit path against
// the same loaded 200-vehicle city as BenchmarkSubmitSurge, with the
// telemetry registry off (nil — the zero-cost disabled state) and on
// (sharded latency histograms plus P² quantiles observing the quote
// and register stages of every submission).
func BenchmarkSubmitTelemetry(b *testing.B) {
	variants := []struct {
		name string
		reg  func() *telemetry.Registry
	}{
		{"off", func() *telemetry.Registry { return nil }},
		{"on", telemetry.NewRegistry},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			reg := v.reg()
			cfg := core.Config{
				Capacity: 4, Seed: 11,
				MaxWaitSeconds: 600, Sigma: 0.4, MaxPickupSeconds: 1e6,
				Telemetry: reg,
			}
			g := testnet.Lattice(rand.New(rand.NewSource(11)), 16, 16, 100)
			e, err := core.NewEngine(g, cfg)
			if err != nil {
				b.Fatalf("NewEngine: %v", err)
			}
			e.AddVehiclesUniform(200)
			nv := e.Graph().NumVertices()

			warm := rand.New(rand.NewSource(1000))
			for i := 0; i < 500; i++ {
				s := roadnet.VertexID(warm.Intn(nv))
				d := roadnet.VertexID(warm.Intn(nv))
				if s == d {
					continue
				}
				if _, err := e.Submit(s, d, 1); err != nil {
					b.Fatalf("warmup submit: %v", err)
				}
			}

			rng := rand.New(rand.NewSource(42))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := roadnet.VertexID(rng.Intn(nv))
				d := roadnet.VertexID(rng.Intn(nv))
				for d == s {
					d = roadnet.VertexID(rng.Intn(nv))
				}
				if _, err := e.Submit(s, d, 1); err != nil {
					b.Fatalf("submit: %v", err)
				}
			}
			b.StopTimer()
			if reg != nil {
				// The on variant must actually have observed the stages.
				found := false
				for _, f := range reg.Gather() {
					if f.Name != "ptrider_submit_stage_duration_seconds" {
						continue
					}
					for _, s := range f.Series {
						if s.Hist != nil && s.Hist.Count > 0 {
							found = true
						}
					}
				}
				if !found {
					b.Fatal("telemetry-on run recorded no stage observations")
				}
			}
		})
	}
}
