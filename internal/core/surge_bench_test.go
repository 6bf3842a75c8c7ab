package core_test

// Benchmark for the PR-8 acceptance number: quoting through the
// pricing pipeline with the surge tracker live must stay within a few
// percent of the static-fare submit path.

import (
	"math/rand"
	"testing"

	"ptrider/internal/core"
	"ptrider/internal/pricing/surge"
	"ptrider/internal/roadnet"
	"ptrider/internal/testnet"
)

// BenchmarkSubmitSurge measures the serial Submit path in three
// pricing configurations: the static model (surge off), the live
// tracker with no cell surged (the common case — demand counting plus
// a multiplier load per quote), and the live tracker with every cell
// surged (hair-trigger tiers; the full surged-quote path including the
// provenance bookkeeping).
func BenchmarkSubmitSurge(b *testing.B) {
	variants := []struct {
		name string
		cfg  func(*core.Config)
	}{
		{"off", func(c *core.Config) {}},
		{"on-cold", func(c *core.Config) {
			c.SurgeEnabled = true
			c.SurgeEpochSeconds = 60
		}},
		{"on-hot", func(c *core.Config) {
			c.SurgeEnabled = true
			c.SurgeEpochSeconds = 60
			c.SurgeAlpha = 1
			c.SurgeTiers = []surge.Tier{{MinRatio: 0.0001, Multiplier: 2}}
		}},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			cfg := core.Config{
				Capacity: 4, Seed: 11,
				MaxWaitSeconds: 600, Sigma: 0.4, MaxPickupSeconds: 1e6,
			}
			v.cfg(&cfg)
			g := testnet.Lattice(rand.New(rand.NewSource(11)), 16, 16, 100)
			e, err := core.NewEngine(g, cfg)
			if err != nil {
				b.Fatalf("NewEngine: %v", err)
			}
			e.AddVehiclesUniform(200)
			nv := e.Graph().NumVertices()

			// Warm the path, then cross an epoch boundary so the hot
			// variant quotes every request at 2× (the warmup demand
			// touches enough cells under hair-trigger tiers).
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
			if cfg.SurgeEnabled {
				if _, err := e.Tick(60); err != nil {
					b.Fatalf("epoch tick: %v", err)
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
			if v.name == "on-hot" && e.SurgeStats().SurgedQuotes == 0 {
				b.Fatal("hot variant quoted nothing surged")
			}
		})
	}
}
