package core_test

// Benchmarks of the durability layer's two acceptance numbers: the
// Submit-path overhead of write-ahead journaling (group commit must
// keep sync mode within a few percent of off), and the recovery time
// of a long journal tail.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"ptrider/internal/core"
	"ptrider/internal/roadnet"
	"ptrider/internal/testnet"
	"ptrider/internal/wal"
)

// benchEngine builds a loaded city for the submit benchmark — fleet
// sized so the matching work per Submit is representative of a real
// shard, not dwarfed by fixed per-record costs.
func benchEngine(b *testing.B, mode wal.Mode, dir string) *core.Engine {
	b.Helper()
	g := testnet.Lattice(rand.New(rand.NewSource(11)), 16, 16, 100)
	e, err := core.NewEngine(g, core.Config{
		GridCols: 8, GridRows: 8, Capacity: 4, Seed: 11,
		MaxWaitSeconds: 600, Sigma: 0.4, MaxPickupSeconds: 1e6,
		Durability: mode, WALDir: dir,
	})
	if err != nil {
		b.Fatalf("NewEngine: %v", err)
	}
	e.AddVehiclesUniform(200)
	return e
}

// BenchmarkSubmitDurable measures the durable Submit path against the
// journal-free baseline. Parallel submitters share group commits, so
// the sync-mode delta is the amortised fsync cost per request.
func BenchmarkSubmitDurable(b *testing.B) {
	for _, mode := range []wal.Mode{wal.ModeOff, wal.ModeAsync, wal.ModeSync} {
		b.Run(mode.String(), func(b *testing.B) {
			dir := ""
			if mode != wal.ModeOff {
				dir = b.TempDir()
			}
			e := benchEngine(b, mode, dir)
			nv := e.Graph().NumVertices()
			// Warm the path (code, distance memo, page cache) outside
			// the timer so the first variant isn't charged cold-start
			// costs the later ones skip.
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
			var seed int64
			var seedMu sync.Mutex
			// Group commit amortises the fsync over every submitter
			// concurrent with it, so model a loaded front door: many
			// more in-flight requests than cores.
			b.SetParallelism(256)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				seedMu.Lock()
				seed++
				rng := rand.New(rand.NewSource(seed))
				seedMu.Unlock()
				for pb.Next() {
					s := roadnet.VertexID(rng.Intn(nv))
					d := roadnet.VertexID(rng.Intn(nv))
					for d == s {
						d = roadnet.VertexID(rng.Intn(nv))
					}
					if _, err := e.Submit(s, d, 1); err != nil {
						b.Fatalf("submit: %v", err)
					}
				}
			})
			b.StopTimer()
			if mode != wal.ModeOff {
				ds := e.DurabilityStats()
				b.ReportMetric(float64(ds.Records)/float64(ds.Fsyncs+1), "records/fsync")
				b.ReportMetric(ds.AvgFsyncMicros, "fsync-µs")
			}
		})
	}
}

// BenchmarkRecover10kTail measures NewEngine-time recovery of a
// 10,000-record journal tail with no snapshot — the worst case the
// snapshot cadence exists to bound.
func BenchmarkRecover10kTail(b *testing.B) {
	const records = 10_000
	dir := b.TempDir()
	g := testnet.Lattice(rand.New(rand.NewSource(13)), 6, 6, 100)
	cfg := core.Config{
		GridCols: 2, GridRows: 2, Capacity: 4, Seed: 13,
		MaxWaitSeconds: 600, Sigma: 0.4, MaxPickupSeconds: 1e6,
		Durability: wal.ModeSync, WALDir: dir,
	}
	e, err := core.NewEngine(g, cfg)
	if err != nil {
		b.Fatalf("NewEngine: %v", err)
	}
	e.AddVehiclesUniform(2)
	// Build the tail concurrently so group commit keeps setup fast:
	// submit+decline pairs, two journal records each.
	const workers = 16
	nv := g.NumVertices()
	var wg sync.WaitGroup
	per := (records - 1) / 2 / workers // -1: the placement record counts
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < per; i++ {
				s := roadnet.VertexID(rng.Intn(nv))
				d := roadnet.VertexID(rng.Intn(nv))
				for d == s {
					d = roadnet.VertexID(rng.Intn(nv))
				}
				rec, err := e.SubmitRequest(core.SubmitSpec{S: s, D: d, Riders: 1, Constraints: core.DefaultConstraints(), IdemKey: fmt.Sprintf("b%d-%d", w, i)})
				if err != nil {
					b.Errorf("submit: %v", err)
					return
				}
				if err := e.Decline(rec.ID); err != nil {
					b.Errorf("decline: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if b.Failed() {
		b.FailNow()
	}
	tail := e.DurabilityStats().Records
	inj := &wal.Injector{}
	b.Cleanup(wal.ArmDir(dir, inj))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := core.NewEngine(g, cfg)
		if err != nil {
			b.Fatalf("recovery: %v", err)
		}
		if ds := got.DurabilityStats(); int64(ds.RecoveredRecords) < tail {
			b.Fatalf("recovered %d records, tail has %d", ds.RecoveredRecords, tail)
		}
		b.StopTimer()
		// Kill before Close: a graceful Close would snapshot and
		// compact the tail away for the next iteration.
		inj.Kill()
		if err := got.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
