package ptrider_test

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ptrider"
)

// buildScalingSystem returns a loaded city for throughput measurement.
func buildScalingSystem(t *testing.T) *ptrider.System {
	t.Helper()
	net, err := ptrider.GenerateCity(ptrider.CityConfig{Width: 24, Height: 24, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := ptrider.New(net, ptrider.Config{NumTaxis: 150, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	// Load the fleet with some accepted trips so probes are non-trivial.
	for i := 0; i < 60; i++ {
		req, err := sys.Request(sys.RandomVertex(), sys.RandomVertex(), 1)
		if err != nil {
			continue
		}
		if len(req.Options) > 0 {
			_ = sys.Choose(req.ID, 0)
		}
	}
	return sys
}

// submitThroughput measures completed submit+decline cycles per second
// using `clients` concurrent goroutines for the given wall duration.
func submitThroughput(t *testing.T, sys *ptrider.System, clients int, d time.Duration) float64 {
	t.Helper()
	probes := make([][2]ptrider.VertexID, 256)
	for i := range probes {
		s, dd := sys.RandomVertex(), sys.RandomVertex()
		for s == dd {
			dd = sys.RandomVertex()
		}
		probes[i] = [2]ptrider.VertexID{s, dd}
	}
	var ops atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; ; i += clients {
				select {
				case <-stop:
					return
				default:
				}
				p := probes[i%len(probes)]
				req, err := sys.Request(p[0], p[1], 1)
				if err != nil {
					t.Error(err)
					return
				}
				_ = sys.Decline(req.ID)
				ops.Add(1)
			}
		}(c)
	}
	time.Sleep(d)
	close(stop)
	wg.Wait()
	return float64(ops.Load()) / d.Seconds()
}

// TestParallelSubmitScaling pins the refactor's throughput claim where
// it is measurable: on a host with ≥4 cores, concurrent submissions
// against the sharded engine must deliver >1.5× the single-client
// throughput. On smaller hosts the test skips (a single core cannot
// exhibit parallel speedup).
func TestParallelSubmitScaling(t *testing.T) {
	cores := runtime.NumCPU()
	if cores < 4 {
		t.Skipf("need >=4 cores to measure parallel scaling, have %d", cores)
	}
	if testing.Short() {
		t.Skip("short mode")
	}
	sys := buildScalingSystem(t)

	// Warm the shared distance memo so both measurements run hot.
	_ = submitThroughput(t, sys, 1, 300*time.Millisecond)

	serial := submitThroughput(t, sys, 1, 2*time.Second)
	parallel := submitThroughput(t, sys, cores, 2*time.Second)
	ratio := parallel / serial
	t.Logf("serial %.0f ops/s, parallel(%d) %.0f ops/s, ratio %.2fx", serial, cores, parallel, ratio)
	if ratio < 1.5 {
		t.Fatalf("parallel submit throughput only %.2fx serial (want >1.5x on %d cores)", ratio, cores)
	}
}
