// Command ptrider-shard runs one city of a PTRider cluster: a
// single-city engine (typically WAL-backed) behind the full /v1 API,
// for a gateway (ptrider-server -shards, or cluster.NewGateway) to
// route to. The gateway speaks /v1 to it for every verb /v1 has, and
// five /rpc verbs for the rest: meta, graph, clock, cancel and
// telemetry (see internal/cluster/shard.go).
//
// The city is generated synthetically, like ptrider-server's
// single-city mode, with -origin-x/-origin-y translating the city in
// the shared plane so a fleet of shards tiles disjoint service regions
// — the gateway assigns requests to shards by those regions and picks
// relay hand-off gateways across their boundaries.
//
// With -wal-dir, every mutation is journaled before it is acknowledged
// and a restart with the same flags recovers the ledger — the property
// the cluster's crash-recovery e2e leans on: a shard SIGKILLed inside
// a relay commit window replays the committed leg on restart, and the
// gateway's deferred compensation releases it.
//
// Usage:
//
//	ptrider-shard -addr :9101 -width 10 -height 10 -taxis 20 -wal-dir /var/lib/ptrider/alpha
//	ptrider-shard -addr :9102 -width 8 -height 8 -origin-x 30000 -taxis 15 -wal-dir /var/lib/ptrider/beta
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ptrider/internal/cluster"
	"ptrider/internal/core"
	"ptrider/internal/gen"
	"ptrider/internal/server"
	"ptrider/internal/telemetry"
	"ptrider/internal/wal"
)

func main() {
	var (
		addr      = flag.String("addr", ":9100", "listen address")
		width     = flag.Int("width", 10, "city width (intersections)")
		height    = flag.Int("height", 10, "city height (intersections)")
		originX   = flag.Float64("origin-x", 0, "city origin X in the shared plane (metres)")
		originY   = flag.Float64("origin-y", 0, "city origin Y in the shared plane (metres)")
		taxis     = flag.Int("taxis", 20, "number of taxis")
		algoName  = flag.String("algo", "dual-side", "matching algorithm")
		seed      = flag.Int64("seed", 1, "random seed")
		walDir    = flag.String("wal-dir", "", "write-ahead log directory (empty = durability off)")
		walMode   = flag.String("wal-mode", "sync", `journal mode with -wal-dir: "sync" or "async"`)
		metricsOn = flag.Bool("metrics", true, "expose GET /metrics and record engine telemetry")

		// crashAfterChoose arms the commit-window crash used by the
		// cluster's e2e harness: the process exits after a choice on
		// POST /v1/requests/{id}/choice is journaled but before its HTTP
		// response is written, so the gateway observes an ambiguous
		// commit.
		crashAfterChoose = flag.Bool("test-crash-after-choose", false,
			"TESTING ONLY: exit(137) after the next successful choose, before replying")
	)
	flag.Parse()

	mode := wal.ModeOff
	if *walDir != "" {
		m, err := wal.ParseMode(*walMode)
		if err != nil || m == wal.ModeOff {
			log.Fatalf("ptrider-shard: -wal-mode must be sync or async with -wal-dir")
		}
		mode = m
	}
	var reg *telemetry.Registry
	if *metricsOn {
		reg = telemetry.NewRegistry()
	}

	algo, err := core.ParseAlgorithm(*algoName)
	if err != nil {
		log.Fatalf("ptrider-shard: %v", err)
	}
	g, err := gen.GenerateNetwork(gen.CityConfig{
		Width: *width, Height: *height,
		OriginX: *originX, OriginY: *originY, Seed: *seed,
	})
	if err != nil {
		log.Fatalf("ptrider-shard: %v", err)
	}
	eng, err := core.NewEngine(g, core.Config{
		Algorithm: algo, Seed: *seed,
		Durability: mode, WALDir: *walDir,
		Telemetry: reg,
	})
	if err != nil {
		log.Fatalf("ptrider-shard: %v", err)
	}
	if !eng.Recovered() {
		eng.AddVehiclesUniform(*taxis)
	}

	opts := cluster.ShardOptions{Server: server.Options{DisableMetrics: !*metricsOn}}
	if *crashAfterChoose {
		opts.AfterChoose = func() {
			// Flush nothing, reply to no one: the commit is in the WAL
			// and the caller is left with a dead socket.
			os.Exit(137)
		}
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           cluster.NewShardHandler(eng, opts),
		ReadHeaderTimeout: 10 * time.Second,
		WriteTimeout:      60 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Printf("PTRider shard serving %d taxis on a %dx%d city at %s (origin %.0f,%.0f, durability=%s, recovered=%v)\n",
		eng.NumVehicles(), *width, *height, *addr, *originX, *originY, mode, eng.Recovered())

	select {
	case err := <-errCh:
		log.Fatalf("ptrider-shard: %v", err)
	case <-ctx.Done():
	}
	stop()

	log.Printf("ptrider-shard: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Printf("ptrider-shard: http shutdown: %v", err)
	}
	if err := eng.Close(); err != nil && !errors.Is(err, wal.ErrCrashed) {
		log.Printf("ptrider-shard: close: %v", err)
	}
	log.Printf("ptrider-shard: bye")
}
