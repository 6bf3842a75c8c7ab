// Command ptrider-server runs the PTRider service: the versioned /v1
// JSON API (requests, choices, vehicles, cities, relay itineraries,
// ticks, stats, an SSE event stream), backed by a synthetic city with
// roaming taxis.
//
// With -cities, the server runs the multi-city router instead: one
// independent engine per city, requests assigned to cities by origin
// coordinate — and, with -relay, cross-city trips served as two-leg
// relay itineraries. Single- and multi-city modes serve the identical
// HTTP surface: both backends implement the same core Service
// interface behind one handler set (see internal/server).
//
// With -shards, the server runs neither backend locally: it becomes a
// cluster gateway over remote city shard processes (cmd/ptrider-shard),
// one per address, routing requests to shards by city and serving
// cross-city trips through the gateway-side relay scheduler — the same
// /v1 surface a third time, over sockets (see internal/cluster).
// Addresses are host:port, optionally name-prefixed ("east=host:port")
// to pick the served city names.
//
// With -realtime, simulated time advances with wall-clock time in the
// background, like the live demo, feeding GET /v1/events; otherwise
// advance it manually via POST /v1/ticks.
//
// With -wal-dir, every state-mutating operation is journaled to a
// write-ahead log under that directory before it is acknowledged, and
// a restart with the same flags recovers the ledger — requests,
// assignments, vehicle schedules, simulated clock — instead of
// re-seeding a fresh fleet. -wal-mode picks sync (fsync before ack)
// or async (group-committed in the background, a crash may lose the
// tail). With -shards the shards journal the cities themselves, and
// -wal-dir journals the gateway's relay trip ledger under relay/, so a
// restarted gateway keeps its relay trips and their ids. On
// SIGINT/SIGTERM the server drains in-flight HTTP requests, flushes
// the journal and writes a final snapshot before exiting, so the next
// start recovers instantly.
//
// Observability: GET /metrics serves the Prometheus text exposition —
// HTTP route latencies, submit-stage timings (quote, register, WAL
// wait, probe/commit), tick shard wall times, WAL append/fsync
// latencies, surge gauges — on by default, off with -metrics=false.
// -slow-request-ms N logs one log/slog line (correlation id +
// per-stage breakdown) for requests slower than N ms, and -pprof-addr
// serves net/http/pprof on a separate listener.
//
// Usage:
//
//	ptrider-server -addr :8080 -width 40 -height 40 -taxis 500 -realtime
//	ptrider-server -addr :8080 -cities "east:40x40:500,west:28x28:200" -relay
//	ptrider-server -addr :8080 -shards "east=localhost:9101,west=localhost:9102"
//	ptrider-server -addr :8080 -wal-dir /var/lib/ptrider/wal -wal-mode sync
//
// Endpoints (see internal/server for the full reference):
//
//	POST /v1/requests                {"s":12,"d":17,"riders":2} · {"city":"east",...}
//	                                 · {"ox":..,"oy":..,"dx":..,"dy":..} · {"requests":[...]}
//	GET  /v1/requests                ledger listing (?city=&status=&limit=&offset=)
//	GET  /v1/requests/{id} · POST /v1/requests/{id}/choice · POST /v1/requests/{id}/decline
//	GET  /v1/vehicles[/{id}] · GET /v1/cities · GET /v1/relay/{id}
//	POST /v1/ticks {"seconds":5} · GET /v1/stats · GET /v1/events (SSE)
//	GET/POST /v1/params · GET /v1/map
//	GET  /v1/healthz · GET /v1/readyz · GET /metrics
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"ptrider/internal/cluster"
	"ptrider/internal/core"
	"ptrider/internal/gen"
	"ptrider/internal/multicity"
	"ptrider/internal/relay"
	"ptrider/internal/server"
	"ptrider/internal/telemetry"
	"ptrider/internal/wal"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		width      = flag.Int("width", 40, "city width (intersections)")
		height     = flag.Int("height", 40, "city height (intersections)")
		taxis      = flag.Int("taxis", 500, "number of taxis")
		algo       = flag.String("algo", "dual-side", "matching algorithm")
		seed       = flag.Int64("seed", 1, "random seed")
		realtime   = flag.Bool("realtime", false, "advance simulated time with wall-clock time")
		cities     = flag.String("cities", "", `multi-city spec "name:WxH:taxis,..." (overrides -width/-height/-taxis)`)
		shards     = flag.String("shards", "", `cluster gateway mode: comma-separated shard addresses "[name=]host:port,..." (overrides -cities)`)
		relayOn    = flag.Bool("relay", false, "serve cross-city trips as two-leg relay trips (with -cities)")
		walDir     = flag.String("wal-dir", "", "write-ahead log directory (empty = durability off; multi-city shards get per-city subdirectories, relay trips relay/)")
		walMode    = flag.String("wal-mode", "sync", `journal mode with -wal-dir: "sync" (fsync before ack) or "async" (background group commit)`)
		surgeOn    = flag.Bool("surge", false, "enable per-cell surge pricing (see /v1/surge)")
		surgeEpoch = flag.Float64("surge-epoch", 0, "surge multiplier re-evaluation period in simulated seconds (0 = 60)")
		metricsOn  = flag.Bool("metrics", true, "expose GET /metrics and record engine/HTTP telemetry")
		slowReqMS  = flag.Float64("slow-request-ms", 0, "log a structured line for HTTP requests slower than this many milliseconds (0 = off)")
		pprofAddr  = flag.String("pprof-addr", "", "serve net/http/pprof on this separate address (empty = off)")
	)
	flag.Parse()

	mode := wal.ModeOff
	if *walDir != "" {
		m, err := wal.ParseMode(*walMode)
		if err != nil || m == wal.ModeOff {
			log.Fatalf("ptrider-server: -wal-mode must be sync or async with -wal-dir")
		}
		mode = m
	}

	// One registry covers the whole backend; per-city engines get child
	// registries whose families merge city-labeled at scrape time.
	var reg *telemetry.Registry
	if *metricsOn {
		reg = telemetry.NewRegistry()
	}
	svc, banner, err := buildService(buildConfig{
		cities: *cities, shards: *shards, width: *width, height: *height, taxis: *taxis,
		algoName: *algo, seed: *seed, relayOn: *relayOn,
		durability: mode, walDir: *walDir,
		surge: *surgeOn, surgeEpoch: *surgeEpoch, telemetry: reg,
	})
	if err != nil {
		log.Fatalf("ptrider-server: %v", err)
	}
	srv := server.NewServiceWithOptions(svc, server.Options{
		DisableMetrics: !*metricsOn,
		SlowRequest:    time.Duration(*slowReqMS * float64(time.Millisecond)),
	})

	if *pprofAddr != "" {
		// pprof rides the default mux on its own listener, so profiling
		// endpoints never share a port with the public API.
		go func() {
			log.Printf("ptrider-server: pprof at %s/debug/pprof/", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("ptrider-server: pprof: %v", err)
			}
		}()
	}

	// The realtime driver stops when the serve context is cancelled so
	// a tick never races the final snapshot.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if *realtime {
		go func() {
			ticker := time.NewTicker(time.Second)
			defer ticker.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-ticker.C:
					// Ticking through the server feeds /v1/events too.
					if err := srv.Tick(1); err != nil {
						log.Printf("ptrider-server: tick: %v", err)
						return
					}
				}
			}
		}()
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		WriteTimeout:      60 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()

	fmt.Printf("PTRider serving %s at %s (realtime=%v, durability=%s)\n", banner, *addr, *realtime, mode)

	select {
	case err := <-errCh:
		log.Fatalf("ptrider-server: %v", err)
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second ^C kills immediately

	// Drain in-flight requests, then flush the journal and write the
	// final snapshot so the next start recovers without replay.
	log.Printf("ptrider-server: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Printf("ptrider-server: http shutdown: %v", err)
	}
	if closer, ok := svc.(interface{ Close() error }); ok {
		if err := closer.Close(); err != nil && !errors.Is(err, wal.ErrCrashed) {
			log.Printf("ptrider-server: close: %v", err)
		}
	}
	log.Printf("ptrider-server: bye")
}

// buildConfig carries the service-construction flags.
type buildConfig struct {
	cities        string
	shards        string
	width, height int
	taxis         int
	algoName      string
	seed          int64
	relayOn       bool
	durability    wal.Mode
	walDir        string
	surge         bool
	surgeEpoch    float64
	telemetry     *telemetry.Registry
}

// buildService constructs the backend: a single-city engine, or a
// multi-city router from the compact spec. Both implement the same
// core.Service, so the caller serves them identically. When a WAL
// directory holds a previous run's journal, the recovered fleet is
// kept and the initial seeding is skipped.
func buildService(bc buildConfig) (core.Service, string, error) {
	algo, err := core.ParseAlgorithm(bc.algoName)
	if err != nil {
		return nil, "", err
	}
	if bc.shards != "" {
		addrs := strings.Split(bc.shards, ",")
		for i := range addrs {
			addrs[i] = strings.TrimSpace(addrs[i])
		}
		// The gateway journals its relay trip ledger where the
		// in-process router would: <wal-dir>/relay.
		gw, err := cluster.NewGateway(addrs, cluster.GatewayConfig{
			Relay:    relay.Config{Durability: bc.durability, WALDir: filepath.Join(bc.walDir, "relay")},
			Registry: bc.telemetry,
		})
		if err != nil {
			return nil, "", err
		}
		return gw, fmt.Sprintf("%d remote city shards (gateway mode)", len(addrs)), nil
	}
	if bc.cities != "" {
		router, err := multicity.BuildFromSpecWithConfig(bc.cities,
			core.Config{
				Algorithm:    algo,
				SurgeEnabled: bc.surge, SurgeEpochSeconds: bc.surgeEpoch,
			}, bc.seed,
			multicity.RouterConfig{
				EnableRelay: bc.relayOn,
				Durability:  bc.durability, WALDir: bc.walDir,
				Telemetry: bc.telemetry,
			})
		if err != nil {
			return nil, "", err
		}
		cities, total := router.Cities(), 0
		for _, c := range cities {
			total += c.Vehicles
		}
		return router, fmt.Sprintf("%d cities (%d taxis total, relay=%v)",
			len(cities), total, bc.relayOn), nil
	}
	g, err := gen.GenerateNetwork(gen.CityConfig{Width: bc.width, Height: bc.height, Seed: bc.seed})
	if err != nil {
		return nil, "", err
	}
	eng, err := core.NewEngine(g, core.Config{
		Algorithm: algo, Seed: bc.seed,
		Durability: bc.durability, WALDir: bc.walDir,
		SurgeEnabled: bc.surge, SurgeEpochSeconds: bc.surgeEpoch,
		Telemetry: bc.telemetry,
	})
	if err != nil {
		return nil, "", err
	}
	if eng.Recovered() {
		return eng, fmt.Sprintf("%d taxis on a %dx%d city (recovered from %s)",
			eng.NumVehicles(), bc.width, bc.height, bc.walDir), nil
	}
	eng.AddVehiclesUniform(bc.taxis)
	return eng, fmt.Sprintf("%d taxis on a %dx%d city", bc.taxis, bc.width, bc.height), nil
}
