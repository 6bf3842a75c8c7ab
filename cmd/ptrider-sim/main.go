// Command ptrider-sim replays a synthetic city day against PTRider and
// prints the demo's statistics panel (paper §4): average response time,
// sharing rate, options per request, waiting and detour quality.
//
// The defaults are a laptop-scale rendition of the demo's setup
// (17,000 taxis / 432,327 trips over one day); raise -taxis/-trips/-day
// to approach the full scale.
//
// Usage:
//
//	ptrider-sim -width 40 -height 40 -taxis 500 -trips 20000 -day 86400 \
//	            -algo dual-side -choice utility -tick 1 -seed 1
//
// With -cities the same replay loop runs against the multi-city router
// instead: per-city engines behind one front door, load skewed by
// -skew, and a -cross fraction of trips relocated across city borders.
// With -relay those cross-city trips are served as two-leg relay trips
// (hand-off gateways, joint price/time skylines, two-phase commits);
// without it the router rejects them with its typed cross-city error:
//
//	ptrider-sim -cities "east:40x40:500,west:28x28:200" \
//	            -skew "east=3,west=1" -cross 0.1 -relay -trips 20000
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"

	"ptrider/internal/core"
	"ptrider/internal/gen"
	"ptrider/internal/multicity"
	"ptrider/internal/relay"
	"ptrider/internal/roadnet"
	"ptrider/internal/sim"
	"ptrider/internal/trace"
)

var (
	width      = flag.Int("width", 40, "city width (intersections)")
	height     = flag.Int("height", 40, "city height (intersections)")
	taxis      = flag.Int("taxis", 500, "number of taxis")
	trips      = flag.Int("trips", 20000, "number of trips in the day")
	day        = flag.Float64("day", 86400, "day length in seconds")
	algo       = flag.String("algo", "dual-side", "matching algorithm: naive|single-side|dual-side")
	choice     = flag.String("choice", "utility", "rider choice model: earliest|cheapest|uniform|priceaware|utility")
	tick       = flag.Float64("tick", 1, "simulation tick in seconds")
	seed       = flag.Int64("seed", 1, "random seed")
	capacity   = flag.Int("capacity", 4, "taxi capacity")
	wait       = flag.Float64("wait", 300, "maximal waiting time w in seconds")
	sigma      = flag.Float64("sigma", 0.4, "service constraint sigma")
	failures   = flag.Float64("failures", 0, "vehicle failures injected per hour (single-city)")
	saveTrips  = flag.String("save-trips", "", "write the generated workload to this CSV file (single-city)")
	saveNet    = flag.String("save-network", "", "write the generated network to this file (single-city)")
	loadNet    = flag.String("load-network", "", "load the road network from this file instead of generating (single-city)")
	loadTrips  = flag.String("load-trips", "", "load the workload from this CSV file instead of generating (single-city)")
	cities     = flag.String("cities", "", `multi-city spec "name:WxH:taxis,..." (replays against the multi-city router)`)
	skew       = flag.String("skew", "", `per-city load weights "name=w,..." (default uniform)`)
	cross      = flag.Float64("cross", 0, "fraction of trips relocated across city borders")
	relayOn    = flag.Bool("relay", false, "serve cross-city trips as two-leg relay trips instead of rejecting them")
	transfer   = flag.Float64("transfer-buffer", 120, "relay hand-off margin in seconds (0 = none)")
	surge      = flag.Bool("surge", false, "enable per-cell surge pricing")
	surgeEpoch = flag.Float64("surge-epoch", 0, "surge re-evaluation period in simulated seconds (0 = 60)")
	peak       = flag.Bool("peak", false, "concentrate the generated workload into rush-hour peaks")
	pprofAddr  = flag.String("pprof-addr", "", "serve net/http/pprof on this address during the replay (empty = off)")
)

func main() {
	flag.Parse()

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "ptrider-sim: pprof: %v\n", err)
			}
		}()
	}
	if *cities != "" && (*saveTrips != "" || *loadTrips != "" || *saveNet != "" || *loadNet != "") {
		// Trace CSVs hold one city's vertex ids and a network file holds
		// one graph; neither can describe a multi-city day.
		fmt.Fprintln(os.Stderr, "ptrider-sim: -save-trips/-load-trips/-save-network/-load-network describe one city and are not supported with -cities")
		os.Exit(2)
	}
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ptrider-sim:", err)
		os.Exit(1)
	}
}

// run builds the backend and its workload, replays the day through the
// one loop and prints the panel.
func run() error {
	matcher, err := core.ParseAlgorithm(*algo)
	if err != nil {
		return err
	}
	riders, err := sim.ParseChoiceModel(*choice)
	if err != nil {
		return err
	}
	cfg := core.Config{
		Capacity:          *capacity,
		MaxWaitSeconds:    *wait,
		Sigma:             *sigma,
		Algorithm:         matcher,
		SurgeEnabled:      *surge,
		SurgeEpochSeconds: *surgeEpoch,
	}
	tcfg := gen.TripConfig{NumTrips: *trips, DaySeconds: *day, Seed: *seed}
	if *peak {
		tcfg.HourlyWeights = gen.PeakHourlyWeights()
	}

	var svc core.Service
	var workload []sim.Trip
	if *cities != "" {
		svc, workload, err = multiCity(cfg, tcfg)
	} else {
		svc, workload, err = singleCity(cfg, tcfg)
	}
	if err != nil {
		return err
	}

	fmt.Printf("running day with algorithm=%s, choice=%s …\n", *algo, *choice)
	res, err := sim.Run(svc, workload, sim.Config{
		TickSeconds:     *tick,
		Choice:          riders,
		Seed:            *seed,
		FailuresPerHour: *failures,
	})
	if err != nil {
		return err
	}
	return printPanel(svc.Cities(), res)
}

// literalSeconds maps the flag's "0 means none" onto relay.Config's
// "0 means default, negative means none" encoding.
func literalSeconds(s float64) float64 {
	if s == 0 {
		return -1
	}
	return s
}

// parseWeights reads a "name=w,name=w" skew spec.
func parseWeights(s string) (map[string]float64, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[string]float64)
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad skew entry %q (want name=weight)", part)
		}
		w, err := strconv.ParseFloat(kv[1], 64)
		if err != nil {
			return nil, fmt.Errorf("bad skew weight %q: %v", kv[1], err)
		}
		out[strings.TrimSpace(kv[0])] = w
	}
	return out, nil
}

// multiCity builds the router over the city spec and a skewed
// coordinate workload over its cities.
func multiCity(cfg core.Config, tcfg gen.TripConfig) (core.Service, []sim.Trip, error) {
	weights, err := parseWeights(*skew)
	if err != nil {
		return nil, nil, err
	}
	fmt.Printf("building cities %q (relay=%v) …\n", *cities, *relayOn)
	router, err := multicity.BuildFromSpecWithConfig(*cities, cfg, *seed, multicity.RouterConfig{
		EnableRelay: *relayOn,
		Relay:       relay.Config{TransferBufferSeconds: literalSeconds(*transfer)},
	})
	if err != nil {
		return nil, nil, err
	}
	for _, c := range router.Cities() {
		fmt.Printf("  %-10s %5d intersections, %4d taxis\n", c.Name, c.Vertices, c.Vehicles)
	}
	fmt.Printf("generating %d trips over %.0fs (cross-city fraction %.2f) …\n", *trips, *day, *cross)
	workload, err := sim.GenerateMultiWorkload(router, tcfg, weights, *cross)
	if err != nil {
		return nil, nil, err
	}
	return router, sim.CoordTrips(workload), nil
}

// singleCity builds one engine over a generated or loaded network and
// a generated or loaded vertex trace.
func singleCity(cfg core.Config, tcfg gen.TripConfig) (core.Service, []sim.Trip, error) {
	var g *roadnet.Graph
	var err error
	if *loadNet != "" {
		fmt.Printf("loading network from %s …\n", *loadNet)
		g, err = readFile(*loadNet, roadnet.ReadGraph)
		if err == nil && !roadnet.Connected(g) {
			err = fmt.Errorf("network %s must be connected", *loadNet)
		}
	} else {
		fmt.Printf("generating city %dx%d …\n", *width, *height)
		g, err = gen.GenerateNetwork(gen.CityConfig{Width: *width, Height: *height, Seed: *seed})
	}
	if err != nil {
		return nil, nil, err
	}
	if *saveNet != "" {
		err := writeFile(*saveNet, func(w io.Writer) error { return roadnet.WriteGraph(w, g) })
		if err != nil {
			return nil, nil, err
		}
		fmt.Printf("  network saved to %s\n", *saveNet)
	}
	fmt.Printf("  %d intersections, %d road segments\n", g.NumVertices(), g.NumEdges()/2)

	var workload []trace.Trip
	if *loadTrips != "" {
		fmt.Printf("loading workload from %s …\n", *loadTrips)
		workload, err = readFile(*loadTrips, trace.ReadCSV)
		if err != nil {
			return nil, nil, err
		}
		for _, tr := range workload {
			if err := tr.Validate(g.NumVertices()); err != nil {
				return nil, nil, err
			}
		}
		trace.SortByTime(workload)
	} else {
		fmt.Printf("generating %d trips over %.0fs …\n", *trips, *day)
		workload, err = gen.GenerateTrips(g, tcfg)
		if err != nil {
			return nil, nil, err
		}
	}
	if *saveTrips != "" {
		err := writeFile(*saveTrips, func(w io.Writer) error { return trace.WriteCSV(w, workload) })
		if err != nil {
			return nil, nil, err
		}
		fmt.Printf("  workload saved to %s\n", *saveTrips)
	}

	cfg.Seed = *seed
	eng, err := core.NewEngine(g, cfg)
	if err != nil {
		return nil, nil, err
	}
	eng.AddVehiclesUniform(*taxis)
	return eng, sim.TraceTrips(workload), nil
}

// readFile parses one input file.
func readFile[T any](path string, parse func(io.Reader) (T, error)) (T, error) {
	f, err := os.Open(path)
	if err != nil {
		var zero T
		return zero, err
	}
	defer f.Close()
	return parse(f)
}

// writeFile writes one output file, reporting the close error too.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printPanel prints the statistics panel (paper §4.2); the cross-city,
// failure, surge, relay, per-city and hourly sections appear when the
// run has them.
func printPanel(cities []core.CityInfo, res *sim.Result) error {
	st := res.Stats.Total
	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(w, "\n== PTRider statistics panel ==")
	fmt.Fprintf(w, "simulated clock\t%.0f s\n", st.Clock)
	fmt.Fprintf(w, "requests submitted\t%d\n", res.Submitted)
	if len(cities) > 1 {
		fmt.Fprintf(w, "cross-city relayed / rejected / no city\t%d / %d / %d\n", res.Relayed, res.CrossRejected, res.NoCity)
	}
	fmt.Fprintf(w, "accepted / declined / no option\t%d / %d / %d\n", res.Accepted, res.Declined, res.NoOption)
	if res.FailuresInjected > 0 {
		fmt.Fprintf(w, "failures injected / orphaned / re-offered\t%d / %d / %d\n", res.FailuresInjected, res.Orphaned, res.Resubmitted)
	}
	fmt.Fprintf(w, "completed trips\t%d\n", st.Completed)
	fmt.Fprintf(w, "average response time\t%.3f ms\n", st.AvgResponseMs)
	fmt.Fprintf(w, "p95 response time\t%.3f ms\n", st.P95ResponseMs)
	fmt.Fprintf(w, "average sharing rate\t%.1f %%\n", 100*st.SharingRate)
	fmt.Fprintf(w, "average options per request\t%.2f\n", res.OptionsPerRequest.Mean())
	fmt.Fprintf(w, "average chosen price\t%.2f\n", res.Prices.Mean())
	fmt.Fprintf(w, "average chosen pickup\t%.0f s\n", res.PickupSeconds.Mean())
	fmt.Fprintf(w, "average extra wait\t%.1f s\n", st.AvgWaitSeconds)
	fmt.Fprintf(w, "average detour factor\t%.3f\n", st.AvgDetourFactor)
	fmt.Fprintf(w, "commit stale / re-probed / salvaged\t%d / %d / %d\n", st.CommitStale, st.Reprobes, st.ReprobeCommits)
	fmt.Fprintf(w, "active taxis at end\t%d\n", st.ActiveVehicles)
	fmt.Fprintf(w, "tick workers\t%d\n", st.Tick.Workers)
	fmt.Fprintf(w, "tick wall avg / last\t%.3f / %.3f ms\n", st.Tick.AvgWallMs, st.Tick.LastWallMs)
	fmt.Fprintf(w, "events per tick / max shard skew\t%.2f / %.3f ms\n", st.Tick.AvgEvents, st.Tick.MaxShardSkewMs)
	if sg := st.Surge; sg.Enabled {
		fmt.Fprintf(w, "surge epoch / surged cells\t%d / %d of %d\n", sg.Epoch, sg.ActiveCells, sg.Cells)
		fmt.Fprintf(w, "surge max / avg multiplier\t%.2f / %.3f\n", sg.MaxMultiplier, sg.AvgMultiplier)
		fmt.Fprintf(w, "surged quotes\t%d\n", sg.SurgedQuotes)
	}
	if res.Stats.RelayEnabled {
		rs := res.Stats.Relay
		fmt.Fprintln(w, "\n== relay panel ==")
		fmt.Fprintf(w, "trips quoted / leg quotes\t%d / %d\n", rs.Quoted, rs.LegQuotes)
		fmt.Fprintf(w, "committed / aborted / declined\t%d / %d / %d\n", rs.Committed, rs.Aborted, rs.Declined)
		fmt.Fprintf(w, "completed / failed / still active\t%d / %d / %d\n", rs.Completed, rs.Failed, rs.Active)
	}
	if err := w.Flush(); err != nil {
		return err
	}

	w = tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', tabwriter.AlignRight)
	if len(cities) > 1 {
		fmt.Fprintln(w, "\ncity\tsubmitted\taccepted\tcompleted\tavg resp ms\tsharing %\ttaxis\t")
		for _, c := range cities {
			cs, pc := res.Stats.Cities[c.Name], res.PerCity[c.Name]
			fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%.3f\t%.1f\t%d\t\n",
				c.Name, pc.Submitted, pc.Accepted, cs.Completed, cs.AvgResponseMs, 100*cs.SharingRate, cs.ActiveVehicles)
		}
	}
	if len(res.Hourly) > 1 {
		fmt.Fprintln(w, "\nhour\tsubmitted\taccepted\tno option\tavg options\t")
		for _, h := range res.Hourly {
			fmt.Fprintf(w, "%02d\t%d\t%d\t%d\t%.2f\t\n", h.Hour, h.Submitted, h.Accepted, h.NoOption, h.AvgOptions)
		}
	}
	return w.Flush()
}
