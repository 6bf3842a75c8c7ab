// Command ptrider-bench regenerates the demo paper's quantitative
// artefacts (experiments E2–E8). Each experiment prints one table;
// absolute numbers depend on the host, but the orderings and shapes
// are the reproduction targets.
//
// Usage:
//
//	ptrider-bench -exp all            # every experiment
//	ptrider-bench -exp algos          # E3: naive vs single vs dual
//	ptrider-bench -exp dualside       # E4: the dual-side scenario
//	ptrider-bench -exp stats          # E2: day statistics panel
//	ptrider-bench -exp sweep          # E5: parameter sensitivity
//	ptrider-bench -exp index          # E6: grid index build/bounds/updates
//	ptrider-bench -exp options        # E7: options-per-request distribution
//	ptrider-bench -exp ablate         # E8: optimisation ablations
//
// -scale small|medium|large trades run time for fidelity to the demo's
// 17,000-taxi scale.
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strings"
)

type scale struct {
	name       string
	city       int // city side (intersections)
	fleets     []int
	dayTaxis   int
	dayTrips   int
	daySeconds float64
	probes     int
}

var scales = map[string]scale{
	"small":  {name: "small", city: 24, fleets: []int{50, 100, 200}, dayTaxis: 100, dayTrips: 2000, daySeconds: 7200, probes: 60},
	"medium": {name: "medium", city: 40, fleets: []int{100, 250, 500, 1000}, dayTaxis: 400, dayTrips: 10000, daySeconds: 14400, probes: 120},
	"large":  {name: "large", city: 64, fleets: []int{500, 1000, 2000, 4000}, dayTaxis: 2000, dayTrips: 60000, daySeconds: 43200, probes: 200},
}

func main() {
	var (
		exp       = flag.String("exp", "all", "experiment: all|stats|algos|dualside|sweep|index|options|ablate")
		scaleFl   = flag.String("scale", "small", "scale: small|medium|large")
		seed      = flag.Int64("seed", 1, "random seed")
		pprofAddr = flag.String("pprof-addr", "", "serve net/http/pprof on this address during the experiments (empty = off)")
	)
	flag.IntVar(&tickWorkersFl, "tick-workers", 0, "parallel tick shard width for every experiment engine (0 = one per CPU, 1 = serial)")
	flag.Parse()

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "ptrider-bench: pprof: %v\n", err)
			}
		}()
	}

	sc, ok := scales[*scaleFl]
	if !ok {
		fmt.Fprintf(os.Stderr, "ptrider-bench: unknown scale %q\n", *scaleFl)
		os.Exit(2)
	}

	exps := map[string]func(scale, int64) error{
		"stats":    expStats,
		"algos":    expAlgos,
		"dualside": expDualSide,
		"sweep":    expSweep,
		"index":    expIndex,
		"options":  expOptions,
		"ablate":   expAblate,
	}
	order := []string{"stats", "algos", "dualside", "sweep", "index", "options", "ablate"}

	run := func(name string) error {
		fmt.Printf("\n======== %s (scale=%s, seed=%d) ========\n", strings.ToUpper(name), sc.name, *seed)
		return exps[name](sc, *seed)
	}

	if *exp == "all" {
		for _, name := range order {
			if err := run(name); err != nil {
				fmt.Fprintf(os.Stderr, "ptrider-bench: %s: %v\n", name, err)
				os.Exit(1)
			}
		}
		return
	}
	if _, ok := exps[*exp]; !ok {
		fmt.Fprintf(os.Stderr, "ptrider-bench: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
	if err := run(*exp); err != nil {
		fmt.Fprintf(os.Stderr, "ptrider-bench: %s: %v\n", *exp, err)
		os.Exit(1)
	}
}
